import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anarx import (
    EvolutionPolicy,
    RunConfig,
    SeriesFrame,
    snapshot_load,
    snapshot_save,
)
from anarx.datasets import synthetic_load_series
from anarx.errors import CorruptSnapshot, VersionMismatch
from anarx.pipeline import build_forecaster
from anarx.snapshot import _checksum


def trained_forecaster(weighted=False, learner="adaptive", evolution=None, steps=250):
    rng = np.random.default_rng(0)
    series = SeriesFrame(np.sin(np.arange(300) / 6.0) * 3.0 + rng.normal(0, 0.2, 300) + 8.0)
    cfg = RunConfig(n_nodes=2, h=4, train_len=250, test_len=50,
                    learner=learner, alpha=0.9 if learner != "kwh" else 1.0,
                    weighted=weighted, evolution=evolution)
    work, fc = build_forecaster(series, cfg)
    for k in range(steps):
        fc.step(float(series.values[k]))
    return fc


def _step_with_n(fc, stream):
    """(prediction, pool size after the step) for every value."""
    return [(fc.step(float(v)), fc.model.n) for v in stream]


@pytest.mark.parametrize("weighted,learner,evolution,steps", [
    pytest.param(False, "rls", None, 250, id="False-rls"),
    pytest.param(False, "kwh", None, 250, id="False-kwh"),
    pytest.param(True, "adaptive", None, 250, id="True-adaptive"),
    # saved 78 steps into a refill of the error window; grows at step 41
    pytest.param(True, "adaptive", "auto", 200, id="True-adaptive-auto"),
])
def test_round_trip_identical_predictions(tmp_path, weighted, learner, evolution, steps):
    fc = trained_forecaster(weighted=weighted, learner=learner, evolution=evolution, steps=steps)
    if evolution is not None:
        assert 0 < len(fc.err_window) < fc.err_window.maxlen
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)

    rng = np.random.default_rng(1)
    stream = rng.uniform(5.0, 11.0, 100)
    out1 = _step_with_n(fc, stream)
    out2 = _step_with_n(fc2, stream)
    assert out1 == out2
    if evolution is not None:
        assert len({n for _, n in out1}) > 1


def test_round_trip_preserves_learning_state(tmp_path):
    fc = trained_forecaster(learner="rls")
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)
    a = fc.model.learner
    b = fc2.model.learner
    assert a.w.shape == b.w.shape == (1, 8)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.P, b.P)
    assert a.settings() == b.settings()
    # node views re-established over the restored weight block
    assert all(np.shares_memory(nd.weights, b.w) for nd in fc2.model.nodes)


def test_truncated_file_is_corrupt(tmp_path):
    fc = trained_forecaster()
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    data = path.read_text()
    path.write_text(data[: len(data) // 2])
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


def test_checksum_tamper_detected(tmp_path):
    fc = trained_forecaster()
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    doc = json.loads(path.read_text())
    doc["payload"]["model"]["stacked_state"]["w"][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


def test_version_mismatch(tmp_path):
    fc = trained_forecaster()
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        snapshot_load(path)


def test_foreign_json_rejected(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(VersionMismatch):
        snapshot_load(path)


def test_round_trip_after_structure_changes(tmp_path):
    # grown then pruned pool: learner state was resized twice before saving
    from anarx import OnlineForecaster, build_anarx

    rng = np.random.default_rng(3)
    model = build_anarx(2, 4, 0.0, 1.0, q=2, training="stacked", learner="rls", alpha=0.97)
    for v in rng.uniform(0, 1, 150):
        model.train_step(float(v))
    model.add_node()
    model.add_node()
    for v in rng.uniform(0, 1, 150):
        model.train_step(float(v))
    model.remove_last_node()
    fc = OnlineForecaster(model)
    path = tmp_path / "evolved.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)
    assert fc2.model.n == 3
    stream = rng.uniform(0, 1, 120)
    out1 = [fc.step(float(v)) for v in stream]
    out2 = [fc2.step(float(v)) for v in stream]
    assert out1 == out2


def _tampered_snapshot(tmp_path, weighted, learner, tamper, **kwargs):
    """Save a trained forecaster, tamper with its payload, re-checksum."""
    fc = trained_forecaster(weighted=weighted, learner=learner, **kwargs)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    doc = json.loads(path.read_text())
    tamper(doc["payload"])
    doc["sha256"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    return path


def _drop_last(values):
    del values[-1]


def _shrink_stacked(model):
    # consistent learner state, but one weight short of the pool
    st = model["stacked_state"]
    del st["w"][-1]
    del st["P"][-1]
    for row in st["P"]:
        del row[-1]


def _narrower_grid(model):
    # a valid grid with one basis function fewer than the weights need
    grid = model["grid"]
    grid["h"] -= 1
    del grid["knots"][2]


@pytest.mark.parametrize("weighted,learner,tamper", [
    (True, "adaptive", lambda p: p["combiner"]["c"].append(0.0)),
    (False, "rls", lambda p: p["model"].update(n_nodes=3)),
    (False, "rls", lambda p: _shrink_stacked(p["model"])),
    (False, "rls", lambda p: _drop_last(p["model"]["stacked_state"]["P"])),
    (True, "rls", lambda p: _drop_last(p["model"]["learner_states"][1]["P"])),
    (True, "adaptive", lambda p: _drop_last(p["model"]["learner_states"])),
    (True, "adaptive", lambda p: p["model"]["learner_states"].append(
        p["model"]["learner_states"][0])),
    (True, "kwh", lambda p: _drop_last(p["model"]["learner_states"][0]["w"])),
    (False, "kwh", lambda p: _narrower_grid(p["model"])),
    (False, "kwh", lambda p: p["scale"].append(1.0)),
])
def test_shape_mismatch_with_valid_checksum_is_corrupt(tmp_path, weighted, learner, tamper):
    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


def _nudge_off_diagonal(P):
    # one ulp on one side of the diagonal
    P[0][1] = float(np.nextafter(P[0][1], np.inf))


@pytest.mark.parametrize("weighted,learner,tamper", [
    (False, "rls", lambda p: _nudge_off_diagonal(p["model"]["stacked_state"]["P"])),
    (True, "rls", lambda p: _nudge_off_diagonal(p["model"]["learner_states"][1]["P"])),
])
def test_asymmetric_covariance_with_valid_checksum_is_corrupt(tmp_path, weighted, learner, tamper):
    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


def _learner_states(model):
    """The saved learner rows, whichever key the training wiring uses."""
    return [model["stacked_state"]] if "stacked_state" in model else model["learner_states"]


def _as_kwh(model):
    # a well-formed KWH row in place of the model's own learner kind
    rows = _learner_states(model)
    rows[-1].clear()
    rows[-1].update(kind="kwh", w=[0.5] * 8 if len(rows) == 1 else [0.5] * 4)


def _other_alpha(model):
    _learner_states(model)[-1]["alpha"] = 0.5


@pytest.mark.parametrize("weighted,learner", [(False, "rls"), (True, "adaptive")],
                         ids=["stacked-rls", "independent-adaptive"])
@pytest.mark.parametrize("tamper", [_as_kwh, _other_alpha], ids=["wrong-kind", "wrong-alpha"])
def test_learner_settings_other_than_the_model_are_corrupt(
        tmp_path, capsys, weighted, learner, tamper):
    # the model builds its learner from its own learner/alpha/p0; a saved
    # row that names another kind or alpha would be taken silently
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, weighted, learner, lambda p: tamper(p["model"]))
    with pytest.raises(CorruptSnapshot, match="settings"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    captured = capsys.readouterr()
    assert "integrity: ok" not in captured.out
    assert "learner state" in captured.err


def _assert_two_synapse_version_rejected(path, capsys, version):
    from anarx.cli import main

    with pytest.raises(VersionMismatch, match=f"version {version} uses the two-synapse"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 9
    captured = capsys.readouterr()
    assert "integrity: ok" not in captured.out
    assert "re-run `anarx snapshot save`" in captured.err


def _relabel(path, version, drop_evolution=False):
    doc = json.loads(path.read_text())
    if drop_evolution:
        del doc["payload"]["evolution"]
    doc["version"] = version
    doc["sha256"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("weighted,learner", [(False, "rls"), (True, "adaptive")],
                         ids=["stacked-rls", "independent-adaptive"])
def test_version_2_raises_version_mismatch(tmp_path, capsys, weighted, learner):
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(weighted=weighted, learner=learner), path)
    _relabel(path, 2)
    _assert_two_synapse_version_rejected(path, capsys, 2)


@pytest.mark.parametrize("evolution", [None, "auto"])
def test_version_1_raises_version_mismatch(tmp_path, capsys, evolution):
    # a version-1 file has no evolution block
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(weighted=True, evolution=evolution, steps=200), path)
    _relabel(path, 1, drop_evolution=True)
    _assert_two_synapse_version_rejected(path, capsys, 1)


def test_model_state_holds_one_grid_and_each_weight_once(tmp_path):
    fc = trained_forecaster(weighted=True)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    model = json.loads(path.read_text())["payload"]["model"]
    # the learner states are the only copy of the weights
    assert sorted(model) == sorted([
        "training", "learner", "alpha", "p0", "node_kind", "grid", "n_nodes", "delay_y",
        "learner_states",
    ])
    assert [len(ls["w"]) for ls in model["learner_states"]] == [4, 4]


def test_failed_save_keeps_previous_file(tmp_path):
    fc = trained_forecaster()
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    before = path.read_bytes()
    fc.meta["note"] = object()  # not JSON-serializable: fails partway
    with pytest.raises(TypeError):
        snapshot_save(fc, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    snapshot_load(path)


def test_evolving_round_trip_continues_structure_changes(tmp_path):
    # the load_weighted config with evolution = auto, saved 60 steps in;
    # the continuation prunes at step 101, reading the node contributions
    # of steps 2..101, most of them saved with the snapshot, and later grows
    from anarx.datasets import synthetic_load_series
    from anarx.pipeline import load_config

    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "load_weighted.cfg")
    config.evolution = "auto"
    values = synthetic_load_series(n=config.train_len + config.test_len, seed=7).values
    _, fc = build_forecaster(SeriesFrame(values), config)
    for v in values[:60]:
        fc.step(float(v))
    assert 0 < len(fc.err_window) < fc.err_window.maxlen
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)
    assert fc2.evolution == "auto" and fc2.learned_steps == fc.learned_steps == 60

    out1 = _step_with_n(fc, values[60:2600])
    out2 = _step_with_n(fc2, values[60:2600])
    assert out1 == out2
    ns = [n for _, n in out1]
    assert any(b > a for a, b in zip(ns, ns[1:])) and any(b < a for a, b in zip(ns, ns[1:]))


def _evolving_snapshot(tmp_path, tamper):
    return _tampered_snapshot(tmp_path, True, "adaptive", tamper,
                              evolution="auto", steps=200)


@pytest.mark.parametrize("tamper", [
    # a window longer than the policy window
    lambda e: e["err_window"].extend([0.0] * 100),
    # squared errors that no stream gives
    lambda e: e.update(long_run_sq=float("nan")),
    lambda e: e.update(long_run_sq=float("inf")),
    lambda e: e.update(long_run_sq=-1.0),
    # contribution rows of the wrong width
    lambda e: e["contrib"][0].append(0.0),
    lambda e: _drop_last(e["contrib"][-1]),
    # fewer learned steps than window entries, or not a count
    lambda e: e.update(learned_steps=3),
    lambda e: e.update(learned_steps=300.0),
    # invalid policies
    lambda e: e.update(policy="manual"),
    lambda e: e.update(policy={"window": 100, "add_threshold": 0.01, "remove_threshold": 0.1}),
    lambda e: e.update(policy={"window": 0}),
    lambda e: e.update(policy={"window": 100, "stride": 2}),
    lambda e: e.pop("policy"),
])
def test_malformed_evolution_block_is_corrupt(tmp_path, capsys, tamper):
    from anarx.cli import main

    path = _evolving_snapshot(tmp_path, lambda p: tamper(p["evolution"]))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


def test_missing_evolution_block_in_version_2_is_corrupt(tmp_path):
    path = _evolving_snapshot(tmp_path, lambda p: p.pop("evolution"))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


PROPERTY_SERIES = synthetic_load_series(n=400, seed=7)

# windows of 5-20 learned steps with thresholds that, on this series,
# both grow and prune the pool within a few hundred steps
small_policies = st.builds(
    lambda window, add, remove: EvolutionPolicy(
        window=window, add_threshold=add, remove_threshold=remove, n_max=5),
    st.integers(5, 20), st.floats(0.07, 0.1), st.floats(0.03, 0.045),
)

# learn/frozen blocks, at most 400 steps in all
learn_patterns = st.lists(
    st.tuples(st.sampled_from([True, True, False]), st.integers(1, 80)), min_size=1, max_size=10,
).map(lambda blocks: [learn for learn, size in blocks for _ in range(size)][:400])


def _continue(fc, values, pattern):
    """(prediction, pool size after the step) for every value."""
    return [(fc.step(float(v), learn=learn), fc.model.n) for v, learn in zip(values, pattern)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weighted=st.booleans(), evolution=st.one_of(st.just("auto"), small_policies),
       pattern=learn_patterns, data=st.data())
def test_evolving_round_trip_property(tmp_path, weighted, evolution, pattern, data):
    save_at = data.draw(st.integers(0, len(pattern)), label="save_at")
    values = PROPERTY_SERIES.values
    cfg = RunConfig(n_nodes=2, h=6, train_len=300, test_len=100, learner="adaptive",
                    alpha=0.9, weighted=weighted, evolution=evolution)
    _, fc = build_forecaster(PROPERTY_SERIES, cfg)
    _continue(fc, values[:save_at], pattern[:save_at])
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)

    rest = (values[save_at : len(pattern)], pattern[save_at:])
    assert _continue(fc, *rest) == _continue(fc2, *rest)
    if weighted:
        assert fc.combiner.c.tolist() == fc2.combiner.c.tolist()
    assert list(fc.err_window) == list(fc2.err_window)
    assert list(fc.contrib_window) == list(fc2.contrib_window)
    assert (fc.long_run_sq, fc.learned_steps) == (fc2.long_run_sq, fc2.learned_steps)
