import copy
import hashlib
import json
import pickle
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anarx import (
    EvolutionPolicy,
    KnotGrid,
    OnlineForecaster,
    RunConfig,
    SeriesFrame,
    snapshot_load,
    snapshot_save,
)
from anarx.datasets import synthetic_load_series
from anarx.errors import (
    AnarxError,
    CorruptSnapshot,
    DegenerateActivation,
    ParseError,
    VersionMismatch,
)
from anarx.learning import packed
from anarx.pipeline import build_forecaster, run_experiment
from anarx.snapshot import _encode
from conftest import assert_one_weight_block, unpacked


def trained_forecaster(weighted=False, learner="adaptive", evolution=None, steps=250,
                       node_kind="neo_fuzzy"):
    rng = np.random.default_rng(0)
    series = SeriesFrame(np.sin(np.arange(300) / 6.0) * 3.0 + rng.normal(0, 0.2, 300) + 8.0)
    cfg = RunConfig(n_nodes=2, h=4, train_len=250, test_len=50,
                    learner=learner, alpha=0.9 if learner != "kwh" else 1.0,
                    weighted=weighted, evolution=evolution, node_kind=node_kind)
    work, fc = build_forecaster(series, cfg)
    for k in range(steps):
        fc.step(float(series.values[k]))
    return fc


def _step_with_n(fc, stream):
    """(prediction, pool size after the step) for every value up to the
    first typed error, and that error's class and message (None if the
    stream ran through)."""
    out = []
    for v in stream:
        try:
            out.append((fc.step(float(v)), fc.model.n))
        except AnarxError as exc:
            return out, (type(exc).__name__, str(exc))
    return out, None


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
    # the live and the loaded forecaster predict alike and, where the
    # stream winds a pool up (RLS at alpha 0.9), fail at the same step
    # with the same error
    assert out1 == out2
    if evolution is not None:
        assert len({n for _, n in out1[0]}) > 1


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
    # W is a view of the restored weight block, which the output reads
    assert_one_weight_block(fc2.model)


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


def test_header_without_a_payload_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(), path)
    doc = json.loads(path.read_text())
    del doc["payload"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot, match="missing payload or checksum$"):
        snapshot_load(path)


def test_save_whose_rename_fails_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("anarx.snapshot.os.replace", fail)
    with pytest.raises(OSError, match="^rename failed$"):
        snapshot_save(trained_forecaster(steps=100), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


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
    # re-signing the payload as read writes the saved file again, so a
    # load fails on the tamper, not on the signature
    assert _encode(doc["payload"]) == path.read_bytes()
    tamper(doc["payload"])
    path.write_bytes(_encode(doc["payload"]))
    return path


def _drop_last(values):
    del values[-1]


def _shrink_stacked(model):
    # consistent learner state, but one weight short of the pool
    st = model["stacked_state"]
    del st["w"][-1]
    P = unpacked(st["P"])
    del P[-1]
    for row in P:
        del row[-1]
    st["P"] = packed(np.array(P)).tolist()


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
    # the saved knots of the narrower grid match its four numbers, so
    # the weights' shape is what rejects it
    (False, "kwh", lambda p: p["model"].update(grid=KnotGrid(0.0, 1.0, 3, 2).to_dict())),
])
def test_shape_mismatch_with_valid_checksum_is_corrupt(tmp_path, weighted, learner, tamper):
    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_delay_value_that_is_not_finite_is_corrupt(tmp_path, capsys, value):
    # a forecaster's step takes in no value that is not finite, so no
    # saved one holds it; loaded, it would fail at the first step
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, False, "adaptive",
                              lambda p: p["model"]["delay_y"].__setitem__(0, value), steps=50)
    with pytest.raises(CorruptSnapshot, match="delay values must be finite"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


@pytest.mark.parametrize("lag", [0, 1])
def test_delay_value_no_node_can_fuzzify_is_corrupt(tmp_path, capsys, lag):
    # 1e9 underflows every Wang-Mendel rule, so no step takes it in;
    # loaded, the model fuzzifies its delay line again and fails
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, False, "adaptive",
                              lambda p: p["model"]["delay_y"].__setitem__(lag, 1e9),
                              steps=50, node_kind="wang_mendel")
    with pytest.raises(CorruptSnapshot, match="underflowed at 1000000000.0"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


def test_gaussian_center_that_is_not_finite_is_corrupt(tmp_path, capsys):
    # NaN passes the grid's ordering check; loaded, the grid would fail
    # only at the first step
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, False, "adaptive",
                              lambda p: p["model"]["grid"]["centers"].__setitem__(1, float("nan")),
                              steps=50, node_kind="wang_mendel")
    with pytest.raises(CorruptSnapshot, match="centers must be finite numbers"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda P: P.append(0.0), id="one-entry-long"),
    pytest.param(_drop_last, id="one-entry-short"),
    pytest.param(lambda P: P.__setitem__(slice(None), unpacked(P)), id="whole-matrix"),
    pytest.param(lambda P: P.__setitem__(5, float("nan")), id="nan"),
])
def test_packed_covariance_of_the_wrong_length_or_not_finite_is_corrupt(tmp_path, tamper):
    path = _tampered_snapshot(tmp_path, False, "rls",
                              lambda p: tamper(p["model"]["stacked_state"]["P"]))
    with pytest.raises(CorruptSnapshot, match="covariance must"):
        snapshot_load(path)


def _set(obj, key, value):
    obj[key] = value


NAN, INF = float("nan"), float("inf")


def _infinite_prior(payload):
    payload["model"]["p0"] = INF
    payload["model"]["stacked_state"]["p0"] = INF


@pytest.mark.parametrize("weighted,learner,tamper", [
    # a zero-width scale divides by zero at the first step, an infinite
    # one predicts +-inf
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [1.0, 1.0]), id="scale-zero-width"),
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [0.0, INF]), id="scale-inf"),
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [2.0, 1.0]), id="scale-reversed"),
    # NaN weights, a NaN c and an infinite lam would make the first step
    # raise NumericalDivergence, an infinite r would freeze its row, and
    # no step makes r negative
    pytest.param(False, "rls", lambda p: _set(p["model"]["stacked_state"]["w"], 0, NAN),
                 id="rls-w-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_states"][1]["w"], 2, NAN),
                 id="adaptive-w-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["combiner"]["c"], 0, NAN),
                 id="combiner-c-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["combiner"], "lam", INF),
                 id="combiner-lam-inf"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_states"][0], "r", INF),
                 id="adaptive-r-inf"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_states"][0], "r", -1.0),
                 id="adaptive-r-negative"),
    # an infinite RLS prior is the covariance of every node the pool
    # grows, whose first step then raises NumericalDivergence
    pytest.param(False, "rls", _infinite_prior, id="rls-p0-inf"),
])
def test_state_that_could_only_fail_later_is_corrupt(tmp_path, weighted, learner, tamper):
    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)


def _lo_infinite(grid):
    grid["lo"] = -INF
    grid["knots"][0] = -INF


@pytest.mark.parametrize("weighted,learner,tamper", [
    # a NaN knot breaks the unity partition of the inputs near it; an
    # infinite bound with the knot at that end to match shifts every
    # prediction
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["grid"]["knots"], 3, NAN),
                 id="knot-nan"),
    pytest.param(True, "adaptive", lambda p: _lo_infinite(p["model"]["grid"]), id="lo-infinite"),
    pytest.param(False, "rls", _infinite_prior, id="rls-p0-inf"),
])
def test_grid_or_prior_no_run_builds_is_corrupt(tmp_path, capsys, weighted, learner, tamper):
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


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


def _assert_rejected_with_the_remedy(path, capsys, version):
    from anarx.cli import main

    with pytest.raises(VersionMismatch, match=f"version {version} cannot be loaded"):
        snapshot_load(path)
    for command in (["snapshot", "show"], ["predict"]):
        assert main([*command, "--snapshot", str(path)]) == 9
        captured = capsys.readouterr()
        assert "integrity: ok" not in captured.out
        assert "re-run `anarx snapshot save` to write version 4" in captured.err


def _checksum(payload):
    """The digest versions 1-3 stored: SHA-256 of the canonical
    re-encoding of the parsed payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(body).hexdigest()


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
    _assert_rejected_with_the_remedy(path, capsys, 2)


@pytest.mark.parametrize("evolution", [None, "auto"])
def test_version_1_raises_version_mismatch(tmp_path, capsys, evolution):
    # a version-1 file has no evolution block
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(weighted=True, evolution=evolution, steps=200), path)
    _relabel(path, 1, drop_evolution=True)
    _assert_rejected_with_the_remedy(path, capsys, 1)


REFERENCE = Path(__file__).resolve().parent / "reference"


@pytest.mark.parametrize("name", ["stacked_rls", "weighted_adaptive"])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_version_before_4_exits_9_with_the_remedy(tmp_path, capsys, version, name):
    # the committed files were written by the version-3 snapshot_save
    # (commit 7bd67c5) 150 steps into synthetic_load_series(n=400,
    # seed=7): stacked RLS at n = 2, h = 4, alpha = 0.99, and weighted
    # independent adaptive at n = 3, h = 5, alpha = 0.9 with evolution
    # "auto"; relabelled, they stand for versions 1 and 2
    path = tmp_path / "model.json"
    path.write_bytes((REFERENCE / f"snapshot_v3_{name}.json").read_bytes())
    if version != 3:
        _relabel(path, version, drop_evolution=version == 1)
    _assert_rejected_with_the_remedy(path, capsys, version)


def test_model_state_holds_one_grid_and_each_weight_once(tmp_path):
    fc = trained_forecaster(weighted=True)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    model = json.loads(path.read_text())["payload"]["model"]
    # the learner states are the only copy of the weights
    assert sorted(model) == sorted([
        "training", "learner", "alpha", "p0", "node_kind", "grid", "n_nodes", "delay_y",
        "delay_capacity", "learner_states",
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
    assert out1 == out2 and out1[1] is None
    ns = [n for _, n in out1[0]]
    assert any(b > a for a, b in zip(ns, ns[1:])) and any(b < a for a, b in zip(ns, ns[1:]))


def _policy(**fields):
    """The saved fields of a fixed policy whose window holds the error
    window of :func:`_evolving_snapshot`, with ``fields`` replaced."""
    return {**vars(EvolutionPolicy(window=100)), **fields}


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
    # windows of different lengths, which the forecaster fills and clears
    # together
    lambda e: e.update(contrib=e["contrib"][:3]),
    # a fixed policy saves its thresholds as numbers and its window and
    # node bounds as integers; a bool or a float count passes the policy's
    # own comparisons
    lambda e: e.update(policy=_policy(add_threshold=True, remove_threshold=False, n_max=10.0)),
    lambda e: e.update(policy=_policy(n_max=4.0)),
    lambda e: e.update(policy=_policy(n_min=True)),
    lambda e: e.update(policy=_policy(window=100.0)),
    lambda e: e.update(policy=_policy(add_threshold="0.06")),
    lambda e: e.update(policy=_policy(remove_threshold=None)),
])
def test_malformed_evolution_block_is_corrupt(tmp_path, capsys, tamper):
    from anarx.cli import main

    path = _evolving_snapshot(tmp_path, lambda p: tamper(p["evolution"]))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


def test_policy_round_trips_through_its_fields(tmp_path):
    assert EvolutionPolicy.from_state(vars(BENCH_POLICY).copy()) == BENCH_POLICY
    # the untampered fields of the malformed-policy cases load
    path = _evolving_snapshot(tmp_path, lambda p: p["evolution"].update(policy=_policy()))
    assert snapshot_load(path).evolution == EvolutionPolicy(window=100)
    with pytest.raises(CorruptSnapshot, match="policy's fields"):
        EvolutionPolicy.from_state({k: v for k, v in vars(BENCH_POLICY).items() if k != "n_min"})


def test_saved_and_rebuilt_states_share_no_meta():
    # as a deepcopy or a snapshot round trip shares none
    fc = trained_forecaster(weighted=True)
    state = fc.state_dict()
    twins = [OnlineForecaster.from_state(state) for _ in range(2)]
    for meta in [state["meta"], *(twin.meta for twin in twins)]:
        assert meta == fc.meta and fc.meta["config"]
        assert meta is not fc.meta and meta["config"] is not fc.meta["config"]
    assert twins[0].meta["config"] is not twins[1].meta["config"]


def _window_as_string(evolution):
    evolution.update(err_window="0", contrib=evolution["contrib"][-1:])


@pytest.mark.parametrize("tamper", [
    # each would load as numbers: "12" as the delay values [1.0, 2.0],
    # "0" as a window of one error, and a "0" in place of one number as 0.0
    pytest.param(lambda p: _set(p["model"], "delay_y", "12"), id="delay_y"),
    pytest.param(lambda p: _window_as_string(p["evolution"]), id="err_window"),
    pytest.param(lambda p: _set(p["combiner"], "lam", "0"), id="lam"),
    pytest.param(lambda p: _set(p["model"]["learner_states"][0], "r", "0"), id="r"),
    pytest.param(lambda p: _set(p["evolution"], "long_run_sq", "0"), id="long_run_sq"),
    pytest.param(lambda p: _set(p["scale"], 0, "0"), id="scale"),
])
def test_number_that_is_not_a_json_number_is_corrupt(tmp_path, capsys, tamper):
    # no forecaster saves a string, or a bool, where its state holds a
    # number, nor anything but a list where it holds a list
    from anarx.cli import main

    path = _evolving_snapshot(tmp_path, tamper)
    with pytest.raises(CorruptSnapshot, match="must be (a finite number|finite numbers in a list)"):
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


def _arrays(obj, found=None, seen=None) -> list:
    """Every numpy array reachable from ``obj`` through attributes and
    containers."""
    if found is None:
        found, seen = [], set()
    if id(obj) in seen:
        return found
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            _arrays(value, found, seen)
    elif isinstance(obj, (list, tuple, deque)):
        for value in obj:
            _arrays(value, found, seen)
    elif hasattr(obj, "__dict__"):
        _arrays(vars(obj), found, seen)
    return found


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda fc: pickle.loads(pickle.dumps(fc))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("weighted,learner,n_nodes,h", [
    (False, "rls", 10, 20),
    (True, "rls", 2, 8),
    (True, "adaptive", 3, 8),
    (False, "kwh", 2, 8),
])
def test_copy_shares_no_memory_and_continues_bit_identically(copy_of, weighted, learner,
                                                             n_nodes, h):
    series = synthetic_load_series(n=400, seed=3)
    cfg = RunConfig(n_nodes=n_nodes, h=h, train_len=300, test_len=100, learner=learner,
                    alpha=0.9 if learner == "adaptive" else 1.0, weighted=weighted)
    _, fc = build_forecaster(series, cfg)
    values = series.values.tolist()
    for v in values[:45]:
        fc.step(v)
    if learner == "rls":
        # the copy is taken with gains pending
        assert fc.model.learner.pending > 0
    twin = copy_of(fc)
    assert not any(np.shares_memory(a, b) for a in _arrays(fc) for b in _arrays(twin))
    rest = values[45:]
    assert [twin.step(v) for v in rest] == [fc.step(v) for v in rest]
    assert twin.model.state_dict() == fc.model.state_dict()


# the fixed policy of scripts/bench.py, which grows and prunes the pool
BENCH_POLICY = EvolutionPolicy(window=50, add_threshold=0.06, remove_threshold=0.03, n_max=4)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(learner=st.sampled_from(["adaptive", "kwh", "rls"]), weighted=st.booleans(),
       evolution=st.sampled_from([None, "auto", BENCH_POLICY]), prefix=st.integers(0, 360))
def test_every_copy_continues_as_the_original_property(tmp_path, learner, weighted, evolution,
                                                       prefix):
    # a deepcopy, a rebuild from the state and a snapshot round trip each
    # predict the next 40 values as the original does, structure changes
    # and errors included
    values = PROPERTY_SERIES.values.tolist()
    cfg = RunConfig(n_nodes=2, h=6, train_len=300, test_len=100, learner=learner,
                    alpha=0.9 if learner == "adaptive" else 1.0, weighted=weighted,
                    evolution=evolution)
    _, fc = build_forecaster(PROPERTY_SERIES, cfg)
    for v in values[:prefix]:
        fc.step(v)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    copies = [copy.deepcopy(fc), OnlineForecaster.from_state(fc.state_dict()), snapshot_load(path)]
    rest = values[prefix:prefix + 40]
    want = _step_with_n(fc, rest)
    for twin in copies:
        assert _step_with_n(twin, rest) == want


def test_report_copies_with_its_forecaster():
    series = synthetic_load_series(n=300, seed=3)
    report = run_experiment(series, RunConfig(n_nodes=2, h=8, train_len=200, test_len=100,
                                              learner="rls", weighted=True))
    twin = copy.deepcopy(report)
    assert twin.forecaster.model.state_dict() == report.forecaster.model.state_dict()
    assert twin.forecaster.model.learner.P is not report.forecaster.model.learner.P


def test_file_is_the_header_the_payload_bytes_and_a_newline(tmp_path):
    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(learner="rls"), path)
    data = path.read_bytes()
    doc = json.loads(data)
    head = b'{"format":"anarx-snapshot","version":4,"sha256":"%s","payload":' % (
        doc["sha256"].encode())
    assert data.startswith(head) and data.endswith(b"}\n")
    body = data[len(head):-2]
    assert hashlib.sha256(body).hexdigest() == doc["sha256"]
    assert body == json.dumps(doc["payload"], sort_keys=True, separators=(",", ":")).encode()
    # P of the 8 weights is stored as its upper triangle, each entry once
    assert len(doc["payload"]["model"]["stacked_state"]["P"]) == 8 * 9 // 2


def _flip_a_payload_digit(data: bytes) -> bytes:
    # a digit of the last number in the payload, so the file still parses
    at = data.rindex(b'"meta"') - 2
    while not data[at:at + 1].isdigit():
        at -= 1
    digit = b"1" if data[at:at + 1] != b"1" else b"2"
    return data[:at] + digit + data[at + 1:]


@pytest.mark.parametrize("rewrite", [
    pytest.param(_flip_a_payload_digit, id="one-payload-byte"),
    # the same values, encoded another way: the checksum covers the bytes
    pytest.param(lambda data: (json.dumps(json.loads(data), indent=1) + "\n").encode(),
                 id="pretty-printed"),
    pytest.param(lambda data: json.dumps(json.loads(data)).encode(), id="re-dumped"),
    pytest.param(lambda data: data.replace(b'"payload":', b'"payload": ', 1), id="one-space"),
    pytest.param(lambda data: data[:-1], id="no-final-newline"),
])
def test_changed_bytes_fail_the_checksum(tmp_path, capsys, rewrite):
    from anarx.cli import main

    path = tmp_path / "model.json"
    snapshot_save(trained_forecaster(weighted=True), path)
    data = path.read_bytes()
    changed = rewrite(data)
    assert changed != data
    json.loads(changed)  # still a snapshot document
    path.write_bytes(changed)
    with pytest.raises(CorruptSnapshot, match="checksum mismatch"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
def test_combiner_rate_that_is_not_positive_and_finite_is_corrupt(tmp_path, capsys, value):
    # a NaN or infinite eta_lambda would make lam, and then the
    # prediction, NaN at the first degenerate or learned step
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, True, "adaptive",
                              lambda p: p["combiner"].__setitem__("eta_lambda", value), steps=50)
    # the reader of saved numbers rejects NaN and inf, the combiner the rest
    with pytest.raises(CorruptSnapshot,
                       match="eta_lambda must be (a finite number|positive and finite)"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


# the (training, weighted) pairings a run config accepts: plain
# independent training is rejected
PAIRINGS = [("stacked", False), ("stacked", True), ("independent", True)]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(learner=st.sampled_from(["rls", "kwh", "adaptive"]), pairing=st.sampled_from(PAIRINGS),
       n_nodes=st.integers(1, 3), steps=st.integers(0, 120))
def test_round_trip_property(tmp_path, learner, pairing, n_nodes, steps):
    training, weighted = pairing
    values = PROPERTY_SERIES.values.tolist()
    cfg = RunConfig(n_nodes=n_nodes, h=5, train_len=300, test_len=100, learner=learner,
                    training=training, alpha=0.9 if learner == "adaptive" else 1.0,
                    weighted=weighted)
    _, fc = build_forecaster(PROPERTY_SERIES, cfg)
    for v in values[:steps]:
        fc.step(v)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)
    rest = values[steps:steps + 60]
    assert [fc2.step(v) for v in rest] == [fc.step(v) for v in rest]
    assert fc2.model.state_dict() == fc.model.state_dict()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(node_kind=st.sampled_from(["neo_fuzzy", "wang_mendel"]),
       learner=st.sampled_from(["rls", "kwh", "adaptive"]), pairing=st.sampled_from(PAIRINGS),
       learn=st.booleans(), steps=st.integers(0, 40), data=st.data())
def test_rejected_value_moves_no_state_property(tmp_path, node_kind, learner, pairing, learn,
                                                steps, data):
    # a step that raises a typed error moves no state: the forecaster
    # saves the same bytes, and goes on as a twin that never saw the
    # value. Every Wang-Mendel rule underflows at +-1e9; a neo-fuzzy grid
    # clamps it. Both are saved at the same step, since a save folds
    # pending RLS gains.
    training, weighted = pairing
    bad = [NAN, INF, -INF] + ([1e9, -1e9] if node_kind == "wang_mendel" else [])
    value = data.draw(st.sampled_from(bad), label="value")
    error = DegenerateActivation if np.isfinite(value) else ParseError
    values = PROPERTY_SERIES.values.tolist()
    cfg = RunConfig(n_nodes=2, h=5, train_len=300, test_len=100, node_kind=node_kind,
                    learner=learner, training=training,
                    alpha=0.9 if learner == "adaptive" else 1.0, weighted=weighted)
    fc, twin = (build_forecaster(PROPERTY_SERIES, cfg)[1] for _ in range(2))
    for v in values[:steps]:
        fc.step(v)
        twin.step(v)
    saved, twin_saved = tmp_path / "model.json", tmp_path / "twin.json"
    snapshot_save(fc, saved)
    snapshot_save(twin, twin_saved)
    before = saved.read_bytes()
    with pytest.raises(error):
        fc.step(value, learn=learn)
    snapshot_save(fc, saved)
    assert saved.read_bytes() == before == twin_saved.read_bytes()
    assert fc.skipped_updates == twin.skipped_updates
    assert fc.degenerate_steps == twin.degenerate_steps
    rest = values[steps:steps + 40]
    assert [fc.step(v) for v in rest] == [twin.step(v) for v in rest]


def _number_paths(node, path=()):
    """The path of every number and count in a saved state: each int or
    float leaf, a bool being neither."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _number_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _number_paths(value, path + (i,))]
    return [path] if type(node) in (int, float) else []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(learner=st.sampled_from(["rls", "kwh", "adaptive"]), weighted=st.booleans(),
       evolution=st.sampled_from([None, "auto", BENCH_POLICY]),
       node_kind=st.sampled_from(["neo_fuzzy", "wang_mendel"]),
       value=st.sampled_from([NAN, INF, -INF, 10**400]), data=st.data())
def test_saved_number_that_is_not_finite_or_too_large_is_corrupt_property(
        tmp_path, learner, weighted, evolution, node_kind, value, data):
    # no forecaster saves NaN, an infinity or an int no float or index can
    # hold, in place of any number or count of its state; its meta is not
    # read back
    fc = trained_forecaster(weighted=weighted, learner=learner, evolution=evolution, steps=60,
                            node_kind=node_kind)
    payload = json.loads(json.dumps(fc.state_dict()))
    paths = [p for p in _number_paths(payload) if p[0] != "meta"]
    *parents, key = data.draw(st.sampled_from(paths), label="path")
    node = payload
    for part in parents:
        node = node[part]
    node[key] = value
    with pytest.raises(CorruptSnapshot):
        OnlineForecaster.from_state(copy.deepcopy(payload))
    path = tmp_path / "model.json"
    path.write_bytes(_encode(payload))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
