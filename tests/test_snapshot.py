import copy
import hashlib
import importlib.util
import json
import pickle
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anarx import (
    CombinerState,
    EvolutionPolicy,
    KnotGrid,
    OnlineForecaster,
    RunConfig,
    SeriesFrame,
    build_anarx,
    snapshot_load,
    snapshot_save,
)
from anarx.datasets import synthetic_load_series
from anarx.errors import (
    AnarxError,
    CorruptSnapshot,
    DimensionMismatch,
    NumericalDivergence,
    ParseError,
    VersionMismatch,
)
from anarx.learning import FOLD_RANK, packed
from anarx.pipeline import build_forecaster, run_experiment
from anarx.snapshot import _encode, _header
from conftest import assert_one_weight_block, unpacked


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
    assert (a.kind, a.alpha, a.p0) == (b.kind, b.alpha, b.p0)
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
    doc["payload"]["model"]["learner_state"]["w"][0][0] += 1.0
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


def _signed(payload):
    """The file of ``payload``, framed and checksummed as a save frames
    it, but taking the NaN and infinities a save refuses: a forged file
    for a load to reject."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    return _header(hashlib.sha256(body).hexdigest()) + body + b"}\n"


def _tampered_snapshot(tmp_path, weighted, learner, tamper, **kwargs):
    """Save a trained forecaster, tamper with its payload, re-checksum."""
    fc = trained_forecaster(weighted=weighted, learner=learner, **kwargs)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    doc = json.loads(path.read_text())
    # re-signing the payload as read writes the saved file again, so a
    # load fails on the tamper, not on the signature
    assert _signed(doc["payload"]) == _encode(doc["payload"]) == path.read_bytes()
    tamper(doc["payload"])
    path.write_bytes(_signed(doc["payload"]))
    return path


def _drop_last(values):
    del values[-1]


def _shrink_stacked(model):
    # consistent learner state, but one weight short of the pool
    st = model["learner_state"]
    cols = len(st["w"][0])
    del st["w"][0][-1]
    P = unpacked(st["P"][0])
    del P[-1]
    for row in P:
        del row[-1]
    st["P"] = [packed(np.array(P)).tolist()]
    st["U"] = [np.reshape(st["U"][0], (-1, cols))[:, :-1].ravel().tolist()]


def _two_stacked_rows(block):
    # a stacked block of two rows, each row's state doubled
    for value in block.values():
        if isinstance(value, list):
            value.append(value[0])


def _narrower_grid(model):
    # a valid grid with one basis function fewer than the weights need
    grid = model["grid"]
    grid["h"] -= 1
    del grid["knots"][2]


@pytest.mark.parametrize("weighted,learner,tamper", [
    (True, "adaptive", lambda p: p["combiner"]["c"].append(0.0)),
    (False, "rls", lambda p: _two_stacked_rows(p["model"]["learner_state"])),
    (False, "rls", lambda p: _shrink_stacked(p["model"])),
    (False, "rls", lambda p: _drop_last(p["model"]["learner_state"]["P"][0])),
    (True, "rls", lambda p: _drop_last(p["model"]["learner_state"]["P"][1])),
    (True, "adaptive", lambda p: _drop_last(p["model"]["learner_state"]["w"])),
    (True, "adaptive", lambda p: p["model"]["learner_state"]["w"].append(
        p["model"]["learner_state"]["w"][0])),
    (True, "kwh", lambda p: _drop_last(p["model"]["learner_state"]["w"][0])),
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


def _wang_mendel(model):
    # the node kind and Gaussian grid a Wang-Mendel pool saved
    model["node_kind"] = "wang_mendel"
    model["grid"] = {"centers": [0.0, 1 / 3, 2 / 3, 1.0], "widths": [1 / 3] * 4}


@pytest.mark.parametrize("tamper", [
    pytest.param(_wang_mendel, id="wang-mendel"),
    pytest.param(lambda model: model.update(node_kind="wang_mendel"), id="kind-only"),
])
def test_snapshot_of_a_wang_mendel_pool_is_corrupt(tmp_path, capsys, tamper):
    # a pool is neo-fuzzy nodes only, and no save of this format writes
    # another kind: such a file is corrupt (exit 10), not of another
    # version (exit 9), and the message names the kind
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, False, "adaptive", lambda p: tamper(p["model"]),
                              steps=50)
    with pytest.raises(CorruptSnapshot, match="node kind 'wang_mendel' is not neo_fuzzy"):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    captured = capsys.readouterr()
    assert "integrity: ok" not in captured.out
    assert "'wang_mendel'" in captured.err


def test_forged_rls_width_is_rejected_before_its_covariance_is_built(tmp_path, capsys):
    # a stacked row of 4,000 zeros fixes a pool of 1,000 nodes at h = 4,
    # whose RLS block would take 4,000 x 4,032 floats (129 MB); the saved
    # P and U are the trained pool's, so the learner kind's length check
    # rejects the state before the block is allocated
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, False, "rls",
                              lambda p: _set(p["model"]["learner_state"], "w", [[0.0] * 4000]),
                              steps=50)
    payload = json.loads(path.read_text())["payload"]
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="covariance must be"):
            OnlineForecaster.from_state(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "covariance must be" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda P: P.append(0.0), id="one-entry-long"),
    pytest.param(_drop_last, id="one-entry-short"),
    pytest.param(lambda P: P.__setitem__(slice(None), unpacked(P)), id="whole-matrix"),
    pytest.param(lambda P: P.__setitem__(5, float("nan")), id="nan"),
])
def test_packed_covariance_of_the_wrong_length_or_not_finite_is_corrupt(tmp_path, tamper):
    path = _tampered_snapshot(tmp_path, False, "rls",
                              lambda p: tamper(p["model"]["learner_state"]["P"][0]))
    with pytest.raises(CorruptSnapshot, match="covariance must"):
        snapshot_load(path)


@pytest.mark.parametrize("weighted,tamper", [
    pytest.param(False, lambda b: b.update(pending=FOLD_RANK), id="count-at-fold-rank"),
    pytest.param(False, lambda b: b.update(pending=-1), id="count-negative"),
    pytest.param(False, lambda b: b.update(pending=b["pending"] + 1), id="count-above-the-gains"),
    pytest.param(False, lambda b: _drop_last(b["U"][0]), id="gains-one-number-short"),
    pytest.param(True, lambda b: _drop_last(b["U"]), id="gains-of-one-row-fewer"),
    pytest.param(False, lambda b: b["U"][0].__setitem__(0, [0.0]), id="gain-not-a-number"),
])
def test_pending_gains_of_another_count_or_shape_are_corrupt(tmp_path, weighted, tamper):
    # a live learner folds at FOLD_RANK pending gains, and each row holds
    # the count's gains of one row's width
    path = _tampered_snapshot(tmp_path, weighted, "rls",
                              lambda p: tamper(p["model"]["learner_state"]))
    with pytest.raises(CorruptSnapshot, match="pending gain"):
        snapshot_load(path)


def _set(obj, key, value):
    obj[key] = value


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("weighted,learner,tamper", [
    # a zero-width scale divides by zero at the first step, an infinite
    # one predicts +-inf
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [1.0, 1.0]), id="scale-zero-width"),
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [0.0, INF]), id="scale-inf"),
    pytest.param(False, "kwh", lambda p: _set(p, "scale", [2.0, 1.0]), id="scale-reversed"),
    # NaN weights, a NaN c and an infinite lam would make the first step
    # raise NumericalDivergence, an infinite r would freeze its row, and
    # no step makes r negative
    pytest.param(False, "rls", lambda p: _set(p["model"]["learner_state"]["w"][0], 0, NAN),
                 id="rls-w-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_state"]["w"][1], 2, NAN),
                 id="adaptive-w-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["combiner"]["c"], 0, NAN),
                 id="combiner-c-nan"),
    pytest.param(True, "adaptive", lambda p: _set(p["combiner"], "lam", INF),
                 id="combiner-lam-inf"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_state"]["r"], 0, INF),
                 id="adaptive-r-inf"),
    pytest.param(True, "adaptive", lambda p: _set(p["model"]["learner_state"]["r"], 0, -1.0),
                 id="adaptive-r-negative"),
    # an infinite RLS prior is the covariance of every node the pool
    # grows, whose first step then raises NumericalDivergence
    pytest.param(False, "rls", lambda p: _set(p["model"], "p0", INF), id="rls-p0-inf"),
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
    pytest.param(False, "rls", lambda p: _set(p["model"], "p0", INF), id="rls-p0-inf"),
])
def test_grid_or_prior_no_run_builds_is_corrupt(tmp_path, capsys, weighted, learner, tamper):
    from anarx.cli import main

    path = _tampered_snapshot(tmp_path, weighted, learner, tamper)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
    assert main(["snapshot", "show", "--snapshot", str(path)]) == 10
    assert "integrity: ok" not in capsys.readouterr().out


def _assert_rejected_with_the_remedy(path, capsys, version):
    from anarx.cli import main

    with pytest.raises(VersionMismatch, match=f"version {version} cannot be loaded"):
        snapshot_load(path)
    for command in (["snapshot", "show"], ["predict"]):
        assert main([*command, "--snapshot", str(path)]) == 9
        captured = capsys.readouterr()
        assert "integrity: ok" not in captured.out
        assert "re-run `anarx snapshot save` to write version 6" in captured.err


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


# the runs of the committed files: 150 steps into
# synthetic_load_series(n=400, seed=7), stacked RLS at n = 2, h = 4,
# alpha = 0.99, and weighted independent adaptive at n = 3, h = 5,
# alpha = 0.9 with evolution "auto"
SAVED_RUNS = {
    "stacked_rls": RunConfig(n_nodes=2, h=4, train_len=300, test_len=100, learner="rls",
                             alpha=0.99),
    "weighted_adaptive": RunConfig(n_nodes=3, h=5, train_len=300, test_len=100,
                                   learner="adaptive", alpha=0.9, weighted=True,
                                   training="independent", evolution="auto"),
}


@pytest.mark.parametrize("version,name", [
    *[(version, name) for version in (1, 2, 3) for name in ("stacked_rls", "weighted_adaptive")],
    (4, "weighted_adaptive"),
    (5, "stacked_rls"),
])
def test_version_before_6_exits_9_with_the_remedy(tmp_path, capsys, version, name):
    # the committed version-3 files were written by the version-3
    # snapshot_save (commit 7bd67c5) on the runs of SAVED_RUNS;
    # relabelled, they stand for versions 1 and 2. The version-4 file is
    # the weighted adaptive run again, written by the version-4
    # snapshot_save (commit e69350b), and the version-5 file the stacked
    # RLS run, written by the version-5 snapshot_save (commit 2064277).
    path = tmp_path / "model.json"
    path.write_bytes((REFERENCE / f"snapshot_v{max(version, 3)}_{name}.json").read_bytes())
    if version < 3:
        _relabel(path, version, drop_evolution=version == 1)
    _assert_rejected_with_the_remedy(path, capsys, version)


def _migration():
    """``scripts/migrate_snapshot.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "migrate_snapshot", REFERENCE.parent.parent / "scripts" / "migrate_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("version,name", [(4, "weighted_adaptive"), (5, "stacked_rls")])
def test_version_4_and_5_files_convert_and_continue_as_their_runs(tmp_path, version, name):
    # the conversion of scripts/migrate_snapshot.py: the rows become the
    # block and the node count goes; the converted file continues as the
    # run that saved the old one did after that save, and that save
    # folded the pending RLS gains
    old, new = REFERENCE / f"snapshot_v{version}_{name}.json", tmp_path / "model.json"
    assert _migration().main([str(old), str(new)]) == 0
    migrated = snapshot_load(new)
    _, fc = build_forecaster(PROPERTY_SERIES, SAVED_RUNS[name])
    values = PROPERTY_SERIES.values.tolist()
    for v in values[:150]:
        fc.step(v)
    if name == "stacked_rls":
        assert fc.model.learner.pending > 0
        fc.model.learner._fold_pending()
    assert migrated.state_dict() == fc.state_dict()
    assert _step_with_n(migrated, values[150:]) == _step_with_n(fc, values[150:])


def test_conversion_takes_only_a_checked_file_of_version_4_or_5(tmp_path, capsys):
    migration = _migration()
    data = (REFERENCE / "snapshot_v5_stacked_rls.json").read_bytes()
    for bad in (data.replace(b'"version":5', b'"version":3'), data.replace(b"0.99", b"0.98", 1)):
        with pytest.raises(ValueError):
            migration.migrate(bad)
    (tmp_path / "old.json").write_bytes(data[:-1])
    assert migration.main([str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 1
    assert "checksum mismatch" in capsys.readouterr().err
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("weighted,learner", [(True, "adaptive"), (False, "rls")])
def test_model_state_holds_one_grid_and_each_weight_once(tmp_path, weighted, learner):
    fc = trained_forecaster(weighted=weighted, learner=learner)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    model = json.loads(path.read_text())["payload"]["model"]
    # the learner's block, under one key in both wirings, is the only
    # copy of the weights, and its shape the only record of the pool size
    assert sorted(model) == sorted([
        "training", "learner", "alpha", "p0", "node_kind", "grid", "delay_y",
        "delay_capacity", "learner_state",
    ])
    # the block holds its numbers only; the model states the settings once
    state = model["learner_state"]
    if learner == "adaptive":
        # two independent rows of 4 weights, and their two gains
        assert sorted(state) == ["r", "w"]
        assert [len(w) for w in state["w"]] == [4, 4] and len(state["r"]) == 2
    else:
        # one stacked row of 8 weights, its covariance as a packed
        # triangle, and the gains pending after 249 learned steps
        pending = 249 % FOLD_RANK
        assert sorted(state) == ["P", "U", "pending", "w"] and state["pending"] == pending
        assert [[len(row) for row in state[key]] for key in ("w", "P", "U")] == [
            [8], [8 * 9 // 2], [8 * pending]]


def test_failed_save_keeps_previous_file(tmp_path):
    # a weighted independent adaptive pool on raw values near 1e300: its
    # fourth step returns a finite 1.04e297 and leaves the combiner
    # weights [nan, 0.5]
    model = build_anarx(2, 8, 0.0, 2e300, training="independent", learner="adaptive", alpha=0.9)
    fc = OnlineForecaster(model, CombinerState(2))
    rng = np.random.default_rng(0)
    path = tmp_path / "model.json"
    for _ in range(3):
        fc.step(rng.uniform(0, 2e300))
    snapshot_save(fc, path)
    before = path.read_bytes()
    assert np.isfinite(fc.step(rng.uniform(0, 2e300)))
    assert np.isnan(fc.combiner.c[0])
    # a state no load reads fails the save before any file is written
    with pytest.raises(NumericalDivergence, match="not finite"):
        snapshot_save(fc, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    snapshot_load(path)


def _outcome(fc, value):
    """The repr of the step's prediction, or of its error's class and
    message: equal for two forecasters that step bit for bit alike."""
    try:
        return repr(fc.step(value))
    except AnarxError as exc:
        return repr((type(exc).__name__, str(exc)))


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e154, 1e300])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), learner=st.sampled_from(["adaptive", "kwh", "rls"]))
def test_save_writes_only_a_file_a_load_reads_property(tmp_path, weighted, scale, seed, learner):
    # raw values on a grid over [0, 2 * scale], with no normalization: at
    # 1e154 a step's fsum can overflow after the learner moved, at 1e300
    # a step can return a finite value and leave NaN combiner weights.
    # After every step, returned or raised, a save either refuses the
    # state and leaves no file, or writes one whose load steps every
    # later value as the live forecaster does.
    model = build_anarx(2, 8, 0.0, 2 * scale, learner=learner,
                        training="independent" if weighted else "stacked",
                        alpha=0.9 if learner == "adaptive" else 1.0)
    fc = OnlineForecaster(model, CombinerState(2) if weighted else None)
    path = tmp_path / "model.json"
    path.unlink(missing_ok=True)
    twins = []
    for value in np.random.default_rng(seed).uniform(0, 2 * scale, 30).tolist():
        want = _outcome(fc, value)
        assert [_outcome(twin, value) for twin in twins] == [want] * len(twins)
        try:
            snapshot_save(fc, path)
        except NumericalDivergence:
            assert list(tmp_path.iterdir()) == []
            continue
        twins.append(snapshot_load(path))
        path.unlink()


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


def _window_as_string(evolution):
    evolution.update(err_window="0", contrib=evolution["contrib"][-1:])


@pytest.mark.parametrize("tamper", [
    # each would load as numbers: "12" as the delay values [1.0, 2.0],
    # "0" as a window of one error, and a "0" in place of one number as 0.0
    pytest.param(lambda p: _set(p["model"], "delay_y", "12"), id="delay_y"),
    pytest.param(lambda p: _window_as_string(p["evolution"]), id="err_window"),
    pytest.param(lambda p: _set(p["combiner"], "lam", "0"), id="lam"),
    pytest.param(lambda p: _set(p["model"]["learner_state"]["r"], 0, "0"), id="r"),
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
    head = b'{"format":"anarx-snapshot","version":6,"sha256":"%s","payload":' % (
        doc["sha256"].encode())
    assert data.startswith(head) and data.endswith(b"}\n")
    body = data[len(head):-2]
    assert hashlib.sha256(body).hexdigest() == doc["sha256"]
    assert body == json.dumps(doc["payload"], sort_keys=True, separators=(",", ":")).encode()
    # P of the 8 weights is stored as its upper triangle, each entry once
    assert [len(P) for P in doc["payload"]["model"]["learner_state"]["P"]] == [8 * 9 // 2]


def _flip_a_payload_digit(data: bytes) -> bytes:
    # a digit of the last number before the scale, so the file still parses
    at = data.rindex(b'"scale"') - 2
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
@given(pairing=st.sampled_from(PAIRINGS), alpha=st.floats(0.9, 1.0), n_nodes=st.integers(1, 4),
       h=st.integers(2, 12),
       touches=st.dictionaries(st.integers(0, 119), st.sampled_from(["read", "copy", "reload"])))
def test_a_save_moves_nothing_property(tmp_path, pairing, alpha, n_nodes, h, touches):
    # At drawn steps of an RLS run the forecaster's state is read, the
    # forecaster is deep-copied, or it is saved and replaced by its load.
    # None of it moves a bit: it predicts as a twin that was never
    # touched, pending RLS gains and all.
    training, weighted = pairing
    cfg = RunConfig(n_nodes=n_nodes, h=h, train_len=300, test_len=100, learner="rls",
                    alpha=alpha, training=training, weighted=weighted)
    fc, twin = (build_forecaster(PROPERTY_SERIES, cfg)[1] for _ in range(2))
    path = tmp_path / "model.json"
    for k, value in enumerate(PROPERTY_SERIES.values.tolist()[:120]):
        touch = touches.get(k)
        if touch == "read":
            fc.state_dict()
        elif touch == "copy":
            copy.deepcopy(fc)
        elif touch == "reload":
            snapshot_save(fc, path)
            fc = snapshot_load(path)
        assert _outcome(fc, value) == _outcome(twin, value)
    assert fc.state_dict() == twin.state_dict()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(learner=st.sampled_from(["rls", "kwh", "adaptive"]), pairing=st.sampled_from(PAIRINGS),
       learn=st.booleans(), steps=st.integers(0, 40), data=st.data())
def test_rejected_value_moves_no_state_property(tmp_path, learner, pairing, learn, steps, data):
    # a step that raises a typed error moves no state: the forecaster
    # saves the same bytes, and goes on as a twin that never saw the
    # value. A value that is not finite is the one the step rejects; the
    # grid clamps every finite one.
    training, weighted = pairing
    value = data.draw(st.sampled_from([NAN, INF, -INF]), label="value")
    values = PROPERTY_SERIES.values.tolist()
    cfg = RunConfig(n_nodes=2, h=5, train_len=300, test_len=100,
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
    with pytest.raises(ParseError):
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
       value=st.sampled_from([NAN, INF, -INF, 10**400]), data=st.data())
def test_saved_number_that_is_not_finite_or_too_large_is_corrupt_property(
        tmp_path, learner, weighted, evolution, value, data):
    # no forecaster saves NaN, an infinity or an int no float or index can
    # hold, in place of any number or count of its state
    fc = trained_forecaster(weighted=weighted, learner=learner, evolution=evolution, steps=60)
    payload = json.loads(json.dumps(fc.state_dict()))
    paths = _number_paths(payload)
    *parents, key = data.draw(st.sampled_from(paths), label="path")
    node = payload
    for part in parents:
        node = node[part]
    node[key] = value
    with pytest.raises(CorruptSnapshot):
        OnlineForecaster.from_state(copy.deepcopy(payload))
    path = tmp_path / "model.json"
    path.write_bytes(_signed(payload))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(path)
