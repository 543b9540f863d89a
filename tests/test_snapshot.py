import json

import numpy as np
import pytest

from anarx import RunConfig, SeriesFrame, snapshot_load, snapshot_save
from anarx.errors import CorruptSnapshot, VersionMismatch
from anarx.pipeline import build_forecaster
from anarx.snapshot import _checksum


def trained_forecaster(weighted=False, learner="adaptive"):
    rng = np.random.default_rng(0)
    series = SeriesFrame(np.sin(np.arange(300) / 6.0) * 3.0 + rng.normal(0, 0.2, 300) + 8.0)
    cfg = RunConfig(n_nodes=2, h=4, train_len=250, test_len=50,
                    learner=learner, alpha=0.9 if learner != "kwh" else 1.0,
                    weighted=weighted)
    work, fc = build_forecaster(series, cfg)
    for k in range(250):
        fc.step(float(series.values[k]))
    return fc


@pytest.mark.parametrize("weighted,learner", [
    (False, "rls"), (False, "kwh"), (True, "adaptive"),
])
def test_round_trip_identical_predictions(tmp_path, weighted, learner):
    fc = trained_forecaster(weighted=weighted, learner=learner)
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)

    rng = np.random.default_rng(1)
    stream = rng.uniform(5.0, 11.0, 100)
    out1 = [fc.step(float(v)) for v in stream]
    out2 = [fc2.step(float(v)) for v in stream]
    assert out1 == out2


def test_round_trip_preserves_learning_state(tmp_path):
    fc = trained_forecaster(learner="rls")
    path = tmp_path / "model.json"
    snapshot_save(fc, path)
    fc2 = snapshot_load(path)
    a = fc.model.stacked_learner
    b = fc2.model.stacked_learner
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.P, b.P)
    assert a.alpha == b.alpha
    # node views re-established over the restored weight vector
    assert fc2.model.nodes[0].weights.base is b.w


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
    doc["payload"]["model"]["nodes"][0]["weights"][0] += 1.0
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


def _tampered_snapshot(tmp_path, weighted, learner, tamper):
    """Save a trained forecaster, tamper with its payload, re-checksum."""
    fc = trained_forecaster(weighted=weighted, learner=learner)
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


def _other_grid(model):
    grid = model["nodes"][1]["grid_y"]
    grid["knots"] = [2.0 * k for k in grid["knots"]]
    grid["hi"] = 2.0 * grid["hi"]


@pytest.mark.parametrize("weighted,learner,tamper", [
    (True, "adaptive", lambda p: p["combiner"]["c"].append(0.0)),
    (False, "rls", lambda p: _drop_last(p["model"]["nodes"][0]["weights"])),
    (False, "rls", lambda p: _shrink_stacked(p["model"])),
    (False, "rls", lambda p: _drop_last(p["model"]["stacked_state"]["P"])),
    (True, "rls", lambda p: _drop_last(p["model"]["learner_states"][1]["P"])),
    (True, "adaptive", lambda p: _drop_last(p["model"]["learner_states"])),
    (True, "adaptive", lambda p: p["model"]["learner_states"].append(
        p["model"]["learner_states"][0])),
    (True, "kwh", lambda p: _drop_last(p["model"]["learner_states"][0]["w"])),
    (False, "kwh", lambda p: _other_grid(p["model"])),
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
