"""Golden prediction streams: the per-step y_hat of two configs must
reproduce stored references bit for bit.

The references in ``perfbench/reference/`` are the first round of the
``load_weighted`` and ``rls_wide`` workloads at their default seed 7:
``run_experiment`` over ``synthetic_load_series(n=train_len + test_len,
seed=7)``. They are read here, never written. ``load_weighted`` must
match its reference exactly. ``rls_wide`` must match its own reference in
``tests/reference/`` exactly, and the benchmark's within the benchmark's
own tolerance, so a drift the benchmark would reject fails here first.

``perfbench/reference/serve_stream.npz`` pins the ``predict`` path the
same way: the shipped weighted config trained by ``step`` on a prefix,
saved and loaded again, then stepped through the rest of the series in
blocks that alternate learning and frozen prediction. It must match
exactly too.

The evolving references in ``tests/reference/`` pin structural evolution
the same way: ``y_hat``, ``error``, ``n_active`` and the structure events
of the shipped load configs run with evolution on. Re-record every file
in ``tests/reference/`` after a deliberate change with
``python tests/test_golden.py --record``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from anarx import membership, nodes
from anarx.datasets import synthetic_load_series
from anarx.model import EvolutionPolicy
from anarx.pipeline import build_forecaster, denormalize, load_config, run_experiment
from anarx.snapshot import snapshot_load, snapshot_save

ROOT = Path(__file__).resolve().parent.parent
BENCH_REFERENCE_DIR = ROOT / "perfbench" / "reference"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BENCH_TOL = 1e-9  # REF_TOL in perfbench/run.py

RLS_WIDE = ROOT / "perfbench" / "configs" / "rls_wide.cfg"


def y_hat_stream(config_path):
    config = load_config(config_path)
    report = run_experiment(golden_series(config), config)
    return np.array([s.y_hat for s in report.steps])


@pytest.mark.parametrize("name,config_path", [
    ("load_weighted", ROOT / "configs" / "load_weighted.cfg"),
    ("rls_wide", RLS_WIDE),
])
def test_y_hat_stream_matches_reference(name, config_path):
    y_hat = y_hat_stream(config_path)
    with np.load(BENCH_REFERENCE_DIR / f"{name}.npz") as ref:
        bench = ref["y_hat"]
    if name == "rls_wide":
        # the benchmark's reference predates the one-synapse change and the
        # support-sum RLS step, which moved this stream by 1.2e-11 in all
        with np.load(REFERENCE_DIR / f"{name}.npz") as ref:
            own = ref["y_hat"]
        assert np.array_equal(y_hat, own), float(np.max(np.abs(y_hat - own)))
        assert bench.shape == y_hat.shape
        assert float(np.max(np.abs(y_hat - bench))) <= BENCH_TOL
    else:
        assert np.array_equal(y_hat, bench), float(np.max(np.abs(y_hat - bench)))


SERVE_BLOCK = 200  # Serve.BLOCK in perfbench/workloads.py


def test_serve_stream_matches_reference(tmp_path):
    config = load_config(ROOT / "configs" / "load_weighted.cfg")
    series = synthetic_load_series(n=config.train_len + config.test_len, seed=7)
    values = series.values.tolist()
    _, fc = build_forecaster(series, config)
    for v in values[: config.train_len]:
        fc.step(v, learn=True)
    snapshot_save(fc, tmp_path / "model.json")
    fc = snapshot_load(tmp_path / "model.json")
    stream = values[config.train_len :]
    y_hat = np.array([
        fc.step(v, learn=(k // SERVE_BLOCK) % 2 == 0) for k, v in enumerate(stream)
    ])
    with np.load(BENCH_REFERENCE_DIR / "serve_stream.npz") as ref:
        want = ref["y_hat"]
    assert np.array_equal(y_hat, want), float(np.max(np.abs(y_hat - want)))


@pytest.mark.parametrize("name", ["load_weighted", "load_plain"])
@pytest.mark.parametrize("learn", [True, False])
def test_one_membership_call_per_step(name, learn, monkeypatch):
    config = load_config(ROOT / "configs" / f"{name}.cfg")
    series = golden_series(config)
    work, fc = build_forecaster(series, config)
    values = work.values.tolist()
    for v in values[:50]:
        fc.advance(v)
    calls = []
    original = membership.eval_bspline

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every name the library reaches it through, as the benchmark's
    # tracer patches it
    monkeypatch.setattr(membership, "eval_bspline", counted)
    monkeypatch.setattr(nodes, "eval_bspline", counted)
    fc.advance(values[50], learn)
    assert len(calls) == 1


POLICY = EvolutionPolicy(window=50, add_threshold=0.06, remove_threshold=0.03, n_max=4)

# name -> (shipped config, evolution setting)
EVOLVING = {
    "load_weighted_auto": ("load_weighted", "auto"),
    "load_plain_auto": ("load_plain", "auto"),
    "load_weighted_policy": ("load_weighted", POLICY),
    "load_plain_policy": ("load_plain", POLICY),
}


def evolving_config(name):
    cfg_name, evolution = EVOLVING[name]
    config = load_config(ROOT / "configs" / f"{cfg_name}.cfg")
    return dataclasses.replace(config, evolution=evolution)


def golden_series(config):
    return synthetic_load_series(n=config.train_len + config.test_len, seed=7)


def evolving_streams(name) -> dict:
    config = evolving_config(name)
    report = run_experiment(golden_series(config), config)
    events = report.extras["structure_events"]
    return {
        "y_hat": np.array([s.y_hat for s in report.steps]),
        "error": np.array([s.error for s in report.steps]),
        "n_active": np.array([s.n_active for s in report.steps]),
        "event_k": np.array([k for k, _, _ in events], dtype=int),
        "event_kind": np.array([kind for _, kind, _ in events], dtype=str),
        "event_n": np.array([n for _, _, n in events], dtype=int),
    }


@pytest.mark.parametrize("name", sorted(EVOLVING))
def test_evolving_streams_match_reference(name):
    got = evolving_streams(name)
    with np.load(REFERENCE_DIR / f"{name}.npz") as ref:
        expected = {key: ref[key] for key in ref.files}
    assert set(expected) == set(got)
    kinds = set(expected["event_kind"].tolist())
    assert kinds == {"added", "removed"}
    for key, want in expected.items():
        assert np.array_equal(got[key], want), key


STEP_PATH_CONFIGS = {
    "load_weighted": ROOT / "configs" / "load_weighted.cfg",
    "load_plain": ROOT / "configs" / "load_plain.cfg",
    "sunspot_weighted": ROOT / "configs" / "sunspot_weighted.cfg",
    "sunspot_plain": ROOT / "configs" / "sunspot_plain.cfg",
    "rls_wide": RLS_WIDE,
}


@pytest.mark.parametrize("name", sorted(STEP_PATH_CONFIGS) + sorted(EVOLVING))
def test_step_path_matches_run_experiment(name):
    if name in EVOLVING:
        config = evolving_config(name)
    else:
        config = load_config(STEP_PATH_CONFIGS[name])
    series = golden_series(config)
    report = run_experiment(series, config)
    _, fc = build_forecaster(series, config)
    preds = [
        fc.step(v, learn=(k < config.train_len) or not config.freeze_test)
        for k, v in enumerate(series.values.tolist())
    ]
    lo, hi = fc.scale
    assert preds == denormalize([s.y_hat for s in report.steps], lo, hi).tolist()
    done = report.forecaster
    assert fc.model.state_dict() == done.model.state_dict()
    if config.weighted:
        assert fc.combiner.state_dict() == done.combiner.state_dict()
    else:
        assert fc.combiner is None and done.combiner is None


def _record() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    streams = {name: evolving_streams(name) for name in sorted(EVOLVING)}
    streams["rls_wide"] = {"y_hat": y_hat_stream(RLS_WIDE)}
    for name, arrays in streams.items():
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
        print(f"wrote {REFERENCE_DIR / name}.npz")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
