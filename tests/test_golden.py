"""Golden prediction streams: the per-step y_hat of the benchmark's
configs and of a narrow RLS pool must reproduce stored references bit
for bit.

The references in ``perfbench/reference/`` are the first round of the
``load_weighted`` and ``rls_wide`` workloads at their default seed 7:
``run_experiment`` over ``synthetic_load_series(n=train_len + test_len,
seed=7)``. They are read here, never written. ``load_weighted`` must
match its reference exactly. ``rls_wide`` must match its own reference in
``tests/reference/`` exactly, and the benchmark's within the benchmark's
own tolerance, so a drift the benchmark would reject fails here first.
``tests/reference/rls_stacked_n2_h9.npz`` pins a narrow RLS pool and
must match exactly too. Two pools of independent RLS training, whose
rows learn side by side in one step, are pinned the same way:
``rls_independent_n10_h9.npz``, ten narrow rows, and
``rls_independent_n3_h100.npz``, three wide rows. Their rows start
learning on successive steps, so their first steps take the warm-up
fold, and after it the rows share one pending count.

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

``REPORT_DIGESTS`` pins the report bytes ``bench`` writes, the per-step
CSV and the JSON summary without its wall time, of the four shipped
configs with evolution off, ``"auto"`` and a fixed policy.
``SNAPSHOT_DIGESTS`` pins the snapshot file bytes of the same runs'
final forecasters, and of ``rls_wide``'s. A deliberate change to either
is recorded by hand in its table.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from anarx import membership, nodes
from anarx.datasets import synthetic_load_series
from anarx.model import EvolutionPolicy
from anarx.pipeline import RunConfig, build_forecaster, denormalize, load_config, run_experiment
from anarx.snapshot import snapshot_load, snapshot_save

ROOT = Path(__file__).resolve().parent.parent
BENCH_REFERENCE_DIR = ROOT / "perfbench" / "reference"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BENCH_TOL = 1e-9  # REF_TOL in perfbench/run.py

RLS_WIDE = ROOT / "perfbench" / "configs" / "rls_wide.cfg"
# a narrow RLS pool, the stacked_n2_h9 case of scripts/bench.py
RLS_NARROW = RunConfig(n_nodes=2, h=9, train_len=3000, test_len=2000, learner="rls", alpha=1.0)
# independent RLS pools, the independent_n10_h9 and independent_n3_h100
# cases of scripts/bench.py: ten narrow rows, and three wide rows, that
# start learning on successive steps
RLS_INDEPENDENT = {
    "rls_independent_n10_h9": RunConfig(n_nodes=10, h=9, train_len=3000, test_len=2000,
                                        learner="rls", alpha=1.0, weighted=True),
    "rls_independent_n3_h100": RunConfig(n_nodes=3, h=100, train_len=300, test_len=100,
                                         learner="rls", alpha=1.0, weighted=True),
}


def y_hat_stream(config):
    report = run_experiment(golden_series(config), config)
    return np.array([s.y_hat for s in report.steps])


@pytest.mark.parametrize("name,config_path", [
    ("load_weighted", ROOT / "configs" / "load_weighted.cfg"),
    ("rls_wide", RLS_WIDE),
])
def test_y_hat_stream_matches_reference(name, config_path):
    y_hat = y_hat_stream(load_config(config_path))
    with np.load(BENCH_REFERENCE_DIR / f"{name}.npz") as ref:
        bench = ref["y_hat"]
    if name == "rls_wide":
        # the benchmark's reference predates the one-synapse change, the
        # support-sum RLS step, the deferred downdate of wide rows, the
        # fsum of the stacked row's block sums and the gain columns beside
        # P (whose correction product rounds differently), which left this
        # stream 1.06e-11 from it
        with np.load(REFERENCE_DIR / f"{name}.npz") as ref:
            own = ref["y_hat"]
        assert np.array_equal(y_hat, own), float(np.max(np.abs(y_hat - own)))
        assert bench.shape == y_hat.shape
        assert float(np.max(np.abs(y_hat - bench))) <= BENCH_TOL
    else:
        assert np.array_equal(y_hat, bench), float(np.max(np.abs(y_hat - bench)))


def test_narrow_rls_stream_matches_reference():
    y_hat = y_hat_stream(RLS_NARROW)
    with np.load(REFERENCE_DIR / "rls_stacked_n2_h9.npz") as ref:
        want = ref["y_hat"]
    assert np.array_equal(y_hat, want), float(np.max(np.abs(y_hat - want)))


@pytest.mark.parametrize("name", sorted(RLS_INDEPENDENT))
def test_independent_rls_stream_matches_reference(name):
    y_hat = y_hat_stream(RLS_INDEPENDENT[name])
    with np.load(REFERENCE_DIR / f"{name}.npz") as ref:
        want = ref["y_hat"]
    assert np.array_equal(y_hat, want), float(np.max(np.abs(y_hat - want)))


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


# sha256 of steps_csv() and of to_json(include_wall_time=False) for each
# shipped config with evolution off, "auto" and POLICY, over the golden
# series: the report bytes bench writes with --out-csv and --out-json
REPORT_DIGESTS = {
    ("load_plain", "off"): (
        "f7bbc3f791a792dd29815f1f4a244c71a4a26a012fc5657271d799fb111197b7",
        "c5eb0915355b414128e524d0f41f1a478f30abfbda859963d007eed49e191c70",
    ),
    ("load_plain", "auto"): (
        "03159404045ab44a17cfa3b467a1b438b27d3a62308c6b1414134ce0e63e9179",
        "33500e7390a9d053be3291027f7189d44232a104bf132371a7c6ca38df761e88",
    ),
    ("load_plain", "policy"): (
        "732d54a969551cd83196fef881938460117c80871e506b45d7f07fbc86c65929",
        "7830238ffee254a851756d7199221a3f25dc84d740838f5dc9caf1313ad115fb",
    ),
    ("load_weighted", "off"): (
        "34e3603394bc7e09216dcbb654b81ea986e8acc920644264f5b8c0ebe97a6e52",
        "42a61626ecead945eac52986b82de45fd4b02f006f999d4f657a2ce82e82a622",
    ),
    ("load_weighted", "auto"): (
        "17683f85372129eee8ba1f01c40bb4786d58717b2e6f0f72232f3c7f83c690fc",
        "5f6fbfecc7009ff6b5c95237160da305a080c15743f033e8dff2fe02ef3f05be",
    ),
    ("load_weighted", "policy"): (
        "cf6261092b9b02b9a133cb0b9820566b3dc4555dcc122911db24c778e9af6da7",
        "4a241f3ea637d10e233f8f5746a60b5e506c699a6380a2cfdaa693c8c1325c55",
    ),
    ("sunspot_plain", "off"): (
        "2bc462ac9f54e08c3b8e8b6a524c20021e0270c56775646d0931ba674e3eafa0",
        "d531eac343ca07547e7c44f810f510530e440fe4fdef11d94b753d1610b41663",
    ),
    ("sunspot_plain", "auto"): (
        "eca5d5b8fa4b9123bfe6baf35b6d17303dc20ebb13a436c7b9516851b03d82b8",
        "be8b2bd2e2ad1613094ae7ebb314d5425302e3543d02ea854c2c730257653390",
    ),
    ("sunspot_plain", "policy"): (
        "3a34d67c768c961a5a64155a31af3c6f329eda4030996c1869a6e00c18cc4399",
        "1b9a16b9248fc6ab7d2d583fcf5158411bc6110aa292992dabefff550322ede6",
    ),
    ("sunspot_weighted", "off"): (
        "697c771ac40fbc0c9ddd2647a52eda3207ee08fea6eea8dee8e291f4b09f0428",
        "d106dadc8946dc15a06d8554fc0dd60390d5bd1c4884dc67fc814dd1589313eb",
    ),
    ("sunspot_weighted", "auto"): (
        "7c0c8132d05810315a1c8bf56afd0a9d2f39a10a7de4b1751ea5c61bf9af535b",
        "17ccfb96dc3ebcaa9b83ed5410737736f35571c8070b164f6f0baf7430e7706c",
    ),
    ("sunspot_weighted", "policy"): (
        "da750d73a7e526cadf5797a53861960c35d79c324cebd98b7f87db5780e250c6",
        "537bd51a1487ea2febb40b72685f8795ae9093636ddada8577edd3bfc10acef8",
    ),
}
EVOLUTION_SETTINGS = {"off": None, "auto": "auto", "policy": POLICY}


@pytest.mark.parametrize("name,evolution", sorted(REPORT_DIGESTS))
def test_report_bytes_match_recorded_digests(name, evolution):
    config = dataclasses.replace(load_config(ROOT / "configs" / f"{name}.cfg"),
                                 evolution=EVOLUTION_SETTINGS[evolution])
    report = run_experiment(golden_series(config), config)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (report.steps_csv(), report.to_json(include_wall_time=False)))
    assert got == REPORT_DIGESTS[name, evolution]


# sha256 of the file snapshot_save writes of the final forecaster of each
# run of REPORT_DIGESTS, and of rls_wide's run, over the golden series
SNAPSHOT_DIGESTS = {
    ("load_plain", "auto"): "a08c850fb969ea5a5af19ccb74c9beb19ca7e1532e8cc939714ab692ca3cae4c",
    ("load_plain", "off"): "f97b3a4a152232493bba84dcf5467505a8924940b4d2f47d7a66d0ae974e9f24",
    ("load_plain", "policy"): "2c0a5ef48e3878e9bc8fb03a26bb65c32dc80021a70229c80751e571342220b4",
    ("load_weighted", "auto"): "b4745cd8ba2dfe90c463fd7b571bfc8e413050140ed1409f64e2a9d8d3c16392",
    ("load_weighted", "off"): "487dda52218dd6b832ca570f3228de7ff1fa280a92b653a270ebfdd599318540",
    ("load_weighted", "policy"): "c3d116cd4d1d333d2bd023f3c8351ca601dd5dba4a9f6b984aba22b3c8391cac",
    ("rls_wide", "off"): "4249f19e9e1c21082f852e1e30986e7843f9c58a8dc7de926b3bedd0aa1be6b0",
    ("sunspot_plain", "auto"): "858a8efaf57600741fef13d7ec3495aca8213a3d967f3ae15e5251bec11969f3",
    ("sunspot_plain", "off"): "e9e945253121321ed1114405563b890890b3691c41ae6291fa513232a5039d60",
    ("sunspot_plain", "policy"): "85f2941fa1f2fc3a1e495e16bc57b439be70a3996cb832df834d3fa1db4e0753",
    ("sunspot_weighted", "auto"): "1871a10e6094885b94a9587781054612c955f3d3adcd3af86f9b58e398e4d0b3",
    ("sunspot_weighted", "off"): "29ed605853d9a58770b81184a9cfd2606fedfd64026b1dadf84f122cb05e5216",
    ("sunspot_weighted", "policy"): "65db322be489ddc539594ca6f7149d3786b83081a0b2949dbee855e6d7df3a56",
}


@pytest.mark.parametrize("name,evolution", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_bytes_match_recorded_digests(tmp_path, name, evolution):
    path = RLS_WIDE if name == "rls_wide" else ROOT / "configs" / f"{name}.cfg"
    config = dataclasses.replace(load_config(path), evolution=EVOLUTION_SETTINGS[evolution])
    snapshot = tmp_path / "model.json"
    snapshot_save(run_experiment(golden_series(config), config).forecaster, snapshot)
    data = snapshot.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SNAPSHOT_DIGESTS[name, evolution]
    # the loaded forecaster saves the same bytes again
    snapshot_save(snapshot_load(snapshot), snapshot)
    assert snapshot.read_bytes() == data


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
    streams["rls_wide"] = {"y_hat": y_hat_stream(load_config(RLS_WIDE))}
    streams["rls_stacked_n2_h9"] = {"y_hat": y_hat_stream(RLS_NARROW)}
    for name, config in RLS_INDEPENDENT.items():
        streams[name] = {"y_hat": y_hat_stream(config)}
    for name, arrays in streams.items():
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
        print(f"wrote {REFERENCE_DIR / name}.npz")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
