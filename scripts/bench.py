#!/usr/bin/env python3
"""Time the step end to end and write ``BENCH_steps.json``.

Each case is ``run_experiment`` over a fixed-seed synthetic load series
as long as its config's train and test segments, and its cost is a
run's wall time over its steps in µs/step. A sample is the fastest of
``REPEAT`` (5) back-to-back runs, so that a burst of the host slows one
run and not the sample; the runs must all predict the same ŷ. Every
case takes ``--runs`` samples (at least 5; the default 15 is what a
committed file uses), the cases interleaved so that a slow spell of the
machine reaches all of them, and the file gives the median and the
interquartile range. BLAS runs on one thread.

Cases:

* ``load_plain``: ``configs/load_plain.cfg``, stacked adaptive, 2 nodes
  of h = 9;
* ``sunspot_plain``: ``configs/sunspot_plain.cfg``, stacked adaptive,
  2 nodes of h = 4, on the same synthetic series (the sunspot file needs
  a download);
* ``stacked_adaptive_n10_h9``: ``load_plain``'s config with 10 nodes;
* ``load_weighted``: ``configs/load_weighted.cfg``, independent
  adaptive with the weighted combiner; its rows hold one block each, so
  it is the control for changes to how a row of several blocks sums;
* ``rls_wide``: ``perfbench/configs/rls_wide.cfg``, stacked RLS over
  200 weights;
* ``stacked_n2_h9``: stacked RLS, 2 nodes of h = 9;
* ``independent_n10_h9``: independent RLS, 10 nodes of h = 9, weighted;
* ``independent_n3_h100``: independent RLS, 3 nodes of h = 100,
  weighted, 300 + 100 steps: wide rows that start learning on
  successive steps, so its first steps take the warm-up fold;
* ``stacked_n10_h20_forget``: ``rls_wide``'s pool at alpha = 0.98;
* ``load_weighted_auto``, ``load_plain_auto``, ``load_weighted_policy``
  and ``load_plain_policy``: the shipped load configs with evolution on,
  at ``"auto"`` or at a fixed policy (window 50, thresholds 0.06 and
  0.03, at most 4 nodes) that both grows and prunes. They are the
  evolving golden streams of ``tests/test_golden.py``, and the cost of
  evolution is their µs/step against their configs' with evolution off.

Each case records a digest of its ŷ stream, so two files show whether
two versions of the code predict the same bits.

With ``--against REV`` the script times this checkout's ``src/``
against REV's, extracted with ``git archive`` into a temporary
directory, and writes ``BENCH_ab.json``. Within a file, a slow phase of
the host can move every sample of one case; a pair cancels it. Each of
the ``--runs`` samples is a pair of fresh processes, one per tree, in
alternating order; each process runs this script's cases once, each
case the fastest of ``REPEAT`` runs, on that tree's library. Per case
the file gives both trees' µs/step, the median and the range of the
pair ratios (REV's µs/step over this tree's, above 1 where this tree is
faster), in how many pairs this tree was faster, both ŷ digests, and the
largest |Δŷ| when they differ. The file is a measurement, not a gate.

With ``--snapshot`` the script times snapshots instead and writes
``BENCH_snapshot.json``. Its cases are the final forecasters of
``run_experiment`` on ``rls_wide`` (one RLS row of 200 weights, so its
file is mostly the covariance) and on the shipped ``load_weighted``
config (the small file ``predict`` loads). Each run saves the case's
forecaster and loads the file again; each of the two samples is the
fastest of ``REPEAT`` (5) back-to-back calls, so that a burst of the
host slows one call and not the sample. The file gives the median and the
interquartile range of ``save_ms`` and ``load_ms`` over the runs, the
file size in bytes, and a digest of the next 50 predictions of the
loaded forecaster.

With ``--setup`` the script times what a run does before its first
step, ``load_csv`` and then ``build_forecaster``, and writes
``BENCH_setup.json``. Its cases are the shipped ``load_weighted`` config
on its 5000-row series and ``rls_wide`` on its 400-row series, each
written as ``perfbench/workloads.py`` writes it: a ``load_mw`` header
and one ``repr`` float a line. Each sample is the fastest of ``REPEAT``
(5) back-to-back setups. The file gives the median and the interquartile
range of ``setup_ms`` over the runs, and a digest of the values read, so
two files show whether two versions parse the same bits.

    PYTHONPATH=src python3 scripts/bench.py [--runs N] [--out BENCH_steps.json]
    PYTHONPATH=src python3 scripts/bench.py --snapshot [--runs N] [--out BENCH_snapshot.json]
    PYTHONPATH=src python3 scripts/bench.py --setup [--runs N] [--out BENCH_setup.json]
    PYTHONPATH=src python3 scripts/bench.py --against REV [--runs N] [--out BENCH_ab.json]
"""

import os

# before numpy loads BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import io
import json
import math
import platform
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

from anarx.datasets import synthetic_load_series
from anarx.model import EvolutionPolicy
from anarx.pipeline import RunConfig, build_forecaster, load_config, load_csv, run_experiment
from anarx.snapshot import snapshot_load, snapshot_save

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SEED = 7
WIDE = load_config(os.path.join(ROOT, "perfbench", "configs", "rls_wide.cfg"))
SMALL = dict(train_len=3000, test_len=2000, learner="rls", alpha=1.0)
POLICY = EvolutionPolicy(window=50, add_threshold=0.06, remove_threshold=0.03, n_max=4)


def shipped(name: str):
    return load_config(os.path.join(ROOT, "configs", f"{name}.cfg"))


CASES = {
    "load_plain": shipped("load_plain"),
    "sunspot_plain": shipped("sunspot_plain"),
    "stacked_adaptive_n10_h9": dataclasses.replace(shipped("load_plain"), n_nodes=10),
    "load_weighted": shipped("load_weighted"),
    "rls_wide": WIDE,
    "stacked_n2_h9": RunConfig(n_nodes=2, h=9, **SMALL),
    "independent_n10_h9": RunConfig(n_nodes=10, h=9, weighted=True, **SMALL),
    "independent_n3_h100": RunConfig(n_nodes=3, h=100, train_len=300, test_len=100,
                                     learner="rls", weighted=True),
    "stacked_n10_h20_forget": dataclasses.replace(WIDE, alpha=0.98),
    **{f"{name}_{label}": dataclasses.replace(shipped(name), evolution=evolution)
       for label, evolution in (("auto", "auto"), ("policy", POLICY))
       for name in ("load_weighted", "load_plain")},
}


SNAPSHOT_CASES = {"rls_wide": WIDE, "load_weighted": shipped("load_weighted")}
SETUP_CASES = {"load_weighted": shipped("load_weighted"), "rls_wide": WIDE}
REPEAT = 5  # back-to-back calls per sample, the fastest kept


def timed_run(config) -> tuple:
    """(µs/step, ŷ) of one sample, the fastest of ``REPEAT`` runs."""
    series = synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)
    reports = []
    ms = best_ms(lambda: reports.append(run_experiment(series, config)))
    streams = [np.array([s.y_hat for s in r.steps]) for r in reports]
    if len({digest(y_hat) for y_hat in streams}) != 1:
        raise RuntimeError(f"different ŷ streams in {REPEAT} runs of one config")
    return ms * 1e3 / len(streams[0]), streams[0]


def digest(y_hat) -> str:
    return hashlib.sha256(y_hat.tobytes()).hexdigest()


def best_ms(call) -> float:
    """The fastest of ``REPEAT`` back-to-back calls, in ms."""
    best = math.inf
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def spread(samples, digits: int = 2) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
    return {"median": round(median, digits), "iqr": round(q3 - q1, digits), "runs": len(samples)}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
            "series_seed": SEED}


def write(result: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


def snapshot_bench(runs: int, out: str) -> None:
    forecasters, nexts = {}, {}
    for name, config in SNAPSHOT_CASES.items():
        series = synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)
        forecasters[name] = run_experiment(series, config).forecaster
        nexts[name] = series.values[-50:].tolist()
    samples = {name: {"save_ms": [], "load_ms": []} for name in SNAPSHOT_CASES}
    sizes, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(runs):
            for name, forecaster in forecasters.items():
                path = os.path.join(tmp, f"{name}.json")
                samples[name]["save_ms"].append(
                    best_ms(lambda: snapshot_save(forecaster, path)))
                samples[name]["load_ms"].append(best_ms(lambda: snapshot_load(path)))
                sizes[name] = os.path.getsize(path)
        for name in SNAPSHOT_CASES:
            loaded = snapshot_load(os.path.join(tmp, f"{name}.json"))
            y_hat = np.array([loaded.step(v) for v in nexts[name]])
            digests[name] = hashlib.sha256(y_hat.tobytes()).hexdigest()
    result = {
        **environment(),
        "repeat": REPEAT,
        "cases": {
            name: {
                "config": SNAPSHOT_CASES[name].to_dict(),
                "bytes": sizes[name],
                **{key: spread(values, 4) for key, values in samples[name].items()},
                "next_y_hat_sha256": digests[name],
            }
            for name in SNAPSHOT_CASES
        },
    }
    write(result, out)
    for name, case in result["cases"].items():
        print(f"{name}: {case['bytes']} B, save {case['save_ms']}, load {case['load_ms']}")


def setup_bench(runs: int, out: str) -> None:
    samples = {name: [] for name in SETUP_CASES}
    paths, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in SETUP_CASES.items():
            paths[name] = os.path.join(tmp, f"{name}.csv")
            series = synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("load_mw\n" + "".join(f"{v!r}\n" for v in series.values.tolist()))
        for _ in range(runs):
            for name, config in SETUP_CASES.items():
                samples[name].append(
                    best_ms(lambda: build_forecaster(load_csv(paths[name]), config)))
        for name, path in paths.items():
            digests[name] = digest(load_csv(path).values)
    result = {
        **environment(),
        "repeat": REPEAT,
        "cases": {
            name: {
                "config": SETUP_CASES[name].to_dict(),
                "setup_ms": spread(samples[name], 4),
                "values_sha256": digests[name],
            }
            for name in SETUP_CASES
        },
    }
    write(result, out)
    for name, case in result["cases"].items():
        print(f"{name}: setup {case['setup_ms']}")


def sample(out: str) -> None:
    """Run every case once and save its µs/step and ŷ to ``out`` (npz):
    one process of an A/B pair."""
    results = {name: timed_run(config) for name, config in CASES.items()}
    np.savez(out, us=np.array([us for us, _ in results.values()]),
             **{name: y_hat for name, (_, y_hat) in results.items()})


# one A/B sample on the library first on PYTHONPATH: this script's cases,
# saved to the file named by the first argument
SAMPLE = "import sys; sys.path.insert(0, {scripts!r}); import bench; bench.sample(sys.argv[1])"


def ab_bench(rev: str, runs: int, out: str) -> None:
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    code = SAMPLE.format(scripts=os.path.dirname(os.path.abspath(__file__)))
    times = {tree: {name: [] for name in CASES} for tree in ("this", "against")}
    streams = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(os.path.join(tmp, "against"), filter="data")
        srcs = {"this": os.path.join(ROOT, "src"), "against": os.path.join(tmp, "against", "src")}
        for k in range(runs):
            for tree in (("this", "against") if k % 2 == 0 else ("against", "this")):
                path = os.path.join(tmp, f"{tree}.npz")
                subprocess.run([sys.executable, "-c", code, path], cwd=tmp, check=True,
                               env={**os.environ, "PYTHONPATH": srcs[tree]})
                with np.load(path) as saved:
                    for name, us in zip(CASES, saved["us"].tolist()):
                        times[tree][name].append(us)
                        y_hat = saved[name]
                        if streams.setdefault((tree, name), y_hat).tobytes() != y_hat.tobytes():
                            raise RuntimeError(f"{tree}: {name} predicted two ŷ streams")
    cases = {}
    for name in CASES:
        this, against = times["this"][name], times["against"][name]
        ratios = [a / t for t, a in zip(this, against)]
        y_this, y_against = streams["this", name], streams["against", name]
        case = {
            "us_per_step": {"this": spread(this), "against": spread(against)},
            "pair_ratio": {"median": round(float(np.median(ratios)), 3),
                           "min": round(min(ratios), 3), "max": round(max(ratios), 3)},
            "faster_in": f"{sum(r > 1.0 for r in ratios)} of {runs}",
            "y_hat_sha256": {"this": digest(y_this), "against": digest(y_against)},
        }
        if case["y_hat_sha256"]["this"] != case["y_hat_sha256"]["against"]:
            case["max_abs_dy"] = (float(np.max(np.abs(y_this - y_against)))
                                  if y_this.shape == y_against.shape else None)
        cases[name] = case
    write({**environment(), "repeat": REPEAT, "against": rev, "against_commit": commit,
           "cases": cases}, out)
    for name, case in cases.items():
        print(f"{name}: ratio {case['pair_ratio']['median']}, faster in {case['faster_in']}"
              + ("" if "max_abs_dy" not in case else f", max|dy| {case['max_abs_dy']}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="runs per case (at least 5)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--snapshot", action="store_true",
                      help="time snapshot save and load instead of the step")
    mode.add_argument("--setup", action="store_true",
                      help="time load_csv and build_forecaster instead of the step")
    mode.add_argument("--against", metavar="REV",
                      help="time this checkout's src/ against REV's in paired processes")
    parser.add_argument("--out", default=None, help="output file (default BENCH_steps.json, "
                        "BENCH_snapshot.json, BENCH_setup.json or BENCH_ab.json)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if args.setup:
        setup_bench(args.runs, args.out or os.path.join(ROOT, "BENCH_setup.json"))
        return 0
    if args.snapshot:
        snapshot_bench(args.runs, args.out or os.path.join(ROOT, "BENCH_snapshot.json"))
        return 0
    if args.against:
        ab_bench(args.against, args.runs, args.out or os.path.join(ROOT, "BENCH_ab.json"))
        return 0

    times = {name: [] for name in CASES}
    digests = {}
    for _ in range(args.runs):
        for name, config in CASES.items():
            us, y_hat = timed_run(config)
            times[name].append(us)
            digests[name] = digest(y_hat)

    result = {
        **environment(),
        "cases": {
            name: {
                "config": CASES[name].to_dict(),
                "us_per_step": spread(times[name]),
                "y_hat_sha256": digests[name],
            }
            for name in CASES
        },
    }
    write(result, args.out or os.path.join(ROOT, "BENCH_steps.json"))
    for name in CASES:
        print(f"{name}: {result['cases'][name]['us_per_step']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
