#!/usr/bin/env python3
"""Time the step end to end and write ``BENCH_steps.json``.

Each case is one ``run_experiment`` over a fixed-seed synthetic load
series as long as its config's train and test segments, and its cost is
the run's wall time over its steps in µs/step. Every case runs
``--runs`` times (at least 5; the default 15 is what a committed file
uses), the cases interleaved so that a slow spell of the machine
reaches all of them, and the file gives the median and the
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

    PYTHONPATH=src python3 scripts/bench.py [--runs N] [--out BENCH_steps.json]
    PYTHONPATH=src python3 scripts/bench.py --snapshot [--runs N] [--out BENCH_snapshot.json]
"""

import os

# before numpy loads BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
import tempfile
import time

import numpy as np

from anarx.datasets import synthetic_load_series
from anarx.model import EvolutionPolicy
from anarx.pipeline import RunConfig, load_config, run_experiment
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
REPEAT = 5  # back-to-back calls per snapshot sample, the fastest kept


def timed_run(config) -> tuple:
    """(µs/step, ŷ digest) of one run."""
    series = synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)
    start = time.perf_counter()
    report = run_experiment(series, config)
    elapsed = time.perf_counter() - start
    y_hat = np.array([s.y_hat for s in report.steps])
    return elapsed * 1e6 / len(report.steps), hashlib.sha256(y_hat.tobytes()).hexdigest()


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="runs per case (at least 5)")
    parser.add_argument("--snapshot", action="store_true",
                        help="time snapshot save and load instead of the step")
    parser.add_argument("--out", default=None,
                        help="output file (default BENCH_steps.json, or BENCH_snapshot.json)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if args.snapshot:
        snapshot_bench(args.runs, args.out or os.path.join(ROOT, "BENCH_snapshot.json"))
        return 0

    times = {name: [] for name in CASES}
    digests = {}
    for _ in range(args.runs):
        for name, config in CASES.items():
            us, digests[name] = timed_run(config)
            times[name].append(us)

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
