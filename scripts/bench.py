#!/usr/bin/env python3
"""Time the step end to end and write ``BENCH_steps.json``.

Each case is one ``run_experiment`` over a fixed-seed synthetic load
series as long as its config's train and test segments, and its cost is
the run's wall time over its steps in µs/step. Every case runs
``--runs`` times (at least 5), the cases interleaved so that a slow
spell of the machine reaches all of them, and the file gives the median
and the interquartile range. BLAS runs on one thread.

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
* ``stacked_n10_h20_forget``: ``rls_wide``'s pool at alpha = 0.98;
* ``load_weighted_auto``, ``load_plain_auto``, ``load_weighted_policy``
  and ``load_plain_policy``: the shipped load configs with evolution on,
  at ``"auto"`` or at a fixed policy (window 50, thresholds 0.06 and
  0.03, at most 4 nodes) that both grows and prunes. They are the
  evolving golden streams of ``tests/test_golden.py``, and the cost of
  evolution is their µs/step against their configs' with evolution off.

Each case records a digest of its ŷ stream, so two files show whether
two versions of the code predict the same bits.

The width sweep runs stacked RLS pools of h = 10 and 2 to 20 nodes,
2000 steps each, at each pending rank, 1 and ``learning.WIDE_RANK``,
with ``learning.pending_rank`` replaced for the run. It shows the width
from which deferring the downdate pays, the break-even
``learning.WIDE_ROW``.

    PYTHONPATH=src python3 scripts/bench.py [--runs N] [--out BENCH_steps.json]
"""

import os

# before numpy loads BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import time

import numpy as np

from anarx import learning
from anarx.datasets import synthetic_load_series
from anarx.model import EvolutionPolicy
from anarx.pipeline import RunConfig, load_config, run_experiment

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
    "stacked_n10_h20_forget": dataclasses.replace(WIDE, alpha=0.98),
    **{f"{name}_{label}": dataclasses.replace(shipped(name), evolution=evolution)
       for label, evolution in (("auto", "auto"), ("policy", POLICY))
       for name in ("load_weighted", "load_plain")},
}
SWEEP_H = 10
SWEEP_NODES = (2, 4, 6, 8, 9, 10, 12, 15, 20)
SWEEP_LEN = dict(train_len=1200, test_len=800)


def timed_run(config) -> tuple:
    """(µs/step, ŷ digest) of one run."""
    series = synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)
    start = time.perf_counter()
    report = run_experiment(series, config)
    elapsed = time.perf_counter() - start
    y_hat = np.array([s.y_hat for s in report.steps])
    return elapsed * 1e6 / len(report.steps), hashlib.sha256(y_hat.tobytes()).hexdigest()


def spread(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
    return {"median": round(median, 2), "iqr": round(q3 - q1, 2), "runs": len(samples)}


def with_rank(rank: int, config) -> tuple:
    """One timed run with every row folding ``rank`` gains at once."""
    default = learning.pending_rank
    learning.pending_rank = lambda cols: rank
    try:
        return timed_run(config)
    finally:
        learning.pending_rank = default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="runs per case (at least 5)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_steps.json"))
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    sweep = {n * SWEEP_H: dataclasses.replace(WIDE, n_nodes=n, h=SWEEP_H, **SWEEP_LEN)
             for n in SWEEP_NODES}
    ranks = (1, learning.WIDE_RANK)
    times = {name: [] for name in CASES}
    digests = {}
    sweep_times = {(cols, rank): [] for cols in sweep for rank in ranks}
    for _ in range(args.runs):
        for name, config in CASES.items():
            us, digests[name] = timed_run(config)
            times[name].append(us)
        for (cols, rank), samples in sweep_times.items():
            samples.append(with_rank(rank, sweep[cols])[0])

    result = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "series_seed": SEED,
        "cases": {
            name: {
                "config": CASES[name].to_dict(),
                "us_per_step": spread(times[name]),
                "y_hat_sha256": digests[name],
            }
            for name in CASES
        },
        "width_sweep": {
            "h": SWEEP_H,
            "wide_row": learning.WIDE_ROW,
            "us_per_step": {
                str(cols): {f"rank_{rank}": spread(sweep_times[cols, rank]) for rank in ranks}
                for cols in sweep
            },
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name in CASES:
        print(f"{name}: {result['cases'][name]['us_per_step']}")
    for cols, row in result["width_sweep"]["us_per_step"].items():
        print(f"width {cols}: " + ", ".join(f"{k} {v['median']}" for k, v in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
