#!/usr/bin/env python3
"""Time the step end to end and write ``BENCH_steps.json``.

Every mode but ``--against`` runs one sampler. It takes ``--runs``
samples of each of the mode's cases (at least 5; the default 15 is what
a committed file uses), the cases interleaved so that a slow spell of
the machine reaches all of them. A sample is the fastest of ``REPEAT``
(5) back-to-back calls, so that a burst of the host slows one call and
not the sample. After sampling, each case reads once what does not
depend on time: a digest of what it computed, and a size. Per case the
file gives the config, the median and the interquartile range of each
timing over the runs, and those fields; every file records ``repeat``.
BLAS runs on one thread.

By default each case is ``run_experiment`` over a fixed-seed synthetic
load series as long as its config's train and test segments, and its
cost is a run's wall time over its steps in µs/step (``us_per_step``);
the ``REPEAT`` runs of a sample must all predict the same ŷ. Cases:

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

Each case records a digest of its ŷ stream (``y_hat_sha256``), so two
files show whether two versions of the code predict the same bits.

With ``--snapshot`` the script times snapshots instead and writes
``BENCH_snapshot.json``. Its cases are the final forecasters of
``run_experiment`` on ``rls_wide`` (one RLS row of 200 weights, so its
file is mostly the covariance) and on the shipped ``load_weighted``
config (the small file ``predict`` loads). Each sample saves the case's
forecaster (``save_ms``) and loads the file again (``load_ms``). The file
also gives the file size in ``bytes`` and a digest of the next 50
predictions of the loaded forecaster.

With ``--setup`` the script times what a run does before its first
step, ``load_csv`` and then ``build_forecaster`` (``setup_ms``), and
writes ``BENCH_setup.json``. Its cases are the shipped ``load_weighted``
config on its 5000-row series and ``rls_wide`` on its 400-row series,
each written as ``perfbench/workloads.py`` writes it: a ``load_mw``
header and one ``repr`` float a line. The file also gives a digest of
the values read, so two files show whether two versions parse the same
bits.

With ``--count`` the script counts instead of timing and writes
``BENCH_counts.json``. Each default case runs ``run_experiment`` once
to warm up, then once under ``sys.settrace``, which counts the Python
opcodes the ``anarx`` frames run and the calls into them, per step, in
total and per module (``learning``, ``model``, ...). Code outside
``anarx``, numpy's included, is not counted, so numpy's work shows only
as the calls that reach it. A count repeats exactly on one Python
version, so it is read from the one run, and it tells where a change
moved the work as no timing on a noisy host can; it does not see time
spent in C. Each case also records the counted run's ŷ digest.

With ``--against REV`` the script times this checkout's ``src/``
against REV's, extracted with ``git archive`` into a temporary
directory, and writes ``BENCH_ab.json``. Within a file, a slow phase of
the host can move every sample of one case; a pair cancels it. Each of
the ``--runs`` samples is a pair of fresh processes, one per tree, in
alternating order; each process runs the default cases once, each
case the fastest of ``REPEAT`` runs, on that tree's library. Per case
the file gives both trees' µs/step, the median and the range of the
pair ratios (REV's µs/step over this tree's, above 1 where this tree is
faster), in how many pairs this tree was faster, both ŷ digests, and the
largest |Δŷ| when they differ. The file is a measurement, not a gate.

    PYTHONPATH=src python3 scripts/bench.py [--runs N] [--out BENCH_steps.json]
    PYTHONPATH=src python3 scripts/bench.py --snapshot [--runs N] [--out BENCH_snapshot.json]
    PYTHONPATH=src python3 scripts/bench.py --setup [--runs N] [--out BENCH_setup.json]
    PYTHONPATH=src python3 scripts/bench.py --count [--out BENCH_counts.json]
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


def series_for(config):
    """The fixed-seed synthetic series as long as ``config``'s run."""
    return synthetic_load_series(n=config.train_len + config.test_len, seed=SEED)


def y_hats(report) -> np.ndarray:
    return np.array([s.y_hat for s in report.steps])


def timed_run(config) -> tuple:
    """(µs/step, ŷ) of one sample, the fastest of ``REPEAT`` runs."""
    series = series_for(config)
    reports = []
    ms = best_ms(lambda: reports.append(run_experiment(series, config)))
    streams = [y_hats(r) for r in reports]
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


def spread(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
    return {"median": round(median, 4), "iqr": round(q3 - q1, 4), "runs": len(samples)}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
            "series_seed": SEED, "repeat": REPEAT}


def write(result: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


def step_case(config, path: str) -> tuple:
    """The step: µs/step of ``run_experiment``, and a digest of its ŷ."""
    return (lambda: {"us_per_step": timed_run(config)[0]},
            lambda: {"y_hat_sha256": digest(y_hats(run_experiment(series_for(config), config)))})


def snapshot_case(config, path: str) -> tuple:
    """A save and a load of the run's final forecaster, then the file
    size and a digest of the loaded forecaster's next 50 predictions."""
    series = series_for(config)
    forecaster = run_experiment(series, config).forecaster

    def save_and_load():
        return {"save_ms": best_ms(lambda: snapshot_save(forecaster, path)),
                "load_ms": best_ms(lambda: snapshot_load(path))}

    def read():
        loaded = snapshot_load(path)
        y_hat = np.array([loaded.step(v) for v in series.values[-50:].tolist()])
        return {"bytes": os.path.getsize(path), "next_y_hat_sha256": digest(y_hat)}
    return save_and_load, read


def setup_case(config, path: str) -> tuple:
    """``load_csv`` then ``build_forecaster`` on the series written as
    ``perfbench/workloads.py`` writes it, and a digest of the values read."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("load_mw\n" + "".join(f"{v!r}\n" for v in series_for(config).values.tolist()))
    return (lambda: {"setup_ms": best_ms(lambda: build_forecaster(load_csv(path), config))},
            lambda: {"values_sha256": digest(load_csv(path).values)})


def counted_run(config) -> dict:
    """Opcodes and calls per step of one ``run_experiment`` after a
    warm-up run, in total and per ``anarx`` module, and its ŷ digest."""
    series = series_for(config)
    run_experiment(series, config)
    opcodes, calls, tracers = {}, {}, {}

    def tracer_for(module):
        # one counter cell per module, so an opcode costs one add
        count = opcodes.setdefault(module, [0])

        def local(frame, event, arg):
            if event == "opcode":
                count[0] += 1
            return local
        return local

    def enter(frame, event, arg):
        package, _, module = frame.f_globals.get("__name__", "").partition(".")
        if package != "anarx":
            return None
        module = module or "__init__"
        calls[module] = calls.get(module, 0) + 1
        frame.f_trace_opcodes = True
        if module not in tracers:
            tracers[module] = tracer_for(module)
        return tracers[module]

    sys.settrace(enter)
    try:
        report = run_experiment(series, config)
    finally:
        sys.settrace(None)
    y_hat = y_hats(report)  # reading the records runs anarx code too
    steps = len(y_hat)

    def per_step(count) -> float:
        return round(count / steps, 2)
    return {"steps": steps,
            "opcodes_per_step": per_step(sum(count[0] for count in opcodes.values())),
            "calls_per_step": per_step(sum(calls.values())),
            "modules": {module: {"opcodes_per_step": per_step(opcodes[module][0]),
                                 "calls_per_step": per_step(calls[module])}
                        for module in sorted(calls)},
            "y_hat_sha256": digest(y_hat)}


def count_case(config, path: str) -> tuple:
    """Nothing timed; the counts of :func:`counted_run`, read once."""
    return (lambda: {}), (lambda: counted_run(config))


MODES = {"steps": (CASES, step_case), "snapshot": (SNAPSHOT_CASES, snapshot_case),
         "setup": (SETUP_CASES, setup_case), "counts": (CASES, count_case)}


def sample_cases(cases: dict, case, runs: int, out: str) -> None:
    """Sample every case of ``cases`` over ``runs`` interleaved rounds and
    write ``out``. ``case(config, path)`` gives two calls: one sample, a
    dict of timings, and what to read once after sampling, a dict of
    fields. ``path`` is the case's file in a temporary directory."""
    samples = {name: {} for name in cases}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {name: case(config, os.path.join(tmp, name)) for name, config in cases.items()}
        for _ in range(runs):
            for name, (time_once, _) in calls.items():
                for key, value in time_once().items():
                    samples[name].setdefault(key, []).append(value)
        reads = {name: read() for name, (_, read) in calls.items()}
    write({**environment(), "cases": {
        name: {"config": config.to_dict(),
               **{key: spread(values) for key, values in samples[name].items()}, **reads[name]}
        for name, config in cases.items()}}, out)
    for name, timings in samples.items():
        print(f"{name}: " + ", ".join([f"{key} {spread(values)}" for key, values in timings.items()]
                                      + [f"{key} {value}" for key, value in reads[name].items()
                                         if isinstance(value, (int, float))]))


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
    write({**environment(), "against": rev, "against_commit": commit,
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
    mode.add_argument("--count", action="store_true",
                      help="count opcodes and calls per step instead of timing")
    mode.add_argument("--against", metavar="REV",
                      help="time this checkout's src/ against REV's in paired processes")
    parser.add_argument("--out", default=None, help="output file (default BENCH_steps.json, "
                        "BENCH_snapshot.json, BENCH_setup.json, BENCH_counts.json "
                        "or BENCH_ab.json)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if args.against:
        ab_bench(args.against, args.runs, args.out or os.path.join(ROOT, "BENCH_ab.json"))
        return 0
    mode = ("snapshot" if args.snapshot else "setup" if args.setup
            else "counts" if args.count else "steps")
    cases, case = MODES[mode]
    sample_cases(cases, case, args.runs, args.out or os.path.join(ROOT, f"BENCH_{mode}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
