"""The benchmark's workloads: inputs made from the seed, then timed rounds.

Every workload is a closed loop with one client: the next value goes in
only after the previous prediction has returned. A round repeats the
same deterministic work, so every round must give the same predictions
as the first, and the first is compared with the stored reference when
the seed is the default one.

All calls go through the library's public API and are looked up on the
module at call time (``pipeline.run_experiment(...)``), so that a traced
round reaches the tracer's wrappers and an untraced round the originals.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anarx import datasets, pipeline, snapshot

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SHIPPED_CONFIG = ROOT / "configs" / "load_weighted.cfg"

SETUP_REPS = 3  # setup samples per round, spread over the run


@dataclass
class Samples:
    """Raw timings collected over all rounds of one run."""

    setup_s: list = field(default_factory=list)
    # per round, the time of each unit of streamed work: the run_experiment
    # call, or one serve_stream block; units repeat identically every round
    unit_s: list = field(default_factory=list)
    unit_steps: list = field(default_factory=list)  # steps in each unit
    save_ms: list = field(default_factory=list)
    load_ms: list = field(default_factory=list)
    # per call (serve_stream); compact, so memory hardly grows with rounds
    learn_us: array = field(default_factory=lambda: array("d"))
    frozen_us: array = field(default_factory=lambda: array("d"))


@dataclass
class RoundResult:
    y_hat: np.ndarray
    steps: int
    rmse_train: float
    rmse_test: float


def write_series_csv(path: Path, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("load_mw\n")
        for v in values:
            fh.write(repr(float(v)) + "\n")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _rmse(errors) -> float:
    errors = np.asarray(errors, dtype=float)
    return float(np.sqrt(np.mean(errors * errors)))


class Backtest:
    """``run_experiment`` over one series as long as the config's train +
    test segments.

    Setup is what ``anarx bench`` does before its first step:
    ``load_csv`` + ``build_forecaster``. With ``checkpoint_every`` set, the
    final forecaster is saved and loaded again every that many rounds.
    """

    def __init__(self, name, config_path, checkpoint_every=None):
        self.name = name
        self.config_path = Path(config_path)
        self.checkpoint_every = checkpoint_every
        self.rounds = 0
        self.snapshot_bytes = 0

    def prepare(self, work: Path, seed: int) -> None:
        self.config = pipeline.load_config(self.config_path)
        self.series_len = self.config.train_len + self.config.test_len
        self.csv = work / "series.csv"
        write_series_csv(self.csv, datasets.synthetic_load_series(n=self.series_len, seed=seed).values)
        self.series = pipeline.load_csv(self.csv)
        self.snapshot_path = work / "checkpoint.json"
        if self.checkpoint_every:
            self._replay_live_forecaster()

    def _replay_live_forecaster(self) -> None:
        """The final forecaster, rebuilt on the step path.

        ``run_experiment`` does not hand its forecaster out; without
        evolution, ``OnlineForecaster.step`` performs the same arithmetic,
        which :meth:`checks` verifies.
        """
        series = self.series
        _, forecaster = pipeline.build_forecaster(series, self.config)
        cfg = self.config
        self.replay_y_hat = np.array([
            forecaster.step(float(v), learn=(k < cfg.train_len) or not cfg.freeze_test)
            for k, v in enumerate(series.values)
        ])
        self.live = forecaster

    def config_record(self) -> dict:
        return {
            "config_file": str(self.config_path.relative_to(ROOT)),
            "config": self.config.to_dict(),
            "series_len": self.series_len,
            "api": "run_experiment",
        }

    def setup(self):
        series = pipeline.load_csv(self.csv)
        return pipeline.build_forecaster(series, self.config)

    def round(self, samples: Samples) -> RoundResult:
        for _ in range(SETUP_REPS):
            samples.setup_s.append(_timed(self.setup)[1])
        report, dt = _timed(pipeline.run_experiment, self.series, self.config)
        samples.unit_s.append([dt])
        samples.unit_steps = [len(report.steps)]
        if self.checkpoint_every and self.rounds % self.checkpoint_every == 0:
            self._checkpoint(samples)
        self.rounds += 1
        return RoundResult(
            y_hat=np.array([s.y_hat for s in report.steps]),
            steps=len(report.steps),
            rmse_train=report.rmse_train,
            rmse_test=report.rmse_test,
        )

    def _checkpoint(self, samples: Samples) -> None:
        _, dt = _timed(snapshot.snapshot_save, self.live, self.snapshot_path)
        samples.save_ms.append(dt * 1e3)
        self.snapshot_bytes = self.snapshot_path.stat().st_size
        _, dt = _timed(snapshot.snapshot_load, self.snapshot_path)
        samples.load_ms.append(dt * 1e3)

    def checks(self, first: RoundResult) -> list:
        """(name, ok) of the checks beyond finite and repeatable output."""
        if not self.checkpoint_every:
            return []
        lo, hi = self.live.scale
        own = first.y_hat * (hi - lo) + lo
        snapshot.snapshot_save(self.live, self.snapshot_path)
        loaded = snapshot.snapshot_load(self.snapshot_path)
        return [
            ("step path equals run_experiment bit for bit",
             np.array_equal(self.replay_y_hat, own)),
            ("reloaded snapshot predicts bit-identically",
             _same_next_predictions(self.live, loaded, self.series.values[:50])),
        ]


class Serve:
    """The ``predict`` path: load a snapshot, then one ``step`` per value.

    Input preparation trains the shipped weighted config on a prefix of
    the series and saves it. A round loads that snapshot (its setup) and
    streams the rest of the series in blocks that alternate ``learn=True``
    and ``learn=False``, saving a checkpoint after every block.
    """

    BLOCK = 200

    def __init__(self, name):
        self.name = name
        self.snapshot_bytes = 0

    def prepare(self, work: Path, seed: int) -> None:
        self.config = pipeline.load_config(SHIPPED_CONFIG)
        self.series_len = self.config.train_len + self.config.test_len
        series = datasets.synthetic_load_series(n=self.series_len, seed=seed)
        train = self.config.train_len
        _, forecaster = pipeline.build_forecaster(series, self.config)
        lo, hi = forecaster.scale
        errors = [
            (float(v) - forecaster.step(float(v), learn=True)) / (hi - lo)
            for v in series.values[:train]
        ]
        self.rmse_train = _rmse(errors)
        self.scale = (lo, hi)
        self.model_path = work / "model.json"
        snapshot.snapshot_save(forecaster, self.model_path)
        self.stream_csv = work / "stream.csv"
        write_series_csv(self.stream_csv, series.values[train:])
        self.ckpt_path = work / "checkpoint.json"

    def config_record(self) -> dict:
        return {
            "config_file": str(SHIPPED_CONFIG.relative_to(ROOT)),
            "config": self.config.to_dict(),
            "series_len": self.series_len,
            "stream_len": self.series_len - self.config.train_len,
            "block": self.BLOCK,
            "api": "snapshot_load + OnlineForecaster.step",
        }

    def setup(self):
        return snapshot.snapshot_load(self.model_path)

    def round(self, samples: Samples) -> RoundResult:
        values = pipeline.load_csv(self.stream_csv).values.tolist()
        forecaster, dt = _timed(self.setup)
        samples.setup_s.append(dt)
        samples.load_ms.append(dt * 1e3)
        clock = time.perf_counter_ns
        y_hat, block_times, block_steps = [], [], []
        for b, start in enumerate(range(0, len(values), self.BLOCK)):
            learn = b % 2 == 0
            latencies = samples.learn_us if learn else samples.frozen_us
            block = values[start : start + self.BLOCK]
            busy_ns = 0
            for v in block:
                t0 = clock()
                pred = forecaster.step(v, learn)
                t1 = clock()
                y_hat.append(pred)
                latencies.append((t1 - t0) / 1e3)
                busy_ns += t1 - t0
            block_times.append(busy_ns / 1e9)
            block_steps.append(len(block))
            _, dt = _timed(snapshot.snapshot_save, forecaster, self.ckpt_path)
            samples.save_ms.append(dt * 1e3)
        self.snapshot_bytes = self.ckpt_path.stat().st_size
        samples.unit_s.append(block_times)
        samples.unit_steps = block_steps
        self.live = forecaster
        lo, hi = self.scale
        y_hat = np.array(y_hat)
        return RoundResult(
            y_hat=y_hat,
            steps=len(values),
            rmse_train=self.rmse_train,
            rmse_test=_rmse((np.array(values) - y_hat) / (hi - lo)),
        )

    def checks(self, first: RoundResult) -> list:
        """(name, ok) of the checks beyond finite and repeatable output."""
        loaded = snapshot.snapshot_load(self.ckpt_path)
        values = pipeline.load_csv(self.stream_csv).values[:50]
        return [("reloaded snapshot predicts bit-identically",
                 _same_next_predictions(self.live, loaded, values))]


def _same_next_predictions(live, loaded, values) -> bool:
    a = [live.step(float(v)) for v in values]
    b = [loaded.step(float(v)) for v in values]
    return all(x == y for x, y in zip(a, b)) and all(math.isfinite(x) for x in a)


# why each is here: BENCHMARK.json and METRICS.md
WORKLOADS = {
    w.name: w
    for w in [
        Backtest("load_weighted", SHIPPED_CONFIG),
        # checkpoint every third round: odd, so traced (odd) rounds get one too
        Backtest("rls_wide", BENCH_DIR / "configs" / "rls_wide.cfg", checkpoint_every=3),
        Serve("serve_stream"),
    ]
}
