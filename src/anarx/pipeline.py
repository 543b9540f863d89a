"""Data ingestion, the online benchmark protocol, and report assembly.

The protocol is one pass over a series: every step first produces the
one-step-ahead prediction from state built strictly before that step,
then (unless test-time learning is frozen) updates the weights with the
revealed value. RMSE is reported separately over the training and test
segments, in the units the model was trained in.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from typing import NoReturn

import numpy as np

from .combiner import CombinerState
from .errors import (
    AnarxError,
    ConfigError,
    DegenerateRange,
    DegenerateStep,
    EmptySeries,
    NumericalDivergence,
    ParseError,
)
from .model import AnarxModel, EvolutionPolicy, StructureChange, build_anarx

log = logging.getLogger("anarx")

# error window of evolution = "auto"
AUTO_WINDOW = 100


@dataclass
class SeriesFrame:
    """An ordered univariate series."""

    values: np.ndarray
    name: str = "series"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise EmptySeries(
                f"series {self.name!r} needs at least 2 values, got {self.values.size}"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise ParseError(f"series {self.name!r} has a non-finite value at index {bad}")

    def __len__(self) -> int:
        return self.values.size


def load_csv(path, column=None) -> SeriesFrame:
    """Read one numeric column from a CSV file.

    ``column`` may be a zero-based index, a header name, or None for the
    first column. A header row is detected by the first row failing to
    parse as a number. Row numbers in errors are 1-based file lines.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptySeries(f"{path}: no data rows")

    start = 0
    if isinstance(column, str):
        header = [cell.strip() for cell in rows[0]]
        if column not in header:
            raise ParseError(f"{path}: column {column!r} not found in header {header}")
        idx = header.index(column)
        start = 1
        name = column
    else:
        idx = 0 if column is None else int(column)
        name = None
        try:
            float(rows[0][idx])
        except (ValueError, IndexError):
            header = [cell.strip() for cell in rows[0]]
            name = header[idx] if idx < len(header) else None
            start = 1

    values = []
    for rownum, row in enumerate(rows[start:], start=start + 1):
        if idx >= len(row):
            raise ParseError(f"{path}: row {rownum} has no column {idx}")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell {cell!r} at row {rownum}") from None
        if not math.isfinite(v):
            raise ParseError(f"{path}: non-finite value at row {rownum}")
        values.append(v)
    if len(values) < 2:
        raise EmptySeries(f"{path}: fewer than 2 data rows")
    return SeriesFrame(np.asarray(values), name=name or os.path.splitext(os.path.basename(str(path)))[0])


def normalize_minmax(series: SeriesFrame, fit_range=None):
    """Map values through (v - min) / (max - min), min/max over fit_range.

    ``fit_range`` is an (start, stop) index pair; None fits on the whole
    series. Values outside the fitted range map outside [0, 1] and are
    passed through unchanged. Returns (normalized frame, lo, hi).
    """
    if fit_range is None:
        fit_range = (0, len(series))
    start, stop = int(fit_range[0]), int(fit_range[1])
    segment = series.values[start:stop]
    if segment.size == 0:
        raise DegenerateRange("empty fit range")
    lo = float(segment.min())
    hi = float(segment.max())
    if hi <= lo:
        raise DegenerateRange(f"constant fit segment (min == max == {lo})")
    scaled = (series.values - lo) / (hi - lo)
    return SeriesFrame(scaled, name=series.name), lo, hi


def denormalize(values, lo: float, hi: float):
    return np.asarray(values, dtype=float) * (hi - lo) + lo


_CHOICES = {
    "node_kind": ("neo_fuzzy", "wang_mendel"),
    "learner": ("rls", "kwh", "adaptive"),
    "training": ("stacked", "independent"),
    "normalization": ("minmax", "none"),
}


def _invalid(key: str, message: str) -> NoReturn:
    raise ConfigError(f"config key {key!r}: {message}")


@dataclass
class RunConfig:
    """Everything needed to rerun one benchmark deterministically."""

    n_nodes: int
    h: int
    train_len: int
    test_len: int
    q: int = 2
    node_kind: str = "neo_fuzzy"
    learner: str = "rls"
    alpha: float = 1.0
    weighted: bool = False
    training: str | None = None
    normalization: str = "minmax"
    # None: off; "auto": thresholds tracking 1.5x/0.75x the long-run RMSE;
    # or an explicit EvolutionPolicy with absolute thresholds.
    evolution: EvolutionPolicy | str | None = None
    seed: int = 0
    freeze_test: bool = False
    eta_lambda: float = 0.1

    def __post_init__(self) -> None:
        if self.training is None:
            self.training = "independent" if self.weighted else "stacked"
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                _invalid(key, f"expected one of {allowed}, got {getattr(self, key)!r}")
        if isinstance(self.evolution, str) and self.evolution != "auto":
            _invalid("evolution", f"expected off, 'auto' or a policy, got {self.evolution!r}")
        for key in ("n_nodes", "h", "q", "train_len"):
            if getattr(self, key) < 1:
                _invalid(key, f"must be positive, got {getattr(self, key)}")
        if self.test_len < 0:
            _invalid("test_len", f"must be nonnegative, got {self.test_len}")
        # q is the B-spline order, which only neo-fuzzy grids use
        if self.node_kind == "neo_fuzzy" and self.q > self.h:
            _invalid("q", f"spline order {self.q} exceeds h = {self.h}")
        if self.learner == "rls" and not 0.0 < self.alpha <= 1.0:
            _invalid("alpha", f"rls needs alpha in (0, 1], got {self.alpha}")
        if self.learner == "adaptive" and not 0.0 <= self.alpha <= 1.0:
            _invalid("alpha", f"adaptive needs alpha in [0, 1], got {self.alpha}")
        if not 0.0 < self.eta_lambda < math.inf:
            _invalid("eta_lambda", f"must be positive and finite, got {self.eta_lambda}")

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "evolution" and isinstance(v, EvolutionPolicy):
                v = vars(v).copy()
            d[f.name] = v
        return d


@dataclass(slots=True)
class StepRecord:
    k: int
    y: float
    y_hat: float
    error: float
    n_active: int
    c: tuple | None = None


@dataclass
class ForecastReport:
    """Per-step records plus the summary a benchmark table needs.

    ``forecaster`` is the forecaster that produced the steps, in its final
    state. ``anarx snapshot save`` saves it, so the report keeps it alive
    as long as the report lives.
    """

    steps: list
    rmse_train: float
    rmse_test: float
    parameter_count: int
    wall_time_s: float
    config: RunConfig
    extras: dict = field(default_factory=dict)
    forecaster: OnlineForecaster | None = field(default=None, repr=False, compare=False)

    def summary_dict(self) -> dict:
        return {
            "rmse_train": self.rmse_train,
            "rmse_test": self.rmse_test,
            "parameter_count": self.parameter_count,
            "wall_time_s": self.wall_time_s,
            "config": self.config.to_dict(),
            "extras": self.extras,
        }

    def to_json(self, include_wall_time: bool = True) -> str:
        d = self.summary_dict()
        if not include_wall_time:
            d.pop("wall_time_s")
        return json.dumps(d, indent=2, sort_keys=True)

    def steps_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        n_c = max((len(s.c) for s in self.steps if s.c is not None), default=0)
        header = ["k", "y", "y_hat", "error", "n_active"]
        header += [f"c_{i + 1}" for i in range(n_c)]
        writer.writerow(header)
        for s in self.steps:
            row = [s.k, repr(s.y), repr(s.y_hat), repr(s.error), s.n_active]
            if n_c:
                cvals = [repr(v) for v in (s.c or ())]
                row += cvals + [""] * (n_c - len(cvals))
            writer.writerow(row)
        return buf.getvalue()


class OnlineForecaster:
    """The node pool, the optional combiner, the normalization fitted on
    the training segment and the evolution controller, behind the one
    online step every path runs (:meth:`advance` in model units,
    :meth:`step` in raw units): predict, check the prediction is finite,
    learn (or only observe when frozen), update the combiner, evolve.

    ``scale`` is None (model units are raw units) or the min-max
    normalization ``(lo, hi)``, two finite floats with lo < hi.
    ``evolution`` is None (off), ``"auto"`` (thresholds at 1.5x/0.75x of
    the long-run RMSE) or an :class:`EvolutionPolicy`. The controller
    sees learned steps only and holds all evolution state: for the last
    ``window`` of them since the last structure change, ``err_window``
    holds the squared errors and ``contrib_window`` the node forecasts
    that :meth:`AnarxModel.evolve` reads to choose a node to prune;
    ``long_run_sq`` sums the squared errors of all ``learned_steps``.
    ``degenerate_steps`` counts skipped combiner updates,
    ``skipped_updates`` skipped node updates by reason.
    """

    def __init__(self, model: AnarxModel, combiner: CombinerState | None = None,
                 scale: tuple | None = None, meta: dict | None = None,
                 evolution: EvolutionPolicy | str | None = None) -> None:
        if not (evolution is None or evolution == "auto" or isinstance(evolution, EvolutionPolicy)):
            raise ValueError(f"evolution must be None, 'auto', or a policy, got {evolution!r}")
        if scale is not None:
            scale = tuple(map(float, scale))
            if len(scale) != 2 or not -math.inf < scale[0] < scale[1] < math.inf:
                raise ValueError(f"scale must be two finite floats lo < hi, got {scale}")
        self.model = model
        self.combiner = combiner
        self.scale = scale
        self.meta = meta or {}
        self.evolution = evolution
        window = evolution.window if isinstance(evolution, EvolutionPolicy) else AUTO_WINDOW
        self.err_window: deque = deque(maxlen=window)
        self.contrib_window: deque = deque(maxlen=window)
        self.long_run_sq = 0.0
        self.learned_steps = 0
        self.degenerate_steps = 0
        self.skipped_updates: Counter = Counter()

    def _to_model_units(self, v: float) -> float:
        if self.scale is None:
            return float(v)
        lo, hi = self.scale
        return (float(v) - lo) / (hi - lo)

    def _to_raw_units(self, v: float) -> float:
        if self.scale is None:
            return float(v)
        lo, hi = self.scale
        return float(v) * (hi - lo) + lo

    def step(self, y_raw: float, learn: bool = True) -> float:
        """Predict the incoming raw value, then absorb it. Returns the
        prediction in raw units.

        A ``y_raw`` that is not finite in model units raises ParseError
        and a non-finite prediction raises NumericalDivergence, both
        before any state moves.
        """
        y = self._to_model_units(y_raw)
        if not math.isfinite(y):
            raise ParseError(f"input value {y_raw!r} is not finite in model units")
        return self._to_raw_units(self.advance(y, learn))

    def advance(self, y: float, learn: bool = True) -> float:
        """The step in model units: predict ``y``, then absorb it. Returns
        the prediction."""
        model, combiner = self.model, self.combiner
        forecasts = model.node_forecasts()
        pred = combiner.combine(forecasts) if combiner is not None else math.fsum(forecasts)
        if not math.isfinite(pred):
            # typical cause: covariance wind-up of forgetting-factor RLS
            # under locally excited regressors
            raise NumericalDivergence("prediction is no longer finite")
        if not learn:
            model.observe(y)
            return pred
        # a plain run's prediction is the model output the stacked row predicts
        output = pred if combiner is None else None
        for _, reason in model.train_step(y, forecasts, output):
            self.skipped_updates[reason.partition(":")[0]] += 1
        if combiner is not None:
            try:
                combiner.optimal_step(forecasts, y, pred)
            except DegenerateStep:
                self.degenerate_steps += 1
        if self.evolution is not None:
            self._evolve(y - pred, forecasts)
        return pred

    def _evolve(self, err: float, forecasts: list) -> None:
        """Record a learned step's error and node forecasts; with a full
        window, maybe evolve."""
        sq = err * err
        self.long_run_sq += sq
        self.learned_steps += 1
        window = self.err_window
        window.append(sq)
        self.contrib_window.append(forecasts)
        if len(window) < window.maxlen:
            return
        policy = self.evolution
        if policy == "auto":
            long_run_rmse = math.sqrt(self.long_run_sq / self.learned_steps)
            if long_run_rmse <= 0.0:
                return
            policy = EvolutionPolicy(
                window=window.maxlen,
                add_threshold=1.5 * long_run_rmse,
                remove_threshold=0.75 * long_run_rmse,
            )
        # summed oldest first on every step; a running sum would round
        # differently and could move a structure change
        rmse = math.sqrt(sum(window) / window.maxlen)
        change = self.model.evolve(policy, rmse, self.contrib_window)
        if change is StructureChange.NONE:
            return
        window.clear()
        self.contrib_window.clear()
        if self.combiner is not None:
            if change is StructureChange.ADDED:
                self.combiner.extend(1)
            else:
                self.combiner.truncate(self.model.n)


def _fit_grid_range(segment: np.ndarray) -> tuple:
    lo = float(segment.min())
    hi = float(segment.max())
    if hi <= lo:
        pad = max(0.5, abs(lo) * 1e-6)
        lo -= pad
        hi += pad
    return lo, hi


def build_forecaster(series: SeriesFrame, config: RunConfig) -> tuple:
    """Prepare the model-units series and a fresh forecaster for it."""
    if config.train_len + config.test_len > len(series):
        raise ConfigError(
            f"config keys 'train_len', 'test_len': train_len + test_len = "
            f"{config.train_len + config.test_len} exceeds series length {len(series)}"
        )
    scale = None
    if config.normalization == "minmax":
        work, lo, hi = normalize_minmax(series, (0, config.train_len))
        scale = (lo, hi)
        grid_lo, grid_hi = 0.0, 1.0
    else:
        work = series
        grid_lo, grid_hi = _fit_grid_range(series.values[: config.train_len])
    model = build_anarx(
        config.n_nodes,
        config.h,
        grid_lo,
        grid_hi,
        q=config.q,
        node_kind=config.node_kind,
        training=config.training,
        learner=config.learner,
        alpha=config.alpha,
    )
    combiner = CombinerState(config.n_nodes, eta_lambda=config.eta_lambda) if config.weighted else None
    meta = {"config": config.to_dict()}
    return work, OnlineForecaster(model, combiner, scale, meta, evolution=config.evolution)


def run_experiment(series: SeriesFrame, config: RunConfig) -> ForecastReport:
    """Stream the series through a fresh forecaster per the benchmark
    protocol; the report carries that forecaster in its final state."""
    t0 = time.perf_counter()
    work, forecaster = build_forecaster(series, config)
    model = forecaster.model
    combiner = forecaster.combiner
    total = config.train_len + config.test_len
    structure_events = []
    steps: list[StepRecord] = []

    for k, y in enumerate(work.values[:total].tolist()):
        n_active = model.n
        try:
            pred = forecaster.advance(y, (k < config.train_len) or not config.freeze_test)
        except AnarxError as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        c = tuple(combiner.c.tolist()) if combiner is not None else None
        steps.append(StepRecord(k, y, pred, y - pred, n_active, c))
        if model.n != n_active:
            structure_events.append((k, "added" if model.n > n_active else "removed", model.n))

    errors = np.asarray([s.error for s in steps])
    rmse_train = float(np.sqrt(np.mean(errors[: config.train_len] ** 2)))
    if config.test_len:
        rmse_test = float(np.sqrt(np.mean(errors[config.train_len : total] ** 2)))
    else:
        rmse_test = 0.0
    wall = time.perf_counter() - t0

    combiner_weights = model.n if combiner is not None else 0
    parameter_count = model.parameter_count() + combiner_weights
    skipped = dict(forecaster.skipped_updates)
    extras = {
        "series_name": series.name,
        "degenerate_combiner_steps": forecaster.degenerate_steps,
        "skipped_node_updates": skipped,
        "structure_events": structure_events,
        "final_n": model.n,
        "normalization_lo_hi": list(forecaster.scale) if forecaster.scale else None,
        "free_parameters": model.W.size + combiner_weights,
        "note_parameter_count": (
            "membership weights in the paper's convention (2h per neo-fuzzy node) plus "
            "combiner weights when weighted; free_parameters counts the weights fitted"
        ),
    }
    log.info(
        "%s: rmse_train=%.6f rmse_test=%.6f params=%d skipped_node_updates=%d wall=%.3fs",
        series.name,
        rmse_train,
        rmse_test,
        parameter_count,
        sum(skipped.values()),
        wall,
    )
    return ForecastReport(
        steps=steps,
        rmse_train=rmse_train,
        rmse_test=rmse_test,
        parameter_count=parameter_count,
        wall_time_s=wall,
        config=config,
        extras=extras,
        forecaster=forecaster,
    )


# -- config files ----------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_EVOLUTION_KEYS = ("window", "add_threshold", "remove_threshold", "n_min", "n_max")


def parse_config_text(text: str) -> RunConfig:
    """Parse a flat ``key = value`` file into a RunConfig.

    Keys mirror the RunConfig field names; evolution policy fields are
    flattened as ``evolution_window`` etc., gated by ``evolution = true``.
    Lines starting with ``#`` and blank lines are ignored.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()

    ints = {"n_nodes", "h", "q", "train_len", "test_len", "seed"}
    floats = {"alpha", "eta_lambda"}
    bools = {"weighted", "freeze_test"}
    kwargs: dict = {}
    evolution_kwargs: dict = {}
    evolution_on = False
    for key, value in raw.items():
        if key == "evolution":
            if value.lower() == "auto":
                evolution_on = True
            else:
                evolution_on = _parse_bool(value, key)
        elif key.startswith("evolution_"):
            sub = key[len("evolution_") :]
            if sub not in _EVOLUTION_KEYS:
                raise ConfigError(f"unknown evolution key {key!r}")
            cast = int if sub in ("window", "n_min", "n_max") else float
            evolution_kwargs[sub] = _parse_num(cast, value, key)
        elif key in ints:
            kwargs[key] = _parse_num(int, value, key)
        elif key in floats:
            kwargs[key] = _parse_num(float, value, key)
        elif key in bools:
            kwargs[key] = _parse_bool(value, key)
        elif key in ("node_kind", "learner", "training", "normalization"):
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if evolution_on:
        # explicit thresholds make a fixed policy; otherwise they track
        # the long-run RMSE during the run
        kwargs["evolution"] = _policy(evolution_kwargs) if evolution_kwargs else "auto"
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"incomplete config: {exc}") from None


def _policy(kwargs: dict) -> EvolutionPolicy:
    try:
        return EvolutionPolicy(**kwargs)
    except ValueError as exc:
        keys = ", ".join(f"evolution_{k}" for k in kwargs)
        raise ConfigError(f"config keys {keys}: {exc}") from None


def _parse_bool(value: str, key: str) -> bool:
    v = value.lower()
    if v not in _BOOL:
        raise ConfigError(f"config key {key!r}: expected boolean, got {value!r}")
    return _BOOL[v]


def _parse_num(cast, value: str, key: str):
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad number {value!r}") from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
