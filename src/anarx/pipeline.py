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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .combiner import CombinerState
from .errors import (
    AnarxError,
    ConfigError,
    CorruptSnapshot,
    DegenerateRange,
    DegenerateStep,
    EmptySeries,
    NumericalDivergence,
    ParseError,
    check_fields,
    is_integer,
    not_text,
    read_count,
    read_float,
    read_floats,
)
from .model import AnarxModel, EvolutionPolicy, build_anarx

log = logging.getLogger("anarx")


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

    ``column`` may be a zero-based index (negative counts from the last
    cell), a header name, or None for the first column; anything else
    (a float, a bool) raises ParseError. The file is read as UTF-8, a
    leading byte-order mark ignored, and tokenized by :mod:`csv`, so a
    quoted cell may hold commas, and LF, CRLF and CR line ends read
    alike. Rows whose cells are all blank are skipped. A header row is
    detected by the first remaining row failing to parse as a number in
    the chosen column; a named column always has one. Each cell is
    parsed by ``float``, surrounding whitespace allowed, and must be
    finite. Row numbers in errors are 1-based file lines; a row whose
    quoted cell spans lines is cited by its last line. Bytes that are
    not UTF-8 and a cell longer than ``csv.field_size_limit()`` raise
    ParseError too, naming their line.
    """
    if not (column is None or isinstance(column, str) or is_integer(column)):
        raise ParseError(f"column must be a name or an integer index, got {column!r}")
    text = _read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(_data_rows(reader))
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptySeries(f"{path}: no data rows")

    start = 0
    if isinstance(column, str):
        header = [cell.strip() for cell in rows[0]]
        if column not in header:
            raise ParseError(f"{path}: column {column!r} not found in header {header}")
        idx = header.index(column)
        start = 1
        name, label = column, repr(column)
    else:
        idx = 0 if column is None else int(column)
        name, label = None, idx
        try:
            float(rows[0][idx])
        except (ValueError, IndexError):
            header = [cell.strip() for cell in rows[0]]
            name = header[idx] if -len(header) <= idx < len(header) else None
            start = 1

    try:
        values = np.fromiter(map(float, map(str.strip, map(itemgetter(idx), rows[start:]))),
                             float, len(rows) - start)
        if not np.isfinite(values).all():
            raise ValueError  # a value that is not finite is a bad row too
    except (ValueError, IndexError):
        raise _bad_row(text, path, idx, label, start) from None
    if len(values) < 2:
        raise EmptySeries(f"{path}: fewer than 2 data rows")
    return SeriesFrame(values, name=name or os.path.splitext(os.path.basename(str(path)))[0])


def _data_rows(reader):
    """The rows of a CSV reader that hold a cell other than whitespace."""
    return (row for row in reader if row and (row[0].strip() or any(map(str.strip, row))))


def _read_text(path) -> str:
    """The file ``path`` read once and decoded as UTF-8, a leading
    byte-order mark dropped. Bytes that are not UTF-8 raise ParseError
    naming the line of the first (the error's bytes omit the mark)."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise not_text(f"{path}:", exc) from None


def _bad_row(text: str, path, idx: int, label, start: int) -> ParseError:
    """The error for the first row after the ``start`` leading data rows
    of ``path``'s ``text`` whose cell ``idx`` is missing, not a number or
    not finite. The text is tokenized again, so that each row comes with
    its file line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in islice(_data_rows(reader), start, None):
        line = reader.line_num
        if not -len(row) <= idx < len(row):
            return ParseError(f"{path}: row {line} has no column {label}")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            return ParseError(f"{path}: non-numeric cell {cell!r} at row {line}")
        if not math.isfinite(v):
            return ParseError(f"{path}: non-finite value at row {line}")


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
    "node_kind": ("neo_fuzzy",),
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
        check_fields(self, _invalid)
        if self.training is None:
            self.training = "independent" if self.weighted else "stacked"
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                _invalid(key, f"expected one of {allowed}, got {getattr(self, key)!r}")
        if self.training == "independent" and not self.weighted:
            # each node fits the value alone, so their plain sum is about n times it
            raise ConfigError("config keys 'weighted', 'training': independent needs weighted")
        if self.evolution not in (None, "auto") and not isinstance(self.evolution, EvolutionPolicy):
            _invalid("evolution", f"expected off, 'auto' or a policy, got {self.evolution!r}")
        for key in ("n_nodes", "h", "q", "train_len"):
            if getattr(self, key) < 1:
                _invalid(key, f"must be positive, got {getattr(self, key)}")
        if self.test_len < 0:
            _invalid("test_len", f"must be nonnegative, got {self.test_len}")
        if self.q > self.h:
            _invalid("q", f"spline order {self.q} exceeds h = {self.h}")
        if self.learner == "rls" and not 0.0 < self.alpha <= 1.0:
            _invalid("alpha", f"rls needs alpha in (0, 1], got {self.alpha}")
        if self.learner == "adaptive" and not 0.0 <= self.alpha <= 1.0:
            _invalid("alpha", f"adaptive needs alpha in [0, 1], got {self.alpha}")
        if self.eta_lambda <= 0.0:
            _invalid("eta_lambda", f"must be positive, got {self.eta_lambda}")

    def to_dict(self) -> dict:
        # every other field is a scalar, which asdict would deep-copy
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.evolution, EvolutionPolicy):
            d["evolution"] = asdict(self.evolution)
        return d


@dataclass(slots=True)
class StepRecord:
    k: int
    y: float
    y_hat: float
    error: float
    n_active: int
    c: tuple | None = None


class StepRecords(Sequence):
    """A run's per-step records, read-only, kept as columns.

    ``y`` and ``y_hat`` hold step k's value and prediction in model
    units, ``n_active`` the pool size that made the prediction, and
    ``c``, on a weighted run only (None otherwise), the combiner's
    weights after the step. Reading step k builds its
    :class:`StepRecord`, with ``error = y - y_hat``.
    """

    def __init__(self, y: list, y_hat: list, n_active: list, c: list | None = None) -> None:
        self.y, self.y_hat, self.n_active, self.c = y, y_hat, n_active, c

    def __len__(self) -> int:
        return len(self.y_hat)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = range(len(self))[index]
        y, y_hat = self.y[k], self.y_hat[k]
        c = None if self.c is None else tuple(self.c[k])
        return StepRecord(k, y, y_hat, y - y_hat, self.n_active[k], c)


@dataclass
class ForecastReport:
    """Per-step records plus the summary a benchmark table needs.

    ``steps`` is a read-only sequence of :class:`StepRecord`, a view
    over the run's columns (:class:`StepRecords`). ``forecaster`` is the
    forecaster that produced the steps, in its final state. ``anarx
    snapshot save`` saves it, so the report keeps it alive as long as
    the report lives.
    """

    steps: Sequence
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

    ``combiner`` is None (a plain pool) or holds one weight per node.
    ``scale`` is None (model units are raw units) or the min-max
    normalization ``(lo, hi)``, two finite floats with lo < hi.
    ``evolution`` is None (off), ``"auto"`` (the default
    :class:`EvolutionPolicy`, its thresholds at 1.5x/0.75x of the
    long-run RMSE) or an :class:`EvolutionPolicy`. The controller
    sees learned steps only and holds all evolution state: for the last
    ``window`` of them since the last structure change, ``err_window``
    holds the squared errors and ``contrib_window`` the node forecasts
    that :meth:`AnarxModel.evolve` reads to choose a node to prune;
    ``long_run_sq`` sums the squared errors of all ``learned_steps``.
    ``degenerate_steps`` counts skipped combiner updates,
    ``skipped_updates`` skipped node updates by reason.

    The forecaster saves and restores itself, as its model and combiner
    do: :meth:`state_dict` is the payload a snapshot stores, and
    :meth:`from_state` rebuilds the forecaster from it. The state holds
    each number and setting once. It does not hold the run that built
    the forecaster (the ``bench`` report records that), nor the two
    counters.
    """

    def __init__(self, model: AnarxModel, combiner: CombinerState | None = None,
                 scale: tuple | None = None, evolution: EvolutionPolicy | str | None = None) -> None:
        if not (evolution is None or evolution == "auto" or isinstance(evolution, EvolutionPolicy)):
            raise ValueError(f"evolution must be None, 'auto', or a policy, got {evolution!r}")
        if scale is not None:
            scale = tuple(map(float, scale))
            if len(scale) != 2 or not -math.inf < scale[0] < scale[1] < math.inf:
                raise ValueError(f"scale must be two finite floats lo < hi, got {scale}")
        if combiner is not None and combiner.n != model.n:
            raise ValueError(f"combiner has {combiner.n} weights, the pool has {model.n} nodes")
        self.model = model
        self.combiner = combiner
        self.scale = scale
        # a prediction's raw value is pred * span + lo, the prediction itself without a scale
        self._span, self._lo = (1.0, 0.0) if scale is None else (scale[1] - scale[0], scale[0])
        self.evolution = evolution
        # the policy evolve applies: under "auto" the default policy, whose
        # two thresholds each learned step sets from the long-run RMSE
        self._policy = EvolutionPolicy() if evolution == "auto" else evolution
        window = self._policy.window if evolution is not None else None
        self.err_window: deque = deque(maxlen=window)
        self.contrib_window: deque = deque(maxlen=window)
        self.long_run_sq = 0.0
        self.learned_steps = 0
        self.degenerate_steps = 0
        self.skipped_updates: Counter = Counter()

    def _to_model_units(self, v: float) -> float:
        # without a scale, (v - 0.0) / 1.0 is v, -0.0 included
        return (float(v) - self._lo) / self._span

    def _to_raw_units(self, v: float) -> float:
        # without a scale, v * 1.0 + 0.0 would turn -0.0 into 0.0
        return float(v) * self._span + self._lo if self.scale else float(v)

    def step(self, y_raw: float, learn: bool = True) -> float:
        """Predict the incoming raw value, then absorb it. Returns the
        prediction in raw units.

        A ``y_raw`` that is not finite in model units raises ParseError,
        and a prediction that is not finite in model or raw units, or in
        a learned step of an evolving forecaster a squared error that
        would make the long-run sum not finite, NumericalDivergence, each
        before any state moves, so the next value steps as if this one
        had not come.
        """
        y = self._to_model_units(y_raw)
        if not math.isfinite(y):
            raise ParseError(f"input value {y_raw!r} is not finite in model units")
        return self._to_raw_units(self.advance(y, learn))

    def advance(self, y: float, learn: bool = True) -> float:
        """The step in model units: predict ``y``, then absorb it. Returns
        the prediction.

        A sum that leaves the float range raises NumericalDivergence too,
        possibly after the learner moved: ``math.fsum`` raises
        OverflowError, or ValueError for inf - inf, where ``+`` would give
        inf or NaN.
        """
        model, combiner = self.model, self.combiner
        try:
            forecasts = model.node_forecasts()
            pred = combiner.combine(forecasts) if combiner is not None else math.fsum(forecasts)
            if not math.isfinite(pred * self._span + self._lo):
                # typical cause: covariance wind-up of forgetting-factor RLS
                # under locally excited regressors
                raise NumericalDivergence("prediction is no longer finite")
            if not learn:
                model.observe(y)
                return pred
            if self.evolution is not None:
                sq = (y - pred) * (y - pred)
                # an infinite error sum would save a file no load reads
                if not math.isfinite(self.long_run_sq + sq):
                    raise NumericalDivergence(f"squared error {sq!r} leaves the float range")
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
                self._evolve(sq, forecasts)
            return pred
        except (OverflowError, ValueError) as exc:
            # the fsums of combine, train_step and optimal_step; nothing
            # else in a step raises either from a state that loaded
            raise NumericalDivergence(f"a sum is no longer finite ({exc})") from None

    def _evolve(self, sq: float, forecasts: list) -> None:
        """Record a learned step's squared error and node forecasts; with
        a full window, maybe evolve."""
        self.long_run_sq += sq
        self.learned_steps += 1
        window = self.err_window
        window.append(sq)
        self.contrib_window.append(forecasts)
        if len(window) < window.maxlen:
            return
        if self.evolution == "auto":
            long_run_rmse = math.sqrt(self.long_run_sq / self.learned_steps)
            self._policy.add_threshold = 1.5 * long_run_rmse
            self._policy.remove_threshold = 0.75 * long_run_rmse
        # summed oldest first on every step; a running sum would round
        # differently and could move a structure change
        rmse = math.sqrt(sum(window) / window.maxlen)
        n = self.model.n
        self.model.evolve(self._policy, rmse, self.contrib_window)
        if self.model.n == n:
            return
        window.clear()
        self.contrib_window.clear()
        if self.combiner is not None:
            if self.model.n > n:
                self.combiner.extend(1)
            else:
                self.combiner.truncate(self.model.n)

    def state_dict(self) -> dict:
        """The forecaster's state: its model and combiner (None on a
        plain pool) as they save themselves, the scale and the evolution
        controller, None when evolution is off, otherwise the policy
        (``"auto"`` or the policy's fields), the error window, the
        long-run squared-error sum, the learned-step count and the
        contribution window (``"contrib"``)."""
        evolution = self.evolution
        if evolution is not None:
            evolution = {
                "policy": evolution if evolution == "auto" else vars(evolution).copy(),
                "err_window": list(self.err_window),
                "long_run_sq": self.long_run_sq,
                "learned_steps": self.learned_steps,
                "contrib": [list(row) for row in self.contrib_window],
            }
        return {
            "model": self.model.state_dict(),
            "combiner": self.combiner.state_dict() if self.combiner else None,
            "scale": list(self.scale) if self.scale else None,
            "evolution": evolution,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineForecaster":
        """Rebuild a forecaster from :meth:`state_dict` output.

        Raises CorruptSnapshot for a state no forecaster could have
        saved: an error window and a contribution window of different
        lengths, or longer than the policy window; negative squared
        errors; a learned-step count that does not cover the window;
        contribution rows that are not one value per node; or a number
        that is not a finite JSON number, or a count that is not an
        integer in range (see :mod:`anarx.errors`). The model, the
        combiner, the scale and the policy raise their own errors, and
        the constructor a ValueError for a combiner sized for another
        pool or a bad scale.
        """
        model = AnarxModel.from_state(state["model"])
        combiner = CombinerState.from_state(state["combiner"]) if state.get("combiner") else None
        scale, saved = state.get("scale"), state["evolution"]
        policy = None if saved is None else saved["policy"]
        evolution = (policy if saved is None or policy == "auto"
                     else EvolutionPolicy.from_state(policy))
        forecaster = cls(model, combiner, None if scale is None else read_floats(scale, "scale"),
                         evolution)
        if saved is None:
            return forecaster
        window = read_floats(saved["err_window"], "error window")
        long_run_sq = read_float(saved["long_run_sq"], "long-run squared error")
        learned_steps = read_count(saved["learned_steps"], "learned step count", len(window))
        if type(saved["contrib"]) is not list:
            raise CorruptSnapshot("contribution window must be a list of rows")
        rows = [read_floats(row, "contribution row") for row in saved["contrib"]]
        # the forecaster appends to both windows on every learned step and
        # clears both on a structure change; a row holds one value per node
        maxlen = forecaster.err_window.maxlen
        if len(rows) != len(window) or len(window) > maxlen or any(len(r) != model.n for r in rows):
            raise CorruptSnapshot(f"{len(window)} window errors and {len(rows)} contribution rows "
                                  f"of {model.n} values, the policy window is {maxlen}")
        if min([long_run_sq, *window]) < 0.0:
            raise CorruptSnapshot("squared errors must be nonnegative")
        forecaster.err_window.extend(window)
        forecaster.contrib_window.extend(rows)
        forecaster.long_run_sq, forecaster.learned_steps = long_run_sq, learned_steps
        return forecaster


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
        training=config.training,
        learner=config.learner,
        alpha=config.alpha,
    )
    combiner = CombinerState(config.n_nodes, eta_lambda=config.eta_lambda) if config.weighted else None
    return work, OnlineForecaster(model, combiner, scale, evolution=config.evolution)


def _rmse(ys: list, y_hat: list, segment: str) -> float:
    """The RMSE of one segment; NumericalDivergence, naming the segment,
    when an error, its square or their sum leaves the float range."""
    with np.errstate(over="raise"):
        try:
            return float(np.sqrt(np.mean((np.asarray(ys) - np.asarray(y_hat)) ** 2)))
        except FloatingPointError:
            raise NumericalDivergence(f"the {segment} segment's RMSE is not finite") from None


def run_experiment(series: SeriesFrame, config: RunConfig) -> ForecastReport:
    """Stream the series through a fresh forecaster per the benchmark
    protocol; the report carries that forecaster in its final state."""
    t0 = time.perf_counter()
    work, forecaster = build_forecaster(series, config)
    model = forecaster.model
    combiner = forecaster.combiner
    total = config.train_len + config.test_len
    structure_events = []
    ys = work.values[:total].tolist()
    y_hat, n_active_col = [], []
    # the combiner binds a new weight list at each step, so a step's list
    # is its record of c
    c_col = [] if combiner is not None else None

    for k, y in enumerate(ys):
        n_active = model.n
        try:
            pred = forecaster.advance(y, (k < config.train_len) or not config.freeze_test)
        except AnarxError as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        y_hat.append(pred)
        n_active_col.append(n_active)
        if c_col is not None:
            c_col.append(combiner._c)
        if model.n != n_active:
            structure_events.append((k, "added" if model.n > n_active else "removed", model.n))

    cut = config.train_len
    rmse_train = _rmse(ys[:cut], y_hat[:cut], "training")
    rmse_test = _rmse(ys[cut:], y_hat[cut:], "test") if config.test_len else 0.0
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
        steps=StepRecords(ys, y_hat, n_active_col, c_col),
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


def _field_types(cls) -> dict:
    """Each field's declared type, the first of its alternatives:
    ``str | None`` reads as ``str``."""
    return {f.name: f.type.partition(" |")[0] for f in fields(cls)}


# the config keys and their types; ``evolution`` itself is read apart
_RUN_TYPES = _field_types(RunConfig)
_EVOLUTION_TYPES = _field_types(EvolutionPolicy)


def parse_config_text(text: str) -> RunConfig:
    """Parse a flat ``key = value`` file into a RunConfig.

    Keys mirror the RunConfig field names, each given once; evolution
    policy fields are flattened as ``evolution_window`` etc., and only
    ``evolution = true`` takes them. ``evolution = true`` without them
    means ``auto``. Lines starting with ``#`` and blank lines are ignored.
    """
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"config key {key!r} is given twice, on lines {lines[key]} and {lineno}")
        raw[key] = value.strip()
        lines[key] = lineno

    kwargs: dict = {}
    evolution_kwargs: dict = {}
    evolution = False
    for key, value in raw.items():
        if key == "evolution":
            evolution = "auto" if value.lower() == "auto" else _parse("bool", value, key)
        elif key.startswith("evolution_"):
            sub = key[len("evolution_") :]
            if sub not in _EVOLUTION_TYPES:
                raise ConfigError(f"unknown evolution key {key!r}")
            evolution_kwargs[sub] = _parse(_EVOLUTION_TYPES[sub], value, key)
        elif key in _RUN_TYPES:
            kwargs[key] = _parse(_RUN_TYPES[key], value, key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if evolution_kwargs:
        # explicit fields make a fixed policy; under auto the thresholds
        # track the long-run RMSE during the run
        if evolution is not True:
            keys = ", ".join(f"'evolution_{k}'" for k in evolution_kwargs)
            raise ConfigError(f"config keys 'evolution', {keys}: only evolution = true "
                              f"takes a fixed policy's fields")
        try:
            kwargs["evolution"] = EvolutionPolicy(**evolution_kwargs)
        except ValueError as exc:
            keys = ", ".join(f"evolution_{k}" for k in evolution_kwargs)
            raise ConfigError(f"config keys {keys}: {exc}") from None
    elif evolution:
        kwargs["evolution"] = "auto"
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"incomplete config: {exc}") from None


def _parse(kind: str, value: str, key: str):
    """``value`` read as a field of type ``kind``: str, bool, int or float."""
    if kind == "str":
        return value
    if kind == "bool":
        if value.lower() not in _BOOL:
            raise ConfigError(f"config key {key!r}: expected boolean, got {value!r}")
        return _BOOL[value.lower()]
    try:
        return int(value) if kind == "int" else float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad number {value!r}") from None


def load_config(path) -> RunConfig:
    return parse_config_text(_read_text(path))
