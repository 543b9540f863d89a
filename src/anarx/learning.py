"""Recursive estimators for linear-in-parameter models, batched by row.

Each learner owns a 2-d weight block ``w`` of shape (rows, cols) and fits
every row as its own linear model against a shared target.
``step(rows, y, pred=None)`` takes one regressor per row for the first
``k = len(rows) <= rows`` rows, predicts each with the row's current
weights (:meth:`predict`), and updates those rows in place; rows
``[k:]`` and their state are not touched. A caller that already holds
those k predictions, computed as :meth:`predict` computes them, passes
them as ``pred`` so they are not computed twice. A row whose update
would divide by a squared regressor norm or gain at or below
``EPS_REG`` is masked: its weights stay as they were, and ``step``
returns it as ``(row, "<error class>: <message>")`` in the list of
skipped rows, which is empty when every row updated.

A regressor is given by its support. Row ``i``'s regressor ``rows[i]``
is a sequence of equal-width blocks that fill the row's ``cols``
columns, each block a support ``(start, values)`` (see
:mod:`anarx.numerics`): the model hands a row of independent training
its node's support as one block, and the row of stacked training one
block per node. A step reads and writes only the columns the supports
fire.

The summation contract is that of :mod:`anarx.numerics`: a one-block
row sums its prediction and its squared norm over the support, left to
right from zero, which for two fired values is the bits of numpy's
pairwise sum over the dense row; a row of several blocks reduces its
dense row with numpy's pairwise sum. RLS sums ``P phi`` and
``phi'P phi`` left to right over the support columns. Either way each
row of a batched learner computes bit for bit what a one-row learner
computes on the same inputs, and KWH and the adaptive learner add
``error / gain * value`` to each fired weight, the bits a dense update
gives it.

``step`` never rebinds ``w`` or the per-row state, so a caller holding
views of them sees every update. ``resize(rows, cols)`` reallocates: it
keeps the overlapping block and gives new coordinates zero weight and
fresh state. ``row_state(i)`` and ``load_row(i, state)`` save and
restore one row.

* :class:`RlsLearner` - exponentially weighted recursive least squares.
* :class:`KwhLearner` - normalized one-step projection; the a-posteriori
  residual on the incoming sample is exactly zero.
* :class:`AdaptiveLearner` - projection with a leaky scalar gain
  accumulator, trading filtering against tracking through ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NumericalDivergence, ZeroGain, ZeroRegressor
from .numerics import EPS_REG, dense, support_dot


def _resized(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Copy the overlapping corner of ``old`` into ``new``; return ``new``."""
    corner = tuple(slice(min(a, b)) for a, b in zip(old.shape, new.shape))
    new[corner] = old[corner]
    return new


class _RowBlock:
    """The weight block the learners share, and its bookkeeping.

    ``params`` names the constructor settings a learner kind takes
    besides the weights; they are its :meth:`settings`.
    """

    params: tuple = ()

    def __init__(self, weights) -> None:
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"weights must be a (rows, cols) block, got {w.shape}")
        self._bind(w)

    def _bind(self, w: np.ndarray) -> None:
        self.w = w
        # the block's items as Python floats, row after row: a support's
        # few weights read and write faster through it than through numpy
        self._flat = memoryview(w.reshape(-1))

    def predict(self, rows) -> list:
        """Each of the first ``len(rows)`` rows' prediction on its regressor."""
        cols = self.w.shape[1]
        return [
            support_dot(self._flat, i * cols + row[0][0], row[0][1]) if len(row) == 1
            else float(np.add.reduce(self.w[i] * dense(row, cols)))
            for i, row in enumerate(rows)
        ]

    def _errors(self, rows, y: float, pred) -> list:
        """``y`` minus the rows' predictions: ``pred`` when the caller has
        them, else :meth:`predict`."""
        y = float(y)
        return [y - p for p in (self.predict(rows) if pred is None else pred)]

    def _check(self, rows) -> None:
        """Raise DimensionMismatch unless there are at most as many
        regressors as rows and each splits the columns into equal blocks
        that hold their supports."""
        n, cols = self.w.shape
        if len(rows) > n:
            raise DimensionMismatch(f"{len(rows)} regressors for {n} learner rows")
        for row in rows:
            if not row or cols % len(row):
                raise DimensionMismatch(f"{len(row)} blocks do not split {cols} columns")
            width = cols // len(row)
            for start, values in row:
                if start < 0 or start + len(values) > width:
                    raise DimensionMismatch(
                        f"support of {len(values)} values at {start} overruns a block of {width}")

    def resize(self, rows: int, cols: int) -> None:
        self._bind(_resized(self.w, np.zeros((rows, cols))))

    def settings(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.params}}

    def row_state(self, i: int) -> dict:
        return {**self.settings(), "w": self.w[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        """Restore row ``i`` from :meth:`row_state` output; the caller
        checks that the state's settings are this learner's."""
        w = np.asarray(state["w"], dtype=float)
        if w.shape != self.w.shape[1:]:
            raise DimensionMismatch(
                f"row {i} has weights of shape {w.shape}, the learner needs {self.w.shape[1:]}"
            )
        self.w[i] = w


class _Projection(_RowBlock):
    """KWH and the adaptive learner: each row moves along its regressor
    by ``error / gain``, where the gain grows with the squared norm
    (:meth:`_gain`); a row whose gain is at or below ``EPS_REG`` is
    skipped with ``exc`` and ``what`` in its reason."""

    def _sq_norm(self, row) -> float:
        """The row's squared regressor norm, summed as its prediction is."""
        if len(row) == 1:
            values = row[0][1]
            return support_dot(values, 0, values)
        phi = dense(row, self.w.shape[1])
        return float(np.add.reduce(phi * phi))

    def _project(self, rows, y: float, pred) -> list:
        """The step: add ``error / gain * value`` to each fired weight of
        each row whose gain is above ``EPS_REG``; return the other rows as
        skipped."""
        self._check(rows)
        skipped = []
        w = self._flat
        cols = self.w.shape[1]
        for i, (row, error) in enumerate(zip(rows, self._errors(rows, y, pred))):
            gain = self._gain(i, self._sq_norm(row))
            if gain <= EPS_REG:
                skipped.append((i, f"{self.exc.__name__}: {self.what} {gain} below {EPS_REG}"))
                continue
            rate = error / gain
            width = cols // len(row)
            offset = i * cols
            for start, values in row:
                c = offset + start
                for v in values:
                    w[c] += rate * v
                    c += 1
                offset += width
        return skipped


class RlsLearner(_RowBlock):
    """Recursive least squares with exponential forgetting.

    ``alpha`` in (0, 1] is the forgetting factor; alpha = 1 recovers
    ordinary recursive least squares. Each row's covariance ``P[i]``
    starts as ``p0 * I`` (diffuse prior) and is updated in place.

    A step costs what the regressors' support costs plus one rank-1
    downdate. ``P phi`` is the sum of the rows ``phi_j * P[j]`` over the
    row's support columns ``j`` (block offset plus start), added left to
    right from zero (``P`` is symmetric, so its rows are its columns),
    and ``denom = alpha + phi'P phi`` is a left-to-right sum too. A
    column where a row's regressor is zero adds exact zeros, which leave
    a left-to-right sum as it is, so each row gets the bits of a sum over
    every column. With ``b = P phi / sqrt(denom)`` the downdate is
    ``P -= b b'``, then ``P /= alpha``.

    ``P`` stays exactly symmetric by construction, so it is never
    re-symmetrized. The downdate subtracts ``b_i * b_j`` from ``P_ij``
    and ``b_j * b_i`` from ``P_ji``; IEEE multiplication commutes, so
    both entries change by the same bits, and dividing both by ``alpha``
    keeps them equal. ``resize`` only adds or drops matching rows and
    columns, and ``load_row`` rejects a ``P`` that is not finite and
    exactly symmetric.

    ``denom`` is positive while ``P`` is positive definite. When a row's
    ``denom`` is not positive and finite (``P`` lost definiteness to
    rounding, or wound up to overflow), ``step`` raises
    NumericalDivergence naming the row before any weight or covariance
    moves, so the square root never turns it into nan in ``P``.
    """

    kind = "rls"
    params = ("alpha", "p0")

    def __init__(self, weights, alpha: float = 1.0, p0: float = 1e4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if p0 <= 0.0:
            raise ValueError(f"p0 must be positive, got {p0}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self.P = self._prior(*self.w.shape)

    def _prior(self, rows: int, cols: int) -> np.ndarray:
        """``p0 * I`` for every row."""
        P = np.zeros((rows, cols, cols))
        P.reshape(rows, -1)[:, :: cols + 1] = self.p0  # the diagonals
        return P

    def _support(self, rows) -> tuple:
        """The rows' support columns and values as two (k, L) arrays,
        L >= 1; a row firing fewer than L columns is padded with zero
        values at its first column (0 when it fires none)."""
        cols = self.w.shape[1]
        C, V, ends = [], [], []
        for row in rows:
            width = cols // len(row)
            offset = 0
            for start, values in row:
                C += range(offset + start, offset + start + len(values))
                V += values
                offset += width
            ends.append(len(V))
        sizes = [end - begin for begin, end in zip([0, *ends], ends)]
        longest = max(sizes, default=0) or 1
        if sizes.count(longest) != len(sizes):
            padded_C, padded_V = [], []
            for end, size in zip(ends, sizes):
                pad = longest - size
                padded_C += C[end - size : end] + [C[end - size] if size else 0] * pad
                padded_V += V[end - size : end] + [0.0] * pad
            C, V = padded_C, padded_V
        return (np.array(C, dtype=np.intp).reshape(len(rows), longest),
                np.array(V).reshape(len(rows), longest))

    def step(self, rows, y: float, pred=None) -> list:
        self._check(rows)
        k = len(rows)
        w, P = self.w[:k], self.P[:k]
        error = np.array(self._errors(rows, y, pred))
        C, V = self._support(rows)
        at = np.arange(k)[:, None]
        # a reduce over the middle axis adds whole rows in order (at
        # cols = 1 there is one term at most)
        G = P[at, C]
        G *= V[:, :, None]
        Pphi = np.add.reduce(G, axis=1, initial=0.0)
        # freed before the downdate's (k, cols, cols) product: with both
        # alive at full support, glibc hands heap pages back and faults
        # them in again on every step
        del G
        denom = np.add.accumulate(V * Pphi[at, C], axis=1)[:, -1] + self.alpha
        for i, d in enumerate(denom.tolist()):
            if not 0.0 < d < math.inf:
                raise NumericalDivergence(
                    f"RLS row {i}: alpha + phi'P phi = {d} is not positive and finite"
                )
        w += Pphi * (error / denom)[:, None]
        b = Pphi / np.sqrt(denom)[:, None]
        # each entry of b b' is one product, so einsum gives the bits of
        # the broadcast product, and on wide blocks in half the time
        P -= np.einsum("ki,kj->kij", b, b)
        if self.alpha != 1.0:
            P /= self.alpha
        return []

    def resize(self, rows: int, cols: int) -> None:
        super().resize(rows, cols)
        self.P = _resized(self.P, self._prior(rows, cols))

    def row_state(self, i: int) -> dict:
        return {**super().row_state(i), "P": self.P[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        P = np.asarray(state["P"], dtype=float)
        cols = self.w.shape[1]
        if P.shape != (cols, cols):
            raise DimensionMismatch(f"covariance must have shape ({cols}, {cols}), got {P.shape}")
        if not (np.isfinite(P).all() and np.array_equal(P, P.T)):
            # every saved P is symmetric (see the class docstring)
            raise DimensionMismatch("covariance must be finite and exactly symmetric")
        super().load_row(i, state)
        self.P[i] = P


class KwhLearner(_Projection):
    """Normalized gradient step: project onto the newest sample's hyperplane."""

    kind = "kwh"
    exc, what = ZeroRegressor, "squared regressor norm"

    def _gain(self, i: int, sq_norm: float) -> float:
        return sq_norm

    def step(self, rows, y: float, pred=None) -> list:
        return self._project(rows, y, pred)


class AdaptiveLearner(_Projection):
    """Projection with a leaky accumulator gain per row.

    The gain update runs first: r <- alpha * r + |phi|^2, and the new r
    divides the innovation. With alpha = 0 every step reduces to the
    normalized projection; from r = 0 (where every row starts) the first
    step does too, whatever alpha is. Larger alpha smooths the gain and
    filters noise at the cost of slower tracking.
    """

    kind = "adaptive"
    params = ("alpha",)
    exc, what = ZeroGain, "gain accumulator"

    def __init__(self, weights, alpha: float = 0.9) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self._bind_r(np.zeros(len(self.w)))

    def _bind_r(self, r: np.ndarray) -> None:
        self.r = r
        self._r = memoryview(r)  # items as Python floats

    def _gain(self, i: int, sq_norm: float) -> float:
        r = self._r
        r[i] = gain = self.alpha * r[i] + sq_norm
        return gain

    def step(self, rows, y: float, pred=None) -> list:
        return self._project(rows, y, pred)

    def resize(self, rows: int, cols: int) -> None:
        super().resize(rows, cols)
        self._bind_r(_resized(self.r, np.zeros(rows)))

    def row_state(self, i: int) -> dict:
        return {**self.settings(), "r": float(self.r[i]), "w": self.w[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        r = float(state["r"])
        super().load_row(i, state)
        self.r[i] = r


LEARNERS = {cls.kind: cls for cls in (RlsLearner, KwhLearner, AdaptiveLearner)}


def make_learner(kind: str, weights, alpha: float = 1.0, p0: float = 1e4):
    """Build a learner over the (rows, cols) block ``weights``, which
    every step updates in place; each kind takes the settings it uses."""
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}")
    cls = LEARNERS[kind]
    given = {"alpha": alpha, "p0": p0}
    return cls(weights, **{name: given[name] for name in cls.params})
