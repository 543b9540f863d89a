"""Recursive estimators for linear-in-parameter models, batched by row.

Each learner owns a 2-d weight block ``w`` of shape (rows, cols) and fits
every row as its own linear model against a shared target.
``step(Phi, y, pred=None)`` takes one regressor per row for the first
``k = len(Phi) <= rows`` rows, predicts each with the row's current
weights (:meth:`predict`), and updates those rows in place; rows
``[k:]`` and their state are not touched. A caller that already holds
those k predictions, computed as :meth:`predict` computes them, passes
them as ``pred`` so they are not computed twice. A row whose update
would divide by a squared regressor norm or gain at or below
``EPS_REG`` is masked: its weights stay as they were, and ``step``
returns it as ``(row, "<error class>: <message>")`` in the list of
skipped rows, which is empty when every row updated.

``step`` never rebinds ``w`` or the per-row state, so a caller holding
views of them sees every update. ``resize(rows, cols)`` reallocates: it
keeps the overlapping block and gives new coordinates zero weight and
fresh state. ``row_state(i)`` and ``load_row(i, state)`` save and
restore one row.

KWH and the adaptive learner reduce with numpy's pairwise sum over a
contiguous last axis. RLS sums ``P phi`` and ``phi'P phi`` left to
right over the regressor's support, which gives the bits a sum over
every column gives. Either way each row of a batched learner computes
bit for bit what a one-row learner computes on the same inputs.

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
from .numerics import EPS_REG


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
        self.w = np.ascontiguousarray(weights, dtype=float)
        if self.w.ndim != 2:
            raise DimensionMismatch(f"weights must be a (rows, cols) block, got {self.w.shape}")

    def predict(self, Phi) -> np.ndarray:
        """Each of the first ``len(Phi)`` rows' prediction on its regressor."""
        return np.add.reduce(self.w[: len(Phi)] * Phi, axis=1)

    def _errors(self, Phi, y: float, pred) -> np.ndarray:
        """``y`` minus the rows' predictions: ``pred`` when the caller has
        them, else :meth:`predict`."""
        return float(y) - (self.predict(Phi) if pred is None else pred)

    def _regressors(self, Phi) -> np.ndarray:
        Phi = np.asarray(Phi, dtype=float)
        rows, cols = self.w.shape
        if Phi.ndim != 2 or Phi.shape[1] != cols or len(Phi) > rows:
            raise DimensionMismatch(
                f"regressors must have shape (k <= {rows}, {cols}), got {Phi.shape}"
            )
        return Phi

    @staticmethod
    def _project(w, Phi, error, gain, exc, what: str) -> list:
        """Add ``error / gain * Phi`` to each row of ``w`` whose gain is
        above ``EPS_REG``; return the other rows as skipped."""
        # the check runs on Python floats: cheaper than numpy calls for
        # the few rows of a pool
        skipped = [(i, f"{exc.__name__}: {what} {g} below {EPS_REG}")
                   for i, g in enumerate(gain.tolist()) if g <= EPS_REG]
        if not skipped:
            w += (error / gain)[:, None] * Phi
        else:
            ok = ~(gain <= EPS_REG)
            w[ok] += (error[ok] / gain[ok])[:, None] * Phi[ok]
        return skipped

    def resize(self, rows: int, cols: int) -> None:
        self.w = _resized(self.w, np.zeros((rows, cols)))

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


class RlsLearner(_RowBlock):
    """Recursive least squares with exponential forgetting.

    ``alpha`` in (0, 1] is the forgetting factor; alpha = 1 recovers
    ordinary recursive least squares. Each row's covariance ``P[i]``
    starts as ``p0 * I`` (diffuse prior) and is updated in place.

    A step costs what the regressors' support costs plus one rank-1
    downdate. ``P phi`` is the sum of the rows ``phi_j * P[j]`` over the
    columns ``j`` that any row of the block fires, added left to right
    from zero (``P`` is symmetric, so its rows are its columns), and
    ``denom = alpha + phi'P phi`` is a left-to-right sum too. A column
    where a row's regressor is zero adds exact zeros, which leave a
    left-to-right sum as it is, so each row gets the bits of a sum over
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

    def step(self, Phi, y: float, pred=None) -> list:
        Phi = self._regressors(Phi)
        k = len(Phi)
        w, P = self.w[:k], self.P[:k]
        error = self._errors(Phi, y, pred)
        # the columns any row fires; a reduce over the middle axis adds
        # whole rows in order (at cols = 1 there is one term at most)
        nz = np.logical_or.reduce(Phi, axis=0).nonzero()[0]
        G = P.take(nz, axis=1)
        G *= Phi.take(nz, axis=1)[:, :, None]
        Pphi = np.add.reduce(G, axis=1, initial=0.0)
        # freed before the downdate's (k, cols, cols) product: with both
        # alive at full support, glibc hands heap pages back and faults
        # them in again on every step
        del G
        denom = np.add.accumulate(Phi * Pphi, axis=1)[:, -1] + self.alpha
        for i, d in enumerate(denom.tolist()):
            if not 0.0 < d < math.inf:
                raise NumericalDivergence(
                    f"RLS row {i}: alpha + phi'P phi = {d} is not positive and finite"
                )
        w += Pphi * (error / denom)[:, None]
        b = Pphi / np.sqrt(denom)[:, None]
        P -= b[:, :, None] * b[:, None, :]
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


class KwhLearner(_RowBlock):
    """Normalized gradient step: project onto the newest sample's hyperplane."""

    kind = "kwh"

    def step(self, Phi, y: float, pred=None) -> list:
        Phi = self._regressors(Phi)
        w = self.w[: len(Phi)]
        error = self._errors(Phi, y, pred)
        norm2 = np.add.reduce(Phi * Phi, axis=1)
        return self._project(w, Phi, error, norm2, ZeroRegressor, "squared regressor norm")


class AdaptiveLearner(_RowBlock):
    """Projection with a leaky accumulator gain per row.

    The gain update runs first: r <- alpha * r + |phi|^2, and the new r
    divides the innovation. With alpha = 0 every step reduces to the
    normalized projection; from r = 0 (where every row starts) the first
    step does too, whatever alpha is. Larger alpha smooths the gain and
    filters noise at the cost of slower tracking.
    """

    kind = "adaptive"
    params = ("alpha",)

    def __init__(self, weights, alpha: float = 0.9) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self.r = np.zeros(len(self.w))

    def step(self, Phi, y: float, pred=None) -> list:
        Phi = self._regressors(Phi)
        k = len(Phi)
        w, r = self.w[:k], self.r[:k]
        error = self._errors(Phi, y, pred)
        # on a few rows this beats r *= alpha; r += ..., whose in-place
        # multiply by a Python float is a slow numpy call
        r[:] = self.alpha * r + np.add.reduce(Phi * Phi, axis=1)
        return self._project(w, Phi, error, r, ZeroGain, "gain accumulator")

    def resize(self, rows: int, cols: int) -> None:
        super().resize(rows, cols)
        self.r = _resized(self.r, np.zeros(rows))

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
