"""Convexity-constrained combination of per-node forecasts.

The ensemble weight vector ``c`` minimizes the accumulated squared
combination error subject to the unbiasedness condition sum(c) = 1, so
that agreeing forecasts pass through unchanged. Three routes to the
optimum are provided: a closed-form batch solve on the accumulated error
correlation matrix, a fixed-rate primal-dual iteration, and the same
iteration with the per-step optimal primal rate.

The per-step methods work on n scalars, so they run on Python floats:
``c`` and the forecasts are read out as lists once per call, every sum
over the pool is ``math.fsum`` (correctly rounded, so a zero-weight node
joining moves nothing), and ``c`` is written back into its numpy array.
Each expression keeps the operand order of the element-wise numpy form,
``c_i + rate * (2 v f_i - lam)``, and a Python float operation is the
binary64 operation numpy applies per element, so the bits are the same.
"""

from __future__ import annotations

from math import fsum
from operator import mul

import numpy as np

from .errors import DegenerateStep, SingularCorrelation
from .numerics import EPS_REG

# Condition-number gate before the ridge fallback kicks in.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-8


class ErrorCorrelation:
    """Running sum of outer products of per-node forecast errors."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.R = np.zeros((n, n))
        self.count = 0

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def accumulate(self, y: float, forecasts) -> None:
        v = float(y) - np.asarray(forecasts, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"forecast vector must have length {self.n}")
        self.R += np.outer(v, v)
        self.count += 1

    def extend(self, extra: int = 1) -> None:
        """Grow by zero rows/columns when the node pool grows."""
        n = self.n + extra
        R = np.zeros((n, n))
        R[: self.n, : self.n] = self.R
        self.R = R

    def truncate(self, keep: int) -> None:
        self.R = np.ascontiguousarray(self.R[:keep, :keep])


def batch_solve(corr: ErrorCorrelation | np.ndarray):
    """Closed-form constrained minimizer of c'Rc over sum(c) = 1.

    Returns ``(c, lam, saddle_value)`` where ``lam`` is the multiplier
    satisfying stationarity 2Rc + lam*1 = 0 and ``saddle_value`` equals
    c'Rc at the optimum. Ill-conditioned R falls back to a trace-scaled
    ridge; if even that cannot be solved, SingularCorrelation is raised.
    """
    R = corr.R if isinstance(corr, ErrorCorrelation) else np.asarray(corr, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"R must be square, got shape {R.shape}")
    n = R.shape[0]
    ones = np.ones(n)

    def _try(mat):
        try:
            x = np.linalg.solve(mat, ones)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x)):
            return None
        s = float(ones @ x)
        if not np.isfinite(s) or abs(s) <= 0.0:
            return None
        return x, s

    solved = None
    cond = np.linalg.cond(R)
    if np.isfinite(cond) and cond < COND_LIMIT:
        solved = _try(R)
    if solved is None:
        ridge = RIDGE_SCALE * float(np.trace(R)) / n
        solved = _try(R + ridge * np.eye(n))
    if solved is None:
        raise SingularCorrelation(
            "error correlation matrix is singular even after ridge fallback"
        )
    x, s = solved
    c = x / s
    lam = -2.0 / s
    saddle = 1.0 / s
    return c, lam, saddle


class CombinerState:
    """Ensemble weights, multiplier, and its learning rate.

    Starts at the uniform unbiased point c = (1/n, ..., 1/n), lam = 0.
    ``combine`` is pure; the two step methods mutate the state in place
    (``c`` keeps its array, so a view of it sees every step).
    """

    def __init__(self, n: int, eta_lambda: float = 0.1) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if eta_lambda <= 0.0:
            raise ValueError(f"eta_lambda must be positive, got {eta_lambda}")
        self.c = np.full(n, 1.0 / n)
        self.lam = 0.0
        self.eta_lambda = float(eta_lambda)

    @property
    def n(self) -> int:
        return self.c.size

    def combine(self, forecasts) -> float:
        c, f = self._operands(forecasts)
        return fsum(map(mul, c, f))

    def arrow_hurwicz_step(self, forecasts, y: float, eta_c: float) -> None:
        """Fixed-rate saddle-point iteration: descend in c, ascend in lam."""
        c, f = self._operands(forecasts)
        v = float(y) - fsum(map(mul, c, f))
        self._move([ci + eta_c * (2.0 * v * fi - self.lam) for ci, fi in zip(c, f)])

    def optimal_step(self, forecasts, y: float, pred: float | None = None) -> None:
        """Saddle-point iteration with the error-minimizing primal rate.

        With lam = 0 the c-update is exactly the normalized projection
        onto the newest sample. When the rate denominator vanishes the
        multiplier is still updated, c is left alone, and DegenerateStep
        is raised so callers can count the skip. A caller that holds
        ``combine(forecasts)`` for the current ``c`` passes it as
        ``pred``, so it is not summed again.
        """
        c, f = self._operands(forecasts)
        v = float(y) - (fsum(map(mul, c, f)) if pred is None else pred)
        denom = 2.0 * v * fsum(map(mul, f, f)) - self.lam * fsum(f)
        if abs(denom) <= EPS_REG:
            self.lam += self.eta_lambda * (fsum(c) - 1.0)
            raise DegenerateStep(f"step denominator {denom} below {EPS_REG}")
        rate = v / denom
        self._move([ci + rate * (2.0 * v * fi - self.lam) for ci, fi in zip(c, f)])

    def _operands(self, forecasts) -> tuple:
        """``c`` and the forecasts as lists of Python floats."""
        f = [float(v) for v in forecasts]
        c = self.c.tolist()
        if len(f) != len(c):
            raise ValueError(f"forecast vector must have length {len(c)}, got {len(f)}")
        return c, f

    def _move(self, c: list) -> None:
        """Store the new weights ``c``, then move the multiplier up the
        constraint residual sum(c) - 1."""
        self.c[:] = c
        self.lam += self.eta_lambda * (fsum(c) - 1.0)

    def extend(self, extra: int = 1) -> None:
        """New nodes join with zero weight, preserving sum(c)."""
        self.c = np.concatenate([self.c, np.zeros(extra)])

    def truncate(self, keep: int) -> None:
        """Drop trailing weights; rescale survivors back onto sum(c) = 1."""
        c = np.ascontiguousarray(self.c[:keep])
        total = float(c.sum())
        if abs(total) > EPS_REG:
            c /= total
        else:
            c = np.full(keep, 1.0 / keep)
        self.c = c

    def state_dict(self) -> dict:
        return {"c": self.c.tolist(), "lam": self.lam, "eta_lambda": self.eta_lambda}

    @classmethod
    def from_state(cls, state: dict) -> "CombinerState":
        out = cls(len(state["c"]), eta_lambda=state["eta_lambda"])
        out.c = np.asarray(state["c"], dtype=float)
        out.lam = float(state["lam"])
        return out
