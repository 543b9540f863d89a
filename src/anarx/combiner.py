"""Convexity-constrained combination of per-node forecasts.

The ensemble weight vector ``c`` minimizes the accumulated squared
combination error subject to the unbiasedness condition sum(c) = 1, so
that agreeing forecasts pass through unchanged. The stream is online, so
the one route to the optimum is a primal-dual iteration, one step per
sample, with the error-minimizing primal rate of each step
(:meth:`CombinerState.optimal_step`).

The step works on n scalars, so it runs on Python floats:
``c`` is read out as a list once per call, the forecasts are taken as
given (the model hands over a list of Python floats), every sum over the
pool is ``math.fsum`` (correctly rounded, so a zero-weight node joining
moves nothing), and ``c`` is written back into its numpy array. Each
expression keeps the operand order of the element-wise numpy form,
``c_i + rate * (2 v f_i - lam)``, and a Python float operation is the
binary64 operation numpy applies per element, so the bits are the same:
forecasts passed as a list, a tuple or a numpy array give the same sums
and the same new ``c``.
"""

from __future__ import annotations

from math import fsum
from operator import mul

import numpy as np

from .errors import DegenerateStep
from .numerics import EPS_REG


class CombinerState:
    """Ensemble weights, multiplier, and its learning rate.

    Starts at the uniform unbiased point c = (1/n, ..., 1/n), lam = 0.
    ``combine`` is pure; ``optimal_step`` mutates the state in place
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
        c = [ci + rate * (2.0 * v * fi - self.lam) for ci, fi in zip(c, f)]
        self.c[:] = c
        # the multiplier moves up the constraint residual sum(c) - 1
        self.lam += self.eta_lambda * (fsum(c) - 1.0)

    def _operands(self, forecasts) -> tuple:
        """``c`` as a list of Python floats, and the forecasts as given."""
        c = self.c.tolist()
        if len(forecasts) != len(c):
            raise ValueError(f"forecast vector must have length {len(c)}, got {len(forecasts)}")
        return c, forecasts

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
