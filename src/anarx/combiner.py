"""Convexity-constrained combination of per-node forecasts.

The ensemble weight vector ``c`` minimizes the accumulated squared
combination error subject to the unbiasedness condition sum(c) = 1, so
that agreeing forecasts pass through unchanged. The stream is online, so
the one route to the optimum is a primal-dual iteration, one step per
sample, with the error-minimizing primal rate of each step
(:meth:`CombinerState.optimal_step`).

The step works on n scalars, so it runs on Python floats: ``c`` is held
as a list of Python floats, the forecasts are taken as given (the model
hands over a list of Python floats), and every sum over the pool is
``math.fsum`` (correctly rounded, so a zero-weight node joining moves
nothing). Each expression keeps the operand order of the element-wise
numpy form, ``c_i + rate * (2 v f_i - lam)``, and a Python float
operation is the binary64 operation numpy applies per element, so the
bits are the same: forecasts passed as a list, a tuple or a numpy array
give the same sums and the same new ``c``.
"""

from __future__ import annotations

from math import fsum, inf
from operator import mul

import numpy as np

from .errors import DegenerateStep, read_float, read_floats
from .numerics import EPS_REG


class CombinerState:
    """Ensemble weights, multiplier, and its learning rate.

    Starts at the uniform unbiased point c = (1/n, ..., 1/n), lam = 0.
    ``combine`` is pure; ``optimal_step``, ``extend`` and ``truncate``
    move the state by binding a new weight list, never by writing into
    the old one, so a caller that keeps the list of one step (a run's
    records do) keeps that step's weights. ``c`` reads the weights as a
    fresh read-only array, and assigning it any length-n sequence sets
    them.
    """

    def __init__(self, n: int, eta_lambda: float = 0.1) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0.0 < eta_lambda < inf:
            raise ValueError(f"eta_lambda must be positive and finite, got {eta_lambda}")
        self._c = [1.0 / n] * n
        self.lam = 0.0
        self.eta_lambda = float(eta_lambda)

    @property
    def c(self) -> np.ndarray:
        """The weights, as a fresh read-only array."""
        c = np.array(self._c, dtype=float)
        c.flags.writeable = False
        return c

    @c.setter
    def c(self, values) -> None:
        c = np.asarray(values, dtype=float)
        if c.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},), got {c.shape}")
        self._c = c.tolist()

    @property
    def n(self) -> int:
        return len(self._c)

    def combine(self, forecasts) -> float:
        return fsum(map(mul, self._weights(forecasts), forecasts))

    def optimal_step(self, forecasts, y: float, pred: float | None = None) -> None:
        """Saddle-point iteration with the error-minimizing primal rate.

        With lam = 0 the c-update is exactly the normalized projection
        onto the newest sample. When the rate denominator vanishes the
        multiplier is still updated, c is left alone, and DegenerateStep
        is raised so callers can count the skip. A caller that holds
        ``combine(forecasts)`` for the current ``c`` passes it as
        ``pred``, so it is not summed again.
        """
        c, f = self._weights(forecasts), forecasts
        v = float(y) - (fsum(map(mul, c, f)) if pred is None else pred)
        denom = 2.0 * v * fsum(map(mul, f, f)) - self.lam * fsum(f)
        if abs(denom) <= EPS_REG:
            self.lam += self.eta_lambda * (fsum(c) - 1.0)
            raise DegenerateStep(f"step denominator {denom} below {EPS_REG}")
        rate = v / denom
        self._c = c = [ci + rate * (2.0 * v * fi - self.lam) for ci, fi in zip(c, f)]
        # the multiplier moves up the constraint residual sum(c) - 1
        self.lam += self.eta_lambda * (fsum(c) - 1.0)

    def _weights(self, forecasts) -> list:
        """The weight list, once ``forecasts`` is checked to match it."""
        c = self._c
        if len(forecasts) != len(c):
            raise ValueError(f"forecast vector must have length {len(c)}, got {len(forecasts)}")
        return c

    def extend(self, extra: int = 1) -> None:
        """New nodes join with zero weight, preserving sum(c)."""
        self._c = self._c + [0.0] * extra

    def truncate(self, keep: int) -> None:
        """Drop trailing weights; rescale survivors back onto sum(c) = 1."""
        # numpy's sum, whose pairwise order fixes the rescaled bits
        c = np.array(self._c[:keep])
        total = float(c.sum())
        self._c = (c / total).tolist() if abs(total) > EPS_REG else [1.0 / keep] * keep

    def state_dict(self) -> dict:
        return {"c": list(self._c), "lam": self.lam, "eta_lambda": self.eta_lambda}

    @classmethod
    def from_state(cls, state: dict) -> "CombinerState":
        out = cls(len(state["c"]), eta_lambda=read_float(state["eta_lambda"], "eta_lambda"))
        out.c = read_floats(state["c"], "combiner weights")
        out.lam = read_float(state["lam"], "lam")
        return out
