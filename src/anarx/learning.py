"""Recursive estimators for linear-in-parameter models.

Three online learners share one protocol: ``step(phi, y)`` computes the
prediction with the current weights, then updates the weights in place
and returns a :class:`StepResult`. The weight array is never rebound, so
a node that holds (a view of) the same array sees every update.

* :class:`RlsLearner` - exponentially weighted recursive least squares.
* :class:`KwhLearner` - normalized one-step projection; the a-posteriori
  residual on the incoming sample is exactly zero.
* :class:`AdaptiveLearner` - projection with a leaky scalar gain
  accumulator, trading filtering against tracking through ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroGain, ZeroRegressor
from .numerics import EPS_REG, matvec, vdot


@dataclass
class StepResult:
    """Outcome of one learning step.

    ``prediction`` uses the pre-update weights, so ``error`` is the
    innovation y - w'phi that drove the update.
    """

    prediction: float
    error: float


def _check_phi(phi, m: int) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (m,):
        raise DimensionMismatch(f"regressor must have shape ({m},), got {phi.shape}")
    return phi


class RlsLearner:
    """Recursive least squares with exponential forgetting.

    ``alpha`` in (0, 1] is the forgetting factor; alpha = 1 recovers
    ordinary recursive least squares. ``P`` starts as ``p0 * I`` (diffuse
    prior) and is updated in place.

    ``P`` stays exactly symmetric by construction, so it is never
    re-symmetrized. The rank-1 downdate subtracts ``a_i * a_j / d`` from
    ``P_ij`` and ``a_j * a_i / d`` from ``P_ji``; IEEE multiplication
    commutes, so both entries change by the same bits, and dividing both
    by ``alpha`` keeps them equal. ``extend`` and ``truncate`` only add
    or drop matching rows and columns, and ``from_state`` rejects a
    ``P`` that is not finite and exactly symmetric.
    """

    kind = "rls"

    def __init__(self, weights, alpha: float = 1.0, p0: float = 1e4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if p0 <= 0.0:
            raise ValueError(f"p0 must be positive, got {p0}")
        self.w = np.ascontiguousarray(weights, dtype=float)
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self.P = p0 * np.eye(self.w.size)

    @property
    def dim(self) -> int:
        return self.w.size

    def step(self, phi, y: float) -> StepResult:
        phi = _check_phi(phi, self.w.size)
        prediction = vdot(self.w, phi)
        error = float(y) - prediction
        Pphi = matvec(self.P, phi)
        denom = self.alpha + vdot(phi, Pphi)
        self.w += Pphi * (error / denom)
        self.P -= np.outer(Pphi, Pphi) / denom
        if self.alpha != 1.0:
            self.P /= self.alpha
        return StepResult(prediction, error)

    def extend(self, extra: int) -> None:
        """Append ``extra`` zero weights with a fresh diffuse prior block."""
        old = self.w.size
        w = np.zeros(old + extra)
        w[:old] = self.w
        P = self.p0 * np.eye(old + extra)
        P[:old, :old] = self.P
        self.w = w
        self.P = P

    def truncate(self, keep: int) -> None:
        """Drop all state beyond the first ``keep`` coordinates."""
        self.w = np.ascontiguousarray(self.w[:keep])
        self.P = np.ascontiguousarray(self.P[:keep, :keep])

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "p0": self.p0,
            "w": self.w.tolist(),
            "P": self.P.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, weights=None) -> "RlsLearner":
        w = state["w"] if weights is None else weights
        out = cls(w, alpha=state["alpha"], p0=state["p0"])
        out.P = np.asarray(state["P"], dtype=float)
        if out.P.shape != (out.dim, out.dim):
            raise DimensionMismatch(
                f"covariance must have shape ({out.dim}, {out.dim}), got {out.P.shape}"
            )
        if not (np.isfinite(out.P).all() and np.array_equal(out.P, out.P.T)):
            # every saved P is symmetric (see the class docstring)
            raise DimensionMismatch("covariance must be finite and exactly symmetric")
        return out


class KwhLearner:
    """Normalized gradient step: project onto the newest sample's hyperplane."""

    kind = "kwh"

    def __init__(self, weights) -> None:
        self.w = np.ascontiguousarray(weights, dtype=float)

    @property
    def dim(self) -> int:
        return self.w.size

    def step(self, phi, y: float) -> StepResult:
        phi = _check_phi(phi, self.w.size)
        prediction = vdot(self.w, phi)
        error = float(y) - prediction
        norm2 = vdot(phi, phi)
        if norm2 <= EPS_REG:
            raise ZeroRegressor(f"squared regressor norm {norm2} below {EPS_REG}")
        self.w += (error / norm2) * phi
        return StepResult(prediction, error)

    def extend(self, extra: int) -> None:
        old = self.w.size
        w = np.zeros(old + extra)
        w[:old] = self.w
        self.w = w

    def truncate(self, keep: int) -> None:
        self.w = np.ascontiguousarray(self.w[:keep])

    def state_dict(self) -> dict:
        return {"kind": self.kind, "w": self.w.tolist()}

    @classmethod
    def from_state(cls, state: dict, weights=None) -> "KwhLearner":
        return cls(state["w"] if weights is None else weights)


class AdaptiveLearner:
    """Projection with a leaky accumulator gain.

    The gain update runs first: r <- alpha * r + |phi|^2, and the new r
    divides the innovation. With alpha = 0 every step reduces to the
    normalized projection; with r(0) = 0 the first step does too,
    whatever alpha is. Larger alpha smooths the gain and filters noise at
    the cost of slower tracking.
    """

    kind = "adaptive"

    def __init__(self, weights, alpha: float = 0.9, r0: float = 0.0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if r0 < 0.0:
            raise ValueError(f"r0 must be nonnegative, got {r0}")
        self.w = np.ascontiguousarray(weights, dtype=float)
        self.alpha = float(alpha)
        self.r = float(r0)

    @property
    def dim(self) -> int:
        return self.w.size

    def step(self, phi, y: float) -> StepResult:
        phi = _check_phi(phi, self.w.size)
        prediction = vdot(self.w, phi)
        error = float(y) - prediction
        self.r = self.alpha * self.r + vdot(phi, phi)
        if self.r <= EPS_REG:
            raise ZeroGain(f"gain accumulator {self.r} below {EPS_REG}")
        self.w += (error / self.r) * phi
        return StepResult(prediction, error)

    def extend(self, extra: int) -> None:
        old = self.w.size
        w = np.zeros(old + extra)
        w[:old] = self.w
        self.w = w

    def truncate(self, keep: int) -> None:
        self.w = np.ascontiguousarray(self.w[:keep])

    def state_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha, "r": self.r, "w": self.w.tolist()}

    @classmethod
    def from_state(cls, state: dict, weights=None) -> "AdaptiveLearner":
        out = cls(state["w"] if weights is None else weights, alpha=state["alpha"])
        out.r = float(state["r"])
        return out


LEARNERS = {"rls": RlsLearner, "kwh": KwhLearner, "adaptive": AdaptiveLearner}


def make_learner(kind: str, weights, alpha: float = 1.0, p0: float = 1e4):
    """Build a learner over ``weights`` (mutated in place by every step)."""
    if kind == "rls":
        return RlsLearner(weights, alpha=alpha, p0=p0)
    if kind == "kwh":
        return KwhLearner(weights)
    if kind == "adaptive":
        return AdaptiveLearner(weights, alpha=alpha)
    raise ValueError(f"unknown learner kind {kind!r}")


def learner_from_state(state: dict, weights=None):
    kind = state.get("kind")
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}")
    return LEARNERS[kind].from_state(state, weights)
