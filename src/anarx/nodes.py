"""Per-lag fuzzy nodes, each reduced to a linear-in-weights regressor.

Both node kinds expose the same calls on the lagged value ``u``:
``fuzzify(u)`` returns the support of the fuzzified feature vector,
``(start, values)`` (see :mod:`anarx.numerics`); ``regressor(u)`` is the
dense h-wide vector it stands for; ``forward(u)`` is the node output,
the weights times the support's values summed left to right from zero
(:func:`~anarx.numerics.support_dot`), the sum the model's forecasts
make. A neo-fuzzy support holds the q fired B-spline values, so for
q = 2 the output is bit for bit numpy's pairwise sum over the dense row;
a Wang-Mendel support holds all h firing strengths. The model keeps one
support per observed value in its regressor ring. Evaluation is pure
given the weights; updating the weights of one node never touches
another.

``synapses`` is the number of h-wide weight vectors the paper counts per
node (``AnarxModel.parameter_count``); see :class:`NeoFuzzyNode` for why
a node fits fewer.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateActivation, DimensionMismatch
from .membership import GaussianGrid, KnotGrid, eval_bspline, eval_gaussian
from .numerics import dense, support_dot


def _weights(weights, dim: int) -> np.ndarray:
    if weights is None:
        return np.zeros(dim)
    weights = np.ascontiguousarray(weights, dtype=float)
    if weights.shape != (dim,):
        raise DimensionMismatch(f"weights must have length {dim}, got {weights.shape}")
    return weights


class NeoFuzzyNode:
    """One nonlinear synapse on a B-spline grid.

    The output is piecewise polynomial in the input and exactly linear in
    the weights. The paper's node has a synapse per input, y and x; with
    the lagged value fed to both, only the sum of their weight vectors
    can be identified, so the node fits that sum as its one synapse (a
    neo-fuzzy neuron has one synapse per input, and each lag is one).
    """

    kind = "neo_fuzzy"
    synapses = 2

    def __init__(self, grid: KnotGrid, weights=None) -> None:
        self.grid = grid
        self.weights = _weights(weights, grid.h)

    @property
    def dim(self) -> int:
        return self.grid.h

    def fuzzify(self, u: float) -> tuple:
        """The support of the membership degrees of ``u``: q values."""
        return eval_bspline(self.grid, u)

    def regressor(self, u: float) -> np.ndarray:
        return dense([self.fuzzify(u)], self.dim)

    def forward(self, u: float) -> float:
        return support_dot(self.weights, *self.fuzzify(u))


class WangMendelNode:
    """Two-input rule table with Gaussian antecedents and normalized firing.

    Rule i pairs the i-th membership function of each input; its firing
    strength is the product of the two degrees, normalized over all rules.
    Both inputs are the lagged value, so a rule fires with its squared
    degree. The output is a convex combination of the rule weights.
    """

    kind = "wang_mendel"
    synapses = 1

    def __init__(self, grid: GaussianGrid, weights=None) -> None:
        self.grid = grid
        self.weights = _weights(weights, grid.h)

    @property
    def dim(self) -> int:
        return self.grid.h

    def fuzzify(self, u: float) -> tuple:
        """The normalized firing strengths at ``u``: all h, from column 0."""
        d = eval_gaussian(self.grid, u)
        z = d * d
        total = float(z.sum())
        if total <= 0.0:
            raise DegenerateActivation(f"all rule activations underflowed at {u}")
        return 0, (z / total).tolist()

    def regressor(self, u: float) -> np.ndarray:
        return dense([self.fuzzify(u)], self.dim)

    def forward(self, u: float) -> float:
        return support_dot(self.weights, *self.fuzzify(u))
