"""Standalone per-lag fuzzy nodes: the dense reference for the model.

The model (:mod:`anarx.model`) holds no node object: its pool is one
``KnotGrid``, a node count and one learner's weight block. A node here
is one node on its own, a grid and an h-wide weight vector, that tests
compare the pool with: the pool's forecast for lag ``l`` is
:meth:`NeoFuzzyNode.forward` of the lag's value with the pool's row
``W[l - 1]``, bit for bit.

Both node kinds expose the same calls on the lagged value ``u``:
``fuzzify(u)`` returns the support of the fuzzified feature vector,
``(start, values)`` (see :mod:`anarx.numerics`); ``regressor(u)`` is the
dense h-wide vector it stands for, the support scattered into zeros;
``forward(u)`` is the node output, the weights times the support's
values summed left to right from zero
(:func:`~anarx.numerics.support_dot`), the sum the model's forecasts
make. A neo-fuzzy support holds the q fired B-spline values, a
Wang-Mendel support all h firing strengths. No pool is built of
Wang-Mendel nodes: no config or snapshot can name them. Evaluation is
pure given the weights.

``synapses`` is the number of h-wide weight vectors the paper counts per
node (:data:`anarx.model.SYNAPSES` for a neo-fuzzy node, the count the
model's ``parameter_count`` uses).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateActivation, DimensionMismatch
from .membership import GaussianGrid, KnotGrid, eval_bspline, eval_gaussian
from .model import SYNAPSES
from .numerics import support_dot


def _weights(weights, dim: int) -> np.ndarray:
    if weights is None:
        return np.zeros(dim)
    weights = np.ascontiguousarray(weights, dtype=float)
    if weights.shape != (dim,):
        raise DimensionMismatch(f"weights must have length {dim}, got {weights.shape}")
    return weights


def _scatter(support, dim: int) -> np.ndarray:
    """The dense ``dim``-wide row that ``support`` stands for."""
    start, values = support
    row = np.zeros(dim)
    row[start : start + len(values)] = values
    return row


class NeoFuzzyNode:
    """One nonlinear synapse on a B-spline grid.

    The output is piecewise polynomial in the input and exactly linear in
    the weights. The node fits the sum of the paper's ``synapses`` tied
    weight vectors as its one synapse (see :data:`anarx.model.SYNAPSES`).
    """

    kind = "neo_fuzzy"
    synapses = SYNAPSES

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
        return _scatter(self.fuzzify(u), self.dim)

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
        return _scatter(self.fuzzify(u), self.dim)

    def forward(self, u: float) -> float:
        return support_dot(self.weights, *self.fuzzify(u))
