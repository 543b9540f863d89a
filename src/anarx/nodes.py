"""Per-lag fuzzy nodes, each reduced to a linear-in-weights regressor.

Both node kinds expose the same two calls: ``regressor(y_lag, x_lag)``
builds the fuzzified feature vector and ``forward(y_lag, x_lag)`` returns
the dot product with the node's weights. ``fuzzify`` writes the same
vector into a caller's buffer; the model uses it to fill its regressor
ring once per observed value. Evaluation is pure given the weights;
updating the weights of one node never touches another.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateActivation, DimensionMismatch
from .membership import GaussianGrid, KnotGrid, eval_bspline, eval_gaussian
from .numerics import vdot


class NeoFuzzyNode:
    """Two nonlinear synapses on B-spline grids, summed.

    The regressor is the concatenation of the two degree vectors and the
    weights follow the same ordering (all y-synapse weights first). The
    output is piecewise polynomial in each input and exactly linear in the
    weights.
    """

    kind = "neo_fuzzy"

    def __init__(self, grid_y: KnotGrid, grid_x: KnotGrid, weights=None) -> None:
        self.grid_y = grid_y
        self.grid_x = grid_x
        dim = grid_y.h + grid_x.h
        if weights is None:
            weights = np.zeros(dim)
        else:
            weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != (dim,):
            raise DimensionMismatch(
                f"weights must have length {dim}, got {weights.shape}"
            )
        self.weights = weights

    @property
    def dim(self) -> int:
        return self.grid_y.h + self.grid_x.h

    def fuzzify(self, out: np.ndarray, y_lag: float, x_lag: float | None = None) -> None:
        """Write the regressor into ``out``.

        ``x_lag=None`` feeds ``y_lag`` to both synapses (NAR); on a shared
        grid its degrees are then evaluated once and copied.
        """
        hy = self.grid_y.h
        out[:hy] = eval_bspline(self.grid_y, y_lag)
        if x_lag is None and self.grid_x is self.grid_y:
            out[hy:] = out[:hy]
        else:
            out[hy:] = eval_bspline(self.grid_x, y_lag if x_lag is None else x_lag)

    def regressor(self, y_lag: float, x_lag: float) -> np.ndarray:
        out = np.empty(self.dim)
        self.fuzzify(out, y_lag, x_lag)
        return out

    def forward(self, y_lag: float, x_lag: float) -> float:
        return vdot(self.weights, self.regressor(y_lag, x_lag))


class WangMendelNode:
    """Two-input rule table with Gaussian antecedents and normalized firing.

    Rule i pairs the i-th membership function of each input; its firing
    strength is the product of the two degrees, normalized over all rules.
    The output is therefore a convex combination of the rule weights.
    """

    kind = "wang_mendel"

    def __init__(self, grid_y: GaussianGrid, grid_x: GaussianGrid, weights=None) -> None:
        if grid_y.h != grid_x.h:
            raise DimensionMismatch(
                f"rule pairing needs equal grid sizes, got {grid_y.h} and {grid_x.h}"
            )
        self.grid_y = grid_y
        self.grid_x = grid_x
        if weights is None:
            weights = np.zeros(grid_y.h)
        else:
            weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != (grid_y.h,):
            raise DimensionMismatch(
                f"weights must have length {grid_y.h}, got {weights.shape}"
            )
        self.weights = weights

    @property
    def dim(self) -> int:
        return self.grid_y.h

    def fuzzify(self, out: np.ndarray, y_lag: float, x_lag: float | None = None) -> None:
        """Write the normalized firing strengths into ``out``.

        ``x_lag=None`` feeds ``y_lag`` to both inputs (NAR); on a shared
        grid its degrees are then evaluated once and squared.
        """
        shared = x_lag is None and self.grid_x is self.grid_y
        if x_lag is None:
            x_lag = y_lag
        dy = eval_gaussian(self.grid_y, y_lag)
        z = dy * (dy if shared else eval_gaussian(self.grid_x, x_lag))
        total = float(z.sum())
        if total <= 0.0:
            raise DegenerateActivation(
                f"all rule activations underflowed at ({y_lag}, {x_lag})"
            )
        np.divide(z, total, out=out)

    def regressor(self, y_lag: float, x_lag: float) -> np.ndarray:
        out = np.empty(self.dim)
        self.fuzzify(out, y_lag, x_lag)
        return out

    def forward(self, y_lag: float, x_lag: float) -> float:
        return vdot(self.weights, self.regressor(y_lag, x_lag))
