"""Membership-function grids and fuzzification of scalar inputs.

Two grid families are provided: B-spline bases on a clamped knot vector
(compact support, unity partition), the grid of every model pool, and
Gaussian bells (infinite support, no gaps), which only the standalone
reference nodes of :mod:`anarx.nodes` use and no snapshot saves. A grid
is immutable after construction and evaluation writes nothing but its
result, so grids can be shared freely across nodes and threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import (CorruptSnapshot, InvalidOrder, InvalidRange, is_integer, read_count, read_float,
                     read_floats)


class KnotGrid:
    """``h`` B-spline basis functions of order ``q`` on [lo, hi].

    The knot vector has length ``h + q``: ``h - q + 2`` uniformly spaced
    distinct values span [lo, hi], and each boundary is repeated ``q``
    times in total, so exactly ``h`` basis functions span the interval.
    For q = 2 the basis is the familiar set of triangular hats with peaks
    at the distinct values, endpoints included; for q = 1 the interval
    splits into ``h`` equal bins. ``knot_list`` holds the same knots as
    Python floats, for the per-value span search and recurrence.
    """

    __slots__ = ("lo", "hi", "h", "q", "knots", "knot_list")

    def __init__(self, lo: float, hi: float, h: int, q: int) -> None:
        lo = float(lo)
        hi = float(hi)
        if not (lo < hi and math.isfinite(hi - lo)):
            raise InvalidRange(f"need lo < hi a finite width apart, got lo={lo}, hi={hi}")
        if not (is_integer(h) and is_integer(q) and 1 <= q <= h):
            raise InvalidOrder(f"need integers 1 <= q <= h, got q={q!r}, h={h!r}")
        h = int(h)
        q = int(q)
        knots = np.concatenate([np.full(q - 1, lo), np.linspace(lo, hi, h - q + 2),
                                np.full(q - 1, hi)])
        knot_list = knots.tolist()
        distinct = knot_list[q - 1 : h + 1]
        if not all(map(float.__lt__, distinct, distinct[1:])):
            raise InvalidRange(f"[{lo}, {hi}] is too narrow for {h - q + 2} distinct knots")
        knots.setflags(write=False)
        self.lo = lo
        self.hi = hi
        self.h = h
        self.q = q
        self.knots = knots
        self.knot_list = knot_list

    def __repr__(self) -> str:
        return f"KnotGrid(lo={self.lo}, hi={self.hi}, h={self.h}, q={self.q})"

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "h": self.h,
            "q": self.q,
            "knots": self.knots.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KnotGrid":
        """The grid of the saved bounds, size and order. Raises
        CorruptSnapshot unless the saved knots are that grid's."""
        grid = cls(read_float(d["lo"], "grid lo"), read_float(d["hi"], "grid hi"),
                   read_count(d["h"], "grid size h", 1), read_count(d["q"], "spline order q", 1))
        if read_floats(d["knots"], "saved knots") != grid.knot_list:
            raise CorruptSnapshot(f"saved knots are not those of {grid!r}")
        return grid


class GaussianGrid:
    """``h`` Gaussian membership functions given by centers and widths."""

    __slots__ = ("centers", "widths")

    def __init__(self, centers, widths) -> None:
        centers = np.asarray(centers, dtype=float)
        widths = np.asarray(widths, dtype=float)
        if centers.ndim != 1 or centers.size == 0:
            raise InvalidRange("centers must be a nonempty 1-d sequence")
        if widths.shape != centers.shape:
            raise InvalidRange("widths must match centers in length")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
            raise InvalidRange("centers and widths must be finite")
        if centers.size > 1 and np.any(np.diff(centers) <= 0.0):
            raise InvalidRange("centers must be strictly increasing")
        if np.any(widths <= 0.0):
            raise InvalidRange("every width must be positive")
        self.centers = centers
        self.widths = widths
        self.centers.setflags(write=False)
        self.widths.setflags(write=False)

    @property
    def h(self) -> int:
        return self.centers.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianGrid(h={self.h})"


def build_gaussian_grid(lo: float, hi: float, h: int) -> GaussianGrid:
    """Uniformly centered Gaussians; width equals the center spacing.

    With this width neighbouring bells overlap at about half height,
    which keeps the fuzzified space free of gaps.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise InvalidRange(f"need lo < hi, got lo={lo}, hi={hi}")
    if h < 1:
        raise InvalidOrder(f"need h >= 1, got h={h}")
    if h == 1:
        return GaussianGrid([0.5 * (lo + hi)], [hi - lo])
    centers = np.linspace(lo, hi, h)
    spacing = (hi - lo) / (h - 1)
    return GaussianGrid(centers, np.full(h, spacing))


def eval_bspline(grid: KnotGrid, u: float) -> tuple:
    """The support of the ``h`` order-q basis values at ``u``:
    ``(start, values)``, the first of the ``q`` basis functions alive on
    ``u``'s knot span and their values, as Python floats. Every other
    basis value is zero.

    Inputs outside [lo, hi] are clamped to the nearest boundary first, so
    the values always sum to one; for q >= 2 one of them is zero when
    ``u`` sits on a knot. The span search and the recurrence run on
    Python floats, which is the binary64 arithmetic numpy's scalars do,
    so the values are those of the same recurrence on numpy scalars, bit
    for bit.

    Callers sum over the support left to right from zero, and add the
    sums of several supports with ``math.fsum``: the one summation
    order of :mod:`anarx.numerics`.
    """
    t = grid.knot_list
    h = grid.h
    q = grid.q
    u = float(u)
    if u < grid.lo:
        u = grid.lo
    elif u > grid.hi:
        u = grid.hi

    # Knot span: rightmost j with t[j] <= u. The first q knots are lo, so
    # j >= q - 1; u == hi (and NaN) would take a span past the last basis.
    j = bisect_right(t, u) - 1
    if j > h - 1:
        j = h - 1

    # Triangular recurrence over the q basis functions alive on span j;
    # each knot difference is taken where it is used.
    vals = [1.0]
    for r in range(1, q):
        saved = 0.0
        for i in range(r):
            right = t[j + i + 1] - u
            left = u - t[j + i + 1 - r]
            share = vals[i] / (right + left)
            vals[i] = saved + right * share
            saved = left * share
        vals.append(saved)
    return j - q + 1, vals


def eval_gaussian(grid: GaussianGrid, u: float) -> np.ndarray:
    """Unnormalized Gaussian degrees exp(-(u - c_i)^2 / (2 sigma_i^2)).

    Strictly positive everywhere; normalization, when wanted, belongs to
    the node that consumes the degrees.
    """
    d = float(u) - grid.centers
    return np.exp(-(d * d) / (2.0 * grid.widths * grid.widths))
