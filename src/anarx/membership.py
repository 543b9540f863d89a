"""Membership-function grids and fuzzification of scalar inputs.

Two grid families are provided: B-spline bases on a clamped knot vector
(compact support, unity partition) and Gaussian bells (infinite support,
no gaps). A grid is immutable after construction and evaluation writes
nothing but its result, so grids can be shared freely across nodes and
threads.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InvalidOrder, InvalidRange, read_float, read_floats


class KnotGrid:
    """Layout of ``h`` B-spline basis functions of order ``q`` on [lo, hi].

    The knot vector has length ``h + q``: the boundary value repeated ``q``
    times at each end with ``h - q`` strictly increasing interior knots in
    between, so exactly ``h`` basis functions span the interval. For q = 2
    the basis is the familiar set of triangular hats with peaks at the
    distinct knot values. ``knot_list`` holds the same knots as Python
    floats, for the per-value span search and recurrence.
    """

    __slots__ = ("lo", "hi", "h", "q", "knots", "knot_list")

    def __init__(self, lo: float, hi: float, h: int, q: int, knots) -> None:
        lo = float(lo)
        hi = float(hi)
        if not lo < hi:
            raise InvalidRange(f"need lo < hi, got lo={lo}, hi={hi}")
        if q < 1 or q > h:
            raise InvalidOrder(f"need 1 <= q <= h, got q={q}, h={h}")
        knots = np.asarray(knots, dtype=float)
        if knots.shape != (h + q,):
            raise InvalidOrder(
                f"knot vector must have length h + q = {h + q}, got {knots.shape}"
            )
        if knots[0] != lo or knots[-1] != hi:
            raise InvalidRange("knot vector must start at lo and end at hi")
        if np.any(np.diff(knots) < 0.0):
            raise InvalidRange("knots must be nondecreasing")
        interior = knots[q:h]
        if interior.size and np.any(np.diff(np.concatenate(([lo], interior, [hi]))) <= 0.0):
            raise InvalidRange("interior knots must be strictly increasing")
        self.lo = lo
        self.hi = hi
        self.h = int(h)
        self.q = int(q)
        self.knots = knots
        self.knots.setflags(write=False)
        self.knot_list = knots.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
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
        return cls(read_float(d["lo"], "grid lo"), read_float(d["hi"], "grid hi"), d["h"], d["q"],
                   read_floats(d["knots"], "knots"))


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

    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "widths": self.widths.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianGrid":
        return cls(read_floats(d["centers"], "centers"), read_floats(d["widths"], "widths"))


def build_uniform_grid(lo: float, hi: float, h: int, q: int) -> KnotGrid:
    """Clamped knot vector with uniformly spaced distinct knots.

    ``h - q + 2`` distinct values span [lo, hi] and each boundary knot is
    repeated ``q`` times in total, giving exactly ``h`` basis functions.
    For q = 2 the basis peaks sit at the distinct values, endpoints
    included; for q = 1 the interval splits into ``h`` equal bins.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise InvalidRange(f"need lo < hi, got lo={lo}, hi={hi}")
    if q < 1 or q > h:
        raise InvalidOrder(f"need 1 <= q <= h, got q={q}, h={h}")
    distinct = np.linspace(lo, hi, h - q + 2)
    knots = np.concatenate([np.full(q - 1, lo), distinct, np.full(q - 1, hi)])
    return KnotGrid(lo, hi, h, q, knots)


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

    # Knot span: rightmost j with t[j] <= u, restricted to nonempty spans.
    j = bisect_right(t, u) - 1
    if j > h - 1:
        j = h - 1
    elif j < q - 1:
        j = q - 1

    # Triangular recurrence over the q basis functions alive on span j.
    vals = [1.0]
    left = [0.0]
    right = [0.0]
    for r in range(1, q):
        left.append(u - t[j + 1 - r])
        right.append(t[j + r] - u)
        saved = 0.0
        for i in range(r):
            share = vals[i] / (right[i + 1] + left[r - i])
            vals[i] = saved + right[i + 1] * share
            saved = left[r - i] * share
        vals.append(saved)
    return j - q + 1, vals


def eval_gaussian(grid: GaussianGrid, u: float) -> np.ndarray:
    """Unnormalized Gaussian degrees exp(-(u - c_i)^2 / (2 sigma_i^2)).

    Strictly positive everywhere; normalization, when wanted, belongs to
    the node that consumes the degrees.
    """
    d = float(u) - grid.centers
    return np.exp(-(d * d) / (2.0 * grid.widths * grid.widths))
