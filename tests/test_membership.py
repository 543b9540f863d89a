import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarx import (
    GaussianGrid,
    KnotGrid,
    build_gaussian_grid,
    build_uniform_grid,
    eval_bspline,
    eval_gaussian,
)
from anarx.errors import InvalidOrder, InvalidRange

from conftest import basis, naive_basis_vector, triangular_hats


class TestBuildUniformGrid:
    def test_unit_interval_q1_uniform_bins(self):
        grid = build_uniform_grid(0.0, 1.0, 3, 1)
        assert np.allclose(np.unique(grid.knots), [0.0, 1 / 3, 2 / 3, 1.0])
        assert grid.knots.shape == (4,)

    def test_q2_peaks_include_endpoints(self):
        grid = build_uniform_grid(0.0, 1.0, 5, 2)
        assert np.allclose(np.unique(grid.knots), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.knots.shape == (7,)

    def test_q2_symmetric_range(self):
        grid = build_uniform_grid(-1.0, 1.0, 4, 2)
        assert np.allclose(np.unique(grid.knots), [-1.0, -1 / 3, 1 / 3, 1.0])

    def test_knot_vector_length_is_h_plus_q(self):
        for h, q in [(1, 1), (4, 2), (7, 3), (5, 5)]:
            grid = build_uniform_grid(-2.0, 3.0, h, q)
            assert grid.knots.shape == (h + q,)
            assert grid.knots[0] == -2.0 and grid.knots[-1] == 3.0

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            build_uniform_grid(1.0, 1.0, 3, 2)
        with pytest.raises(InvalidRange):
            build_uniform_grid(2.0, -1.0, 3, 2)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            build_uniform_grid(0.0, 1.0, 3, 4)
        with pytest.raises(InvalidOrder):
            build_uniform_grid(0.0, 1.0, 3, 0)

    def test_knot_grid_rejects_bad_vectors(self):
        with pytest.raises(InvalidOrder):
            KnotGrid(0.0, 1.0, 3, 2, [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(InvalidRange):
            KnotGrid(0.0, 1.0, 3, 2, [0.0, 0.0, 0.5, 0.9, 1.1])
        with pytest.raises(InvalidRange):
            KnotGrid(0.0, 1.0, 4, 2, [0.0, 0.0, 0.6, 0.4, 1.0, 1.0])


class TestEvalBspline:
    def test_order1_indicator(self):
        grid = build_uniform_grid(0.0, 1.0, 2, 1)
        assert np.allclose(np.unique(grid.knots), [0.0, 0.5, 1.0])
        assert np.array_equal(basis(grid, 0.25), [1.0, 0.0])
        assert np.array_equal(basis(grid, 0.75), [0.0, 1.0])
        # half-open bins: 0.5 belongs to the second bin
        assert np.array_equal(basis(grid, 0.5), [0.0, 1.0])
        # right boundary closed so the partition holds at hi
        assert np.array_equal(basis(grid, 1.0), [0.0, 1.0])

    def test_hat_at_peak(self):
        grid = build_uniform_grid(0.0, 1.0, 3, 2)
        assert np.allclose(basis(grid, 0.5), [0.0, 1.0, 0.0], atol=1e-15)

    def test_hat_between_peaks(self):
        grid = build_uniform_grid(0.0, 1.0, 3, 2)
        assert np.allclose(basis(grid, 0.25), [0.5, 0.5, 0.0], atol=1e-15)

    def test_out_of_range_clamps(self):
        grid = build_uniform_grid(0.0, 1.0, 4, 2)
        assert np.allclose(basis(grid, -3.0), basis(grid, 0.0))
        assert np.allclose(basis(grid, 42.0), basis(grid, 1.0))
        assert abs(basis(grid, 7.0).sum() - 1.0) < 1e-12

    def test_unity_partition_dense_sweep(self):
        for h, q in [(3, 1), (4, 2), (9, 2), (6, 3), (7, 4), (5, 5)]:
            grid = build_uniform_grid(-1.5, 2.5, h, q)
            for u in np.linspace(-1.5, 2.5, 1001):
                assert abs(basis(grid, u).sum() - 1.0) <= 1e-12

    def test_unity_partition_random_points(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            h = int(rng.integers(2, 10))
            q = int(rng.integers(1, h + 1))
            lo, width = rng.normal(0, 5), rng.uniform(0.5, 10)
            grid = build_uniform_grid(lo, lo + width, h, q)
            for u in rng.uniform(lo - width, lo + 2 * width, 20):
                d = basis(grid, u)
                assert abs(d.sum() - 1.0) <= 1e-12
                assert np.all(d >= 0.0) and np.all(d <= 1.0)

    def test_locality_at_most_q_nonzero(self):
        rng = np.random.default_rng(7)
        for h, q in [(3, 1), (6, 2), (8, 3), (9, 4)]:
            grid = build_uniform_grid(0.0, 1.0, h, q)
            for u in rng.uniform(-0.2, 1.2, 200):
                assert int((basis(grid, u) != 0.0).sum()) <= q

    def test_order2_matches_independent_hat_evaluator(self):
        rng = np.random.default_rng(21)
        for h in (2, 3, 5, 9):
            grid = build_uniform_grid(-2.0, 1.0, h, 2)
            peaks = np.unique(grid.knots)
            for u in rng.uniform(-2.3, 1.3, 1100):
                want = triangular_hats(peaks, u)
                got = basis(grid, u)
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_naive_recursion_any_order(self):
        rng = np.random.default_rng(33)
        for h, q in [(3, 1), (5, 2), (6, 3), (7, 4), (4, 4)]:
            grid = build_uniform_grid(0.0, 2.0, h, q)
            for u in rng.uniform(0.0, 2.0, 200):
                want = naive_basis_vector(grid, u)
                got = basis(grid, u)
                assert np.max(np.abs(got - want)) <= 1e-9

    def test_matches_scipy_design_matrix(self):
        from scipy.interpolate import BSpline

        rng = np.random.default_rng(44)
        for h, q in [(4, 2), (6, 3), (8, 4), (5, 5)]:
            grid = build_uniform_grid(-1.0, 3.0, h, q)
            us = rng.uniform(-1.0, 3.0, 300)
            design = BSpline.design_matrix(us, grid.knots, q - 1).toarray()
            ours = np.array([basis(grid, u) for u in us])
            assert np.max(np.abs(ours - design)) <= 1e-12


def numpy_span(grid, u):
    """``u`` clamped to the grid, and the knot span ``j`` whose basis
    functions ``j - q + 1 .. j`` are alive there."""
    t = grid.knots
    h = grid.h
    q = grid.q
    u = float(u)
    if u < grid.lo:
        u = grid.lo
    elif u > grid.hi:
        u = grid.hi
    j = int(np.searchsorted(t, u, side="right")) - 1
    if j > h - 1:
        j = h - 1
    elif j < q - 1:
        j = q - 1
    return u, j


def numpy_bspline(grid, u):
    """The B-spline recurrence on numpy arrays and scalars, as
    ``eval_bspline`` computed it before it moved to Python floats: the
    reference its float form must match bit for bit."""
    t = grid.knots
    h = grid.h
    q = grid.q
    u, j = numpy_span(grid, u)
    vals = np.zeros(q)
    vals[0] = 1.0
    left = np.empty(q)
    right = np.empty(q)
    for r in range(1, q):
        left[r] = u - t[j + 1 - r]
        right[r] = t[j + r] - u
        saved = 0.0
        for i in range(r):
            share = vals[i] / (right[i + 1] + left[r - i])
            vals[i] = saved + right[i + 1] * share
            saved = left[r - i] * share
        vals[r] = saved
    out = np.zeros(h)
    out[j - q + 1 : j + 1] = vals
    return out


@st.composite
def grid_and_point(draw):
    """A uniform grid, q in 1..4 and h up to 30, and a point inside it,
    outside it, on one of its knots, or at either end."""
    q = draw(st.integers(1, 4))
    h = draw(st.integers(q, 30))
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    grid = build_uniform_grid(lo, lo + width, h, q)
    where = draw(st.sampled_from(["inside", "below", "above", "knot", "lo", "hi"]))
    if where == "inside":
        u = draw(st.floats(grid.lo, grid.hi))
    elif where == "below":
        u = draw(st.floats(max_value=grid.lo, allow_nan=False))
    elif where == "above":
        u = draw(st.floats(min_value=grid.hi, allow_nan=False))
    elif where == "knot":
        u = draw(st.sampled_from(grid.knots.tolist()))
    else:
        u = getattr(grid, where)
    return grid, u


class TestFloatRecurrence:
    @settings(max_examples=400, deadline=None)
    @given(grid_and_point())
    def test_matches_numpy_recurrence_bit_for_bit(self, case):
        grid, u = case
        assert basis(grid, u).tobytes() == numpy_bspline(grid, u).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(grid_and_point())
    def test_support_is_the_span(self, case):
        # the support is the q basis functions alive on u's knot span, as
        # Python floats that sum to one; every other value is zero
        grid, u = case
        start, values = eval_bspline(grid, u)
        _, j = numpy_span(grid, u)
        assert start == j - grid.q + 1
        assert len(values) == grid.q
        assert all(type(v) is float for v in values)
        assert abs(sum(values) - 1.0) <= 1e-12
        row = numpy_bspline(grid, u)
        outside = np.concatenate([row[:start], row[start + grid.q :]])
        assert outside.tobytes() == np.zeros(grid.h - grid.q).tobytes()


class TestGaussian:
    def test_center_hits_one(self):
        grid = build_gaussian_grid(0.0, 1.0, 3)
        d = eval_gaussian(grid, grid.centers[1])
        assert d[1] == 1.0

    def test_one_sigma_value(self):
        grid = GaussianGrid([0.0, 1.0], [0.4, 0.4])
        d = eval_gaussian(grid, 0.4)
        assert abs(d[0] - np.exp(-0.5)) < 1e-12
        assert abs(d[0] - 0.6065306597126334) < 1e-12

    def test_equidistant_symmetry(self):
        grid = GaussianGrid([0.0, 1.0], [0.3, 0.3])
        d = eval_gaussian(grid, 0.5)
        assert abs(d[0] - d[1]) < 1e-15

    def test_strictly_positive_off_grid(self):
        # infinite support: no gaps between or beyond the bells (within
        # float range; ~10 sigma away exp underflows to zero)
        grid = build_gaussian_grid(0.0, 1.0, 5)
        for u in (-2.0, -0.4, 0.2, 0.61, 1.7, 3.0):
            assert np.all(eval_gaussian(grid, u) > 0.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        grid = build_gaussian_grid(-1.0, 2.0, 7)
        for u in rng.uniform(-2, 3, 300):
            d = eval_gaussian(grid, u)
            assert np.all(d <= 1.0) and np.all(d >= 0.0)

    def test_default_width_is_spacing(self):
        grid = build_gaussian_grid(0.0, 2.0, 5)
        assert np.allclose(grid.widths, 0.5)

    def test_validation(self):
        with pytest.raises(InvalidRange):
            GaussianGrid([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidRange):
            GaussianGrid([0.0, 1.0], [1.0, -1.0])


class TestImmutability:
    def test_grids_reject_in_place_writes(self):
        knot = build_uniform_grid(0.0, 1.0, 4, 2)
        with pytest.raises(ValueError):
            knot.knots[0] = -1.0
        gauss = build_gaussian_grid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            gauss.centers[0] = 0.5
        with pytest.raises(ValueError):
            gauss.widths[0] = 2.0
