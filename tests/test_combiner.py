import math

import numpy as np
import pytest

from anarx import CombinerState, ErrorCorrelation, batch_solve
from anarx.errors import DegenerateStep, SingularCorrelation
from anarx.numerics import EPS_REG


class TestAccumulate:
    def test_outer_product_example(self):
        corr = ErrorCorrelation(2)
        corr.accumulate(1.0, [1.0, 0.0])
        assert np.array_equal(corr.R, [[0.0, 0.0], [0.0, 1.0]])
        assert corr.count == 1

    def test_perfect_forecasts_leave_R(self):
        corr = ErrorCorrelation(3)
        corr.accumulate(0.7, [0.7, 0.7, 0.7])
        assert np.array_equal(corr.R, np.zeros((3, 3)))

    def test_identical_samples_double(self):
        corr = ErrorCorrelation(2)
        corr.accumulate(1.0, [0.3, 0.8])
        R1 = corr.R.copy()
        corr.accumulate(1.0, [0.3, 0.8])
        assert np.allclose(corr.R, 2.0 * R1)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(0)
        corr = ErrorCorrelation(4)
        for _ in range(100):
            corr.accumulate(rng.normal(), rng.normal(size=4))
        assert np.array_equal(corr.R, corr.R.T)
        assert np.all(np.diag(corr.R) >= 0.0)

    def test_resize_with_node_pool(self):
        corr = ErrorCorrelation(2)
        corr.accumulate(1.0, [0.2, 0.6])
        R_old = corr.R.copy()
        corr.extend(1)
        assert corr.n == 3
        assert np.array_equal(corr.R[:2, :2], R_old)
        assert np.all(corr.R[2, :] == 0.0) and np.all(corr.R[:, 2] == 0.0)
        corr.accumulate(0.5, [0.1, 0.2, 0.3])
        corr.truncate(2)
        assert corr.n == 2
        assert corr.R.shape == (2, 2)


class TestBatchSolve:
    def test_identity(self):
        c, lam, saddle = batch_solve(np.eye(2))
        assert np.allclose(c, [0.5, 0.5])
        assert abs(lam + 1.0) <= 1e-12
        assert abs(saddle - 0.5) <= 1e-12

    def test_diagonal(self):
        c, lam, saddle = batch_solve(np.diag([1.0, 3.0]))
        assert np.allclose(c, [0.75, 0.25])
        assert abs(saddle - 0.75) <= 1e-12

    def test_constraint_and_stationarity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            R = A @ A.T + 0.1 * np.eye(n)
            c, lam, saddle = batch_solve(R)
            assert abs(c.sum() - 1.0) <= 1e-10
            # KKT stationarity: 2Rc + lam*1 = 0
            assert np.max(np.abs(2.0 * R @ c + lam)) <= 1e-8 * max(1.0, np.abs(R).max())
            # saddle value identity
            assert abs(float(c @ R @ c) - saddle) <= 1e-10 * max(1.0, abs(saddle))

    def test_grid_search_oracle_n2(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            R = A @ A.T + 0.2 * np.eye(2)
            c, _, _ = batch_solve(R)
            best = np.inf
            for c1 in np.linspace(-2.0, 3.0, 20001):
                cc = np.array([c1, 1.0 - c1])
                best = min(best, float(cc @ R @ cc))
            assert float(c @ R @ c) <= best + 1e-6

    def test_optimality_against_constraint_grid(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5):
            A = rng.normal(size=(n, n))
            R = A @ A.T + 0.3 * np.eye(n)
            c, _, _ = batch_solve(R)
            val = float(c @ R @ c)
            for _ in range(2000):
                d = rng.normal(size=n)
                d -= d.mean()  # stay on the constraint plane
                cc = c + d * rng.uniform(0.01, 2.0)
                assert val <= float(cc @ R @ cc) + 1e-9

    def test_ridge_fallback_on_singular(self):
        R = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        c, lam, saddle = batch_solve(R)
        assert abs(c.sum() - 1.0) <= 1e-10
        assert np.isfinite(saddle)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularCorrelation):
            batch_solve(np.zeros((3, 3)))

    def test_accepts_accumulator(self):
        corr = ErrorCorrelation(2)
        corr.accumulate(1.0, [0.0, 1.0])
        corr.accumulate(0.0, [1.0, 0.0])
        c, _, _ = batch_solve(corr)
        assert abs(c.sum() - 1.0) <= 1e-10


class TestCombinerState:
    def test_initial_state_uniform(self):
        cs = CombinerState(4)
        assert np.allclose(cs.c, 0.25)
        assert cs.lam == 0.0

    def test_combine_unit_coordinate(self):
        cs = CombinerState(3)
        cs.c = np.array([0.0, 1.0, 0.0])
        assert cs.combine([4.0, 7.0, -1.0]) == 7.0

    def test_combine_passthrough_when_agreeing(self):
        cs = CombinerState(3)
        cs.c = np.array([0.2, 0.5, 0.3])
        assert abs(cs.combine([0.9, 0.9, 0.9]) - 0.9) <= 1e-12

    def test_combine_arithmetic(self):
        cs = CombinerState(2)
        cs.c = np.array([0.75, 0.25])
        assert cs.combine([4.0, 8.0]) == 5.0

    def test_arrow_hurwicz_hand_example(self):
        cs = CombinerState(2, eta_lambda=1.0)
        cs.arrow_hurwicz_step([1.0, 0.0], 1.0, eta_c=0.1)
        assert np.allclose(cs.c, [0.6, 0.5])
        assert abs(cs.lam - 0.1) <= 1e-12

    def test_arrow_hurwicz_zero_rate_on_constraint(self):
        cs = CombinerState(2)
        c0 = cs.c.copy()
        cs.arrow_hurwicz_step([0.3, 0.4], 1.0, eta_c=0.0)
        assert np.array_equal(cs.c, c0)
        assert cs.lam == 0.0

    def test_arrow_hurwicz_zero_gradient(self):
        cs = CombinerState(2, eta_lambda=0.5)
        cs.c = np.array([0.9, 0.3])  # off the constraint
        f = np.array([1.0, 0.0])
        y = float(cs.c @ f)  # v = 0
        cs.arrow_hurwicz_step(f, y, eta_c=0.2)
        assert np.allclose(cs.c, [0.9, 0.3])
        assert abs(cs.lam - 0.5 * 0.2) <= 1e-12

    def test_optimal_step_hand_example(self):
        cs = CombinerState(2, eta_lambda=0.1)
        cs.optimal_step([1.0, 0.0], 1.0)
        assert np.allclose(cs.c, [1.0, 0.5])
        assert abs(cs.lam - 0.05) <= 1e-12

    def test_optimal_step_lambda_zero_is_kaczmarz(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            cs = CombinerState(n)
            cs.c = rng.normal(size=n)
            cs.lam = 0.0
            c0 = cs.c.copy()
            f = rng.normal(size=n)
            y = rng.normal()
            cs.optimal_step(f, y)
            want = c0 + (y - c0 @ f) / (f @ f) * f
            assert np.max(np.abs(cs.c - want)) <= 1e-12

    def test_optimal_step_zero_residual_after(self):
        rng = np.random.default_rng(5)
        cs = CombinerState(3)
        f = rng.normal(size=3)
        y = rng.normal()
        cs.optimal_step(f, y)
        assert abs(y - cs.combine(f)) <= 1e-10 * (1.0 + abs(y))

    def test_degenerate_step_updates_lambda_only(self):
        cs = CombinerState(2, eta_lambda=0.5)
        cs.c = np.array([0.8, 0.8])
        c0 = cs.c.copy()
        with pytest.raises(DegenerateStep):
            cs.optimal_step([0.0, 0.0], 0.0)
        assert np.array_equal(cs.c, c0)
        assert abs(cs.lam - 0.5 * 0.6) <= 1e-12

    def test_extend_preserves_sum(self):
        cs = CombinerState(2)
        cs.extend(1)
        assert cs.c.shape == (3,)
        assert abs(cs.c.sum() - 1.0) <= 1e-12

    def test_truncate_renormalizes(self):
        cs = CombinerState(3)
        cs.c = np.array([0.5, 0.3, 0.2])
        cs.truncate(2)
        assert abs(cs.c.sum() - 1.0) <= 1e-12
        assert np.allclose(cs.c, [0.625, 0.375])


class TestOnlineToBatch:
    def _stream_gap(self, seed, n, diag_boost, steps=10000):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        Sigma = (A @ A.T) * 0.2 + np.diag(rng.uniform(0.3, 1.2, n)) * diag_boost
        Sigma *= 0.36 / np.mean(np.diag(Sigma))
        L = np.linalg.cholesky(Sigma)
        cs = CombinerState(n, eta_lambda=0.1)
        corr = ErrorCorrelation(n)
        tail = []
        for k in range(steps):
            y = 10.0 + 0.3 * rng.normal()
            f = y - L @ rng.normal(size=n)
            corr.accumulate(y, f)
            try:
                cs.optimal_step(f, y)
            except DegenerateStep:
                pass
            if k >= steps - steps // 5:
                tail.append(cs.c.copy())
        c_batch, _, _ = batch_solve(corr)
        return float(np.max(np.abs(np.mean(tail, axis=0) - c_batch)))

    @pytest.mark.parametrize(
        "seed,n,diag_boost",
        [(3, 2, 1.0), (4, 3, 1.0), (1, 3, 3.0)],
    )
    def test_time_average_approaches_batch(self, seed, n, diag_boost):
        assert self._stream_gap(seed, n, diag_boost) <= 0.05


def exact_dot(a, b):
    return math.fsum(np.multiply(a, b).tolist())


class NumpyCombiner:
    """The combiner's per-step arithmetic on numpy arrays, as it ran
    before it moved to Python floats: the reference the float form must
    match bit for bit. ``extend`` and ``truncate`` are copied too, so the
    two states never share an array."""

    def __init__(self, c, lam, eta_lambda):
        self.c = np.array(c, dtype=float)
        self.lam = lam
        self.eta_lambda = eta_lambda

    def combine(self, f):
        return exact_dot(self.c, f)

    def arrow_hurwicz_step(self, f, y, eta_c):
        v = float(y) - exact_dot(self.c, f)
        self.c += eta_c * (2.0 * v * f - self.lam)
        self.lam += self.eta_lambda * (math.fsum(self.c.tolist()) - 1.0)

    def optimal_step(self, f, y):
        """Returns False where CombinerState raises DegenerateStep."""
        v = float(y) - exact_dot(self.c, f)
        denom = 2.0 * v * exact_dot(f, f) - self.lam * math.fsum(f.tolist())
        if abs(denom) <= EPS_REG:
            self.lam += self.eta_lambda * (math.fsum(self.c.tolist()) - 1.0)
            return False
        self.c += (v / denom) * (2.0 * v * f - self.lam)
        self.lam += self.eta_lambda * (math.fsum(self.c.tolist()) - 1.0)
        return True

    def extend(self, extra):
        self.c = np.concatenate([self.c, np.zeros(extra)])

    def truncate(self, keep):
        c = np.ascontiguousarray(self.c[:keep])
        total = float(c.sum())
        if abs(total) > EPS_REG:
            c /= total
        else:
            c = np.full(keep, 1.0 / keep)
        self.c = c


def same_state(cs, ref):
    return cs.c.tobytes() == ref.c.tobytes() and cs.lam == ref.lam


class TestFloatArithmetic:
    """The float combiner reproduces the numpy arithmetic bit for bit."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_steps_match_numpy_reference(self, n):
        rng = np.random.default_rng(100 + n)
        cs = CombinerState(n, eta_lambda=0.3)
        ref = NumpyCombiner(cs.c, cs.lam, cs.eta_lambda)
        steps = 0
        for k in range(300):
            if k == 100:
                cs.extend(1)
                ref.extend(1)
            elif k == 200:
                cs.truncate(n)
                ref.truncate(n)
            f = rng.normal(size=cs.n)
            y = float(rng.normal())
            assert cs.combine(f) == ref.combine(f)
            if k % 3 == 0:
                eta_c = float(rng.uniform(0.0, 0.2))
                cs.arrow_hurwicz_step(f, y, eta_c)
                ref.arrow_hurwicz_step(f, y, eta_c)
            else:
                steps += ref.optimal_step(f, y)
                # every other one gets, as the forecaster hands it, the
                # list of forecasts and the prediction combine made
                if k % 3 == 1:
                    cs.optimal_step(f.tolist(), y, cs.combine(f.tolist()))
                else:
                    cs.optimal_step(f, y)
            assert same_state(cs, ref), k
        assert steps > 150

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_degenerate_step_matches_numpy_reference(self, n):
        rng = np.random.default_rng(200 + n)
        cs = CombinerState(n, eta_lambda=0.5)
        cs.c = rng.normal(size=n)
        cs.lam = 0.25
        ref = NumpyCombiner(cs.c, cs.lam, cs.eta_lambda)
        c0 = cs.c.copy()
        zero = np.zeros(n)
        for _ in range(3):
            y = float(rng.normal())
            with pytest.raises(DegenerateStep):
                cs.optimal_step(zero, y)
            assert not ref.optimal_step(zero, y)
            assert same_state(cs, ref)
        assert cs.c.tobytes() == c0.tobytes()
        assert cs.lam != 0.25

    def test_forecast_length_must_match(self):
        cs = CombinerState(3)
        c0 = cs.c.copy()
        for f in ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError):
                cs.combine(f)
            with pytest.raises(ValueError):
                cs.optimal_step(f, 1.0)
            with pytest.raises(ValueError):
                cs.arrow_hurwicz_step(f, 1.0, eta_c=0.1)
        assert cs.c.tobytes() == c0.tobytes() and cs.lam == 0.0
