import json
import math

import numpy as np
import pytest

from anarx import CombinerState
from anarx.errors import DegenerateStep
from anarx.numerics import EPS_REG

from conftest import batch_optimum


class TestBatchSolve:
    """The closed-form optimum the online combiner is checked against."""

    def test_identity(self):
        c, lam = batch_optimum(np.eye(2))
        assert np.allclose(c, [0.5, 0.5])
        assert abs(lam + 1.0) <= 1e-12
        assert abs(float(c @ c) - 0.5) <= 1e-12

    def test_diagonal(self):
        R = np.diag([1.0, 3.0])
        c, lam = batch_optimum(R)
        assert np.allclose(c, [0.75, 0.25])
        assert abs(float(c @ R @ c) - 0.75) <= 1e-12

    def test_optimality_against_constraint_grid(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5):
            A = rng.normal(size=(n, n))
            R = A @ A.T + 0.3 * np.eye(n)
            c, _ = batch_optimum(R)
            val = float(c @ R @ c)
            for _ in range(2000):
                d = rng.normal(size=n)
                d -= d.mean()  # stay on the constraint plane
                cc = c + d * rng.uniform(0.01, 2.0)
                assert val <= float(cc @ R @ cc) + 1e-9

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

    def test_weights_read_as_a_fresh_read_only_array(self):
        cs = CombinerState(3)
        c = cs.c
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert cs.c is not c
        # an array read before a step keeps that step's weights
        cs.optimal_step([1.0, 0.0, 2.0], 2.0)
        assert c.tolist() == [1.0 / 3.0] * 3 != cs.c.tolist()

    def test_weights_set_from_any_length_n_sequence(self):
        cs = CombinerState(2)
        for values in ([0.25, 0.75], (0.25, 0.75), np.array([0.25, 0.75])):
            cs.c = values
            assert cs.c.tolist() == [0.25, 0.75]
        for bad in ([1.0], [0.1, 0.2, 0.7], [[0.5, 0.5]]):
            with pytest.raises(ValueError):
                cs.c = bad
        assert cs.c.tolist() == [0.25, 0.75]

    def test_state_round_trips(self):
        rng = np.random.default_rng(6)
        cs = CombinerState(3, eta_lambda=0.3)
        for _ in range(20):
            cs.optimal_step(rng.normal(size=3).tolist(), float(rng.normal()))
        loaded = CombinerState.from_state(json.loads(json.dumps(cs.state_dict())))
        assert loaded.state_dict() == cs.state_dict()
        assert loaded.c.tobytes() == cs.c.tobytes()
        f, y = rng.normal(size=3).tolist(), float(rng.normal())
        assert loaded.combine(f) == cs.combine(f)
        loaded.optimal_step(f, y)
        cs.optimal_step(f, y)
        assert loaded.state_dict() == cs.state_dict()


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
            steps += ref.optimal_step(f, y)
            # every other step gets, as the forecaster hands it, the list
            # of forecasts and the prediction combine made
            if k % 2:
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

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_forecast_container_does_not_move_a_bit(self, n):
        # the forecasts are taken as given, so a list, a tuple and a numpy
        # array of the same values give the same sums and the same state
        rng = np.random.default_rng(300 + n)
        kinds = (list, tuple, np.array)
        states = [CombinerState(n, eta_lambda=0.3) for _ in kinds]
        degenerate = 0
        for k in range(200):
            f = [0.0] * n if k % 40 == 39 else rng.normal(size=n).tolist()
            y = float(rng.normal())
            preds = [cs.combine(kind(f)) for kind, cs in zip(kinds, states)]
            assert len({p.hex() for p in preds}) == 1, k
            for kind, cs, pred in zip(kinds, states, preds):
                try:
                    cs.optimal_step(kind(f), y, pred if k % 2 else None)
                except DegenerateStep:
                    degenerate += 1
            assert all(same_state(cs, states[0]) for cs in states[1:]), k
        assert degenerate == 5 * len(kinds)

    def test_forecast_length_must_match(self):
        cs = CombinerState(3)
        c0 = cs.c.copy()
        for f in ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError):
                cs.combine(f)
            with pytest.raises(ValueError):
                cs.optimal_step(f, 1.0)
        assert cs.c.tobytes() == c0.tobytes() and cs.lam == 0.0


class TestOnlineToBatch:
    def _stream_gap(self, seed, n, diag_boost, steps=10000):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        Sigma = (A @ A.T) * 0.2 + np.diag(rng.uniform(0.3, 1.2, n)) * diag_boost
        Sigma *= 0.36 / np.mean(np.diag(Sigma))
        L = np.linalg.cholesky(Sigma)
        cs = CombinerState(n, eta_lambda=0.1)
        R = np.zeros((n, n))  # accumulated outer products of the node errors
        tail = []
        for k in range(steps):
            y = 10.0 + 0.3 * rng.normal()
            f = y - L @ rng.normal(size=n)
            v = y - f
            R += np.outer(v, v)
            try:
                cs.optimal_step(f, y)
            except DegenerateStep:
                pass
            if k >= steps - steps // 5:
                tail.append(cs.c.copy())
        c_batch, _ = batch_optimum(R)
        return float(np.max(np.abs(np.mean(tail, axis=0) - c_batch)))

    @pytest.mark.parametrize(
        "seed,n,diag_boost",
        [(3, 2, 1.0), (4, 3, 1.0), (1, 3, 3.0)],
    )
    def test_time_average_approaches_batch(self, seed, n, diag_boost):
        assert self._stream_gap(seed, n, diag_boost) <= 0.05
