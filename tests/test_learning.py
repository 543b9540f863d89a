import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarx import (
    AdaptiveLearner,
    KwhLearner,
    RlsLearner,
    build_uniform_grid,
    eval_bspline,
    make_learner,
)
from anarx.errors import DimensionMismatch, ZeroGain, ZeroRegressor
from anarx.learning import StepResult
from anarx.numerics import matvec, vdot

from conftest import ols_fit


class TestRls:
    def test_hand_example(self):
        rls = RlsLearner(np.zeros(2), alpha=1.0, p0=1.0)
        res = rls.step([1.0, 0.0], 2.0)
        assert res.prediction == 0.0
        assert res.error == 2.0
        assert np.allclose(rls.w, [1.0, 0.0])
        assert np.allclose(rls.P, [[0.5, 0.0], [0.0, 1.0]])

    def test_matches_ols_small_batch(self):
        # well-conditioned samples; the diffuse-prior bias scales with
        # 1 / (p0 * lambda_min), so a near-singular triple would not hit
        # this tolerance
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 0.5])
        rls = RlsLearner(np.zeros(2), alpha=1.0, p0=1e6)
        for phi, t in zip(X, y):
            rls.step(phi, t)
        w_ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(rls.w - w_ols)) <= 1e-6

    def test_ols_oracle_many_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m + 1, 51))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            rls = RlsLearner(np.zeros(m), alpha=1.0, p0=1e8)
            for phi, t in zip(X, y):
                rls.step(phi, t)
            assert np.max(np.abs(rls.w - ols_fit(X, y))) <= 1e-5

    def test_zero_innovation_leaves_w_updates_P(self):
        rls = RlsLearner(np.array([1.0, -2.0]), alpha=1.0, p0=10.0)
        P_before = rls.P.copy()
        phi = np.array([0.5, 0.25])
        res = rls.step(phi, float(np.multiply(rls.w, phi).sum()))
        assert res.error == 0.0
        assert np.array_equal(rls.w, [1.0, -2.0])
        assert not np.allclose(rls.P, P_before)

    def test_exponential_forgetting_tracks_regime_switch(self):
        rng = np.random.default_rng(17)
        m, n_each = 3, 400
        w_a = rng.normal(size=m)
        w_b = rng.normal(size=m)
        X = rng.normal(size=(2 * n_each, m))
        y = np.concatenate([X[:n_each] @ w_a, X[n_each:] @ w_b])
        y += 0.01 * rng.normal(size=2 * n_each)
        finals = {}
        for alpha in (1.0, 0.95):
            rls = RlsLearner(np.zeros(m), alpha=alpha, p0=1e4)
            for phi, t in zip(X, y):
                rls.step(phi, t)
            finals[alpha] = rls.w.copy()
        w_b_ols = ols_fit(X[n_each:], y[n_each:])
        d_forget = np.linalg.norm(finals[0.95] - w_b_ols)
        d_full = np.linalg.norm(finals[1.0] - w_b_ols)
        assert d_forget < d_full

    def test_P_stays_symmetric(self):
        rng = np.random.default_rng(3)
        rls = RlsLearner(np.zeros(4), alpha=0.97, p0=100.0)
        for _ in range(500):
            rls.step(rng.normal(size=4), rng.normal())
        assert np.array_equal(rls.P, rls.P.T)

    @pytest.mark.parametrize("bad", ["asymmetric", "nan", "inf"])
    def test_from_state_rejects_asymmetric_or_non_finite_P(self, bad):
        rng = np.random.default_rng(4)
        rls = RlsLearner(np.zeros(3), alpha=0.95, p0=10.0)
        for _ in range(20):
            rls.step(rng.normal(size=3), rng.normal())
        state = rls.state_dict()
        if bad == "asymmetric":
            state["P"][0][2] += 1e-9
        else:
            state["P"][1][1] = float(bad)
        with pytest.raises(DimensionMismatch):
            RlsLearner.from_state(state)

    def test_dimension_mismatch(self):
        rls = RlsLearner(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            rls.step([1.0, 2.0], 0.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            RlsLearner(np.zeros(2), alpha=0.0)
        with pytest.raises(ValueError):
            RlsLearner(np.zeros(2), alpha=1.2)


class _ResymmetrizingRls(RlsLearner):
    """Reference: the update as first written, which divided by alpha on
    every step and then re-symmetrized P."""

    def step(self, phi, y):
        phi = np.asarray(phi, dtype=float)
        prediction = vdot(self.w, phi)
        error = float(y) - prediction
        Pphi = matvec(self.P, phi)
        denom = self.alpha + vdot(phi, Pphi)
        self.w += Pphi * (error / denom)
        self.P -= np.outer(Pphi, Pphi) / denom
        self.P /= self.alpha
        self.P = 0.5 * (self.P + self.P.T)
        return StepResult(prediction, error)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _regressor(draw, dim):
    # dense, or spline-like: a few nonzero memberships in [0, 1]
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    phi = np.zeros(dim)
    idx = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=4, unique=True))
    phi[idx] = draw(st.lists(st.floats(0.0, 1.0), min_size=len(idx), max_size=len(idx)))
    return phi


class TestRlsSymmetricUpdate:
    """The in-place update matches the re-symmetrizing one bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 40),
        alpha=st.one_of(st.just(1.0), st.floats(0.8, 0.999)),
        p0=st.sampled_from([1.0, 100.0, 1e4]),
        ops=st.lists(st.sampled_from(["step"] * 6 + ["extend", "truncate", "round_trip"]),
                     max_size=30),
    )
    def test_matches_resymmetrizing_reference(self, data, dim, alpha, p0, ops):
        w0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        new = RlsLearner(w0.copy(), alpha=alpha, p0=p0)
        ref = _ResymmetrizingRls(w0.copy(), alpha=alpha, p0=p0)
        for op in ops:
            if op == "step":
                phi = data.draw(_regressor(new.dim))
                y = data.draw(st.floats(-10.0, 10.0))
                P = new.P
                got = new.step(phi, y)
                want = ref.step(phi, y)
                assert new.P is P
                assert _bits([got.prediction, got.error]) == _bits([want.prediction, want.error])
            elif op == "extend" and new.dim < 48:
                extra = data.draw(st.integers(1, 8))
                new.extend(extra)
                ref.extend(extra)
            elif op == "truncate" and new.dim > 1:
                keep = data.draw(st.integers(1, new.dim - 1))
                new.truncate(keep)
                ref.truncate(keep)
            elif op == "round_trip":
                new = RlsLearner.from_state(json.loads(json.dumps(new.state_dict())))
            assert _bits(new.w) == _bits(ref.w)
            assert _bits(new.P) == _bits(ref.P)
            assert np.array_equal(new.P, new.P.T)


class TestKwh:
    def test_hand_example(self):
        kwh = KwhLearner(np.zeros(2))
        res = kwh.step([1.0, 0.0], 2.0)
        assert np.allclose(kwh.w, [2.0, 0.0])
        assert res.error == 2.0

    def test_repeat_sample_no_change(self):
        kwh = KwhLearner(np.zeros(2))
        kwh.step([1.0, 0.0], 2.0)
        w = kwh.w.copy()
        kwh.step([1.0, 0.0], 2.0)
        assert np.array_equal(kwh.w, w)

    def test_zero_innovation_no_change(self):
        rng = np.random.default_rng(1)
        kwh = KwhLearner(rng.normal(size=4))
        phi = rng.normal(size=4)
        w = kwh.w.copy()
        kwh.step(phi, float(np.multiply(w, phi).sum()))
        assert np.array_equal(kwh.w, w)

    def test_zero_aposteriori_error(self):
        rng = np.random.default_rng(2)
        kwh = KwhLearner(np.zeros(5))
        for _ in range(200):
            phi = rng.normal(size=5)
            y = rng.normal()
            kwh.step(phi, y)
            assert abs(y - kwh.w @ phi) <= 1e-10 * (1.0 + abs(y))

    def test_zero_regressor_raises(self):
        kwh = KwhLearner(np.zeros(3))
        with pytest.raises(ZeroRegressor):
            kwh.step(np.zeros(3), 1.0)


class TestAdaptive:
    def test_first_step_equals_kwh_when_alpha1_r0(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=4)
        y = rng.normal()
        ad = AdaptiveLearner(np.zeros(4), alpha=1.0, r0=0.0)
        kw = KwhLearner(np.zeros(4))
        ad.step(phi, y)
        kw.step(phi, y)
        assert np.max(np.abs(ad.w - kw.w)) <= 1e-15

    def test_alpha0_always_kwh(self):
        rng = np.random.default_rng(6)
        ad = AdaptiveLearner(np.zeros(3), alpha=0.0)
        kw = KwhLearner(np.zeros(3))
        for _ in range(100):
            phi = rng.normal(size=3)
            y = rng.normal()
            ad.step(phi, y)
            kw.step(phi, y)
            assert np.max(np.abs(ad.w - kw.w)) <= 1e-12

    def test_gain_recursion_hand_example(self):
        ad = AdaptiveLearner(np.zeros(2), alpha=0.5, r0=4.0)
        ad.step([1.0, 1.0], 0.0)
        assert ad.r == 4.0

    def test_gain_updated_before_weights(self):
        # one step from r0=0, alpha=0.5: divisor must be the fresh r = |phi|^2
        ad = AdaptiveLearner(np.zeros(2), alpha=0.5, r0=0.0)
        ad.step([2.0, 0.0], 4.0)
        assert np.allclose(ad.w, [2.0, 0.0])

    def test_zero_innovation_no_change(self):
        rng = np.random.default_rng(7)
        ad = AdaptiveLearner(rng.normal(size=3), alpha=0.8, r0=1.0)
        phi = rng.normal(size=3)
        w = ad.w.copy()
        ad.step(phi, float(np.multiply(w, phi).sum()))
        assert np.array_equal(ad.w, w)

    def test_zero_gain_raises(self):
        ad = AdaptiveLearner(np.zeros(2), alpha=0.0, r0=0.0)
        with pytest.raises(ZeroGain):
            ad.step(np.zeros(2), 1.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLearner(np.zeros(2), alpha=-0.1)
        with pytest.raises(ValueError):
            AdaptiveLearner(np.zeros(2), alpha=1.1)


class TestCommon:
    def test_error_equals_y_minus_prediction(self):
        rng = np.random.default_rng(11)
        for kind in ("rls", "kwh", "adaptive"):
            learner = make_learner(kind, rng.normal(size=3), alpha=0.9)
            phi = rng.normal(size=3)
            y = rng.normal()
            pred_manual = float(np.multiply(learner.w, phi).sum())
            res = learner.step(phi, y)
            assert res.prediction == pred_manual
            assert res.error == y - pred_manual

    def test_weights_updated_in_place(self):
        weights = np.zeros(3)
        for kind in ("rls", "kwh", "adaptive"):
            weights[:] = 0.0
            learner = make_learner(kind, weights, alpha=1.0)
            assert learner.w is weights
            learner.step([1.0, 0.5, 0.0], 1.0)
            assert learner.w is weights
            assert np.any(weights != 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_learner("sgd", np.zeros(2))


# worst gaps seen over 300 random draws: 7.2e-16 (adaptive, kwh), 7.5e-12 (rls);
# rls without the doubled prior is off by 2.2
COLLAPSE_TOL = {"adaptive": 1e-12, "kwh": 1e-12, "rls": 1e-9}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(COLLAPSE_TOL)),
    h=st.integers(2, 20),
    p0=st.floats(1.0, 1e4),
    adaptive_alpha=st.floats(0.0, 1.0),
    steps=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_one_synapse_learns_as_two_tied_synapses(kind, h, p0, adaptive_alpha, steps, seed, data):
    # The paper's NAR neo-fuzzy node has two synapses that see the same
    # membership degrees mu; the model fits one synapse on mu, whose RLS
    # prior is the prior of the sum of the two, 2 * p0 * I. Forgetting-
    # factor RLS winds up on both sides alike and is not compared.
    q = data.draw(st.integers(1, min(h, 4)), label="q")
    grid = build_uniform_grid(0.0, 1.0, h, q)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, steps)
    y = np.sin(6.0 * x) + rng.normal(0.0, 0.1, steps)
    alpha = adaptive_alpha if kind == "adaptive" else 1.0
    tied = make_learner(kind, np.zeros(2 * h), alpha=alpha, p0=p0)
    one = make_learner(kind, np.zeros(h), alpha=alpha, p0=2.0 * p0)
    for xk, yk in zip(x.tolist(), y.tolist()):
        mu = eval_bspline(grid, xk)
        a = tied.step(np.concatenate([mu, mu]), yk)
        b = one.step(mu, yk)
        assert abs(a.prediction - b.prediction) <= COLLAPSE_TOL[kind]
