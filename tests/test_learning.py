import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarx import (
    AdaptiveLearner,
    AnarxModel,
    KwhLearner,
    RlsLearner,
    build_anarx,
    build_uniform_grid,
    eval_bspline,
    make_learner,
)
from anarx.errors import DimensionMismatch, NumericalDivergence
from anarx.numerics import EPS_REG

from conftest import ols_fit, supports


def row(*values):
    """One regressor as the learner rows of a (1, cols) block."""
    return supports([values])


def dot(a, b) -> float:
    """Inner product summed left to right from zero over every column,
    the bits a one-block row's support sum gives."""
    total = 0.0
    for x, z in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        total += x * z
    return total


def predict(learner, phi) -> float:
    """Row-0 prediction with the current weights."""
    return dot(learner.w[0], phi)


class TestRls:
    def test_hand_example(self):
        rls = RlsLearner(np.zeros((1, 2)), alpha=1.0, p0=1.0)
        assert predict(rls, [1.0, 0.0]) == 0.0
        assert rls.step(row(1.0, 0.0), 2.0) == []
        assert np.allclose(rls.w, [[1.0, 0.0]])
        assert np.allclose(rls.P, [[[0.5, 0.0], [0.0, 1.0]]])

    def test_matches_ols_small_batch(self):
        # well-conditioned samples; the diffuse-prior bias scales with
        # 1 / (p0 * lambda_min), so a near-singular triple would not hit
        # this tolerance
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 0.5])
        rls = RlsLearner(np.zeros((1, 2)), alpha=1.0, p0=1e6)
        for phi, t in zip(X, y):
            rls.step(supports(phi[None, :]), t)
        w_ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(rls.w[0] - w_ols)) <= 1e-6

    def test_ols_oracle_many_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m + 1, 51))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            rls = RlsLearner(np.zeros((1, m)), alpha=1.0, p0=1e8)
            for phi, t in zip(X, y):
                rls.step(supports(phi[None, :]), t)
            assert np.max(np.abs(rls.w[0] - ols_fit(X, y))) <= 1e-5

    def test_zero_innovation_leaves_w_updates_P(self):
        rls = RlsLearner(np.array([[1.0, -2.0]]), alpha=1.0, p0=10.0)
        P_before = rls.P.copy()
        phi = np.array([0.5, 0.25])
        rls.step(supports(phi[None, :]), predict(rls, phi))
        assert np.array_equal(rls.w, [[1.0, -2.0]])
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
            rls = RlsLearner(np.zeros((1, m)), alpha=alpha, p0=1e4)
            for phi, t in zip(X, y):
                rls.step(supports(phi[None, :]), t)
            finals[alpha] = rls.w[0].copy()
        w_b_ols = ols_fit(X[n_each:], y[n_each:])
        d_forget = np.linalg.norm(finals[0.95] - w_b_ols)
        d_full = np.linalg.norm(finals[1.0] - w_b_ols)
        assert d_forget < d_full

    def test_P_stays_symmetric(self):
        rng = np.random.default_rng(3)
        rls = RlsLearner(np.zeros((3, 4)), alpha=0.97, p0=100.0)
        for _ in range(500):
            rls.step(supports(rng.normal(size=(3, 4))), rng.normal())
        assert np.array_equal(rls.P, rls.P.transpose(0, 2, 1))

    @pytest.mark.parametrize("bad", ["asymmetric", "nan", "inf"])
    def test_from_state_rejects_asymmetric_or_non_finite_P(self, bad):
        # the restore path of a stacked RLS pool checks the one covariance
        rng = np.random.default_rng(4)
        m = build_anarx(1, 3, 0.0, 1.0, training="stacked", learner="rls", alpha=0.95, p0=5.0)
        for y in rng.uniform(0.0, 1.0, 20).tolist():
            m.train_step(y)
        state = json.loads(json.dumps(m.state_dict()))
        P = state["stacked_state"]["P"]
        if bad == "asymmetric":
            P[0][2] += 1e-9
        else:
            P[1][1] = float(bad)
        with pytest.raises(DimensionMismatch):
            AnarxModel.from_state(state)

    def test_dimension_mismatch(self):
        rls = RlsLearner(np.zeros((2, 3)))
        # a support that runs past its row, more rows than the block has,
        # blocks that do not split the row's columns, a row of no blocks
        for bad in ([[(2, [1.0, 2.0])]], supports(np.ones((3, 3))),
                    [[(0, [1.0]), (0, [1.0])]], [[]]):
            with pytest.raises(DimensionMismatch):
                rls.step(bad, 0.5)
        with pytest.raises(DimensionMismatch):
            RlsLearner(np.zeros(3))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            RlsLearner(np.zeros((1, 2)), alpha=0.0)
        with pytest.raises(ValueError):
            RlsLearner(np.zeros((1, 2)), alpha=1.2)


class _RowReference:
    """One learner row computed as the per-node learners did: 1-d
    weights, a scalar gain, dense sums left to right from zero over every
    column, and a skip reason where the update would divide by a
    vanishing norm or gain. KWH and adaptive move the weights from the
    first to the last nonzero column. RLS sums ``P phi`` and ``phi'P phi``
    left to right over every column, from zero, and downdates with
    np.outer."""

    def __init__(self, kind, w, alpha, p0):
        self.kind, self.alpha, self.p0 = kind, alpha, p0
        self.w = np.array(w, dtype=float)
        self.P = p0 * np.eye(self.w.size)
        self.r = 0.0

    def step(self, phi, y):
        error = float(y) - dot(self.w, phi)
        if self.kind == "rls":
            self._rls_update(phi, error)
            return None
        if self.kind == "kwh":
            gain, what = dot(phi, phi), "ZeroRegressor: squared regressor norm"
        else:
            self.r = self.alpha * self.r + dot(phi, phi)
            gain, what = self.r, "ZeroGain: gain accumulator"
        if gain <= EPS_REG:
            return f"{what} {gain} below {EPS_REG}"
        # only the support ``supports`` hands the learner moves: a -0.0
        # weight outside it stays -0.0, where adding 0 * rate would make
        # it +0.0
        nz = np.flatnonzero(phi)
        if nz.size:
            span = slice(nz[0], nz[-1] + 1)
            self.w[span] += (error / gain) * phi[span]
        return None

    def _gain(self, phi, error):
        """Move ``w``; return ``b = P phi / sqrt(denom)``."""
        Pphi = np.zeros(self.w.size)
        for j, p in enumerate(phi):
            Pphi += p * self.P[j]
        total = 0.0
        for p, q in zip(phi, Pphi):
            total += p * q
        denom = self.alpha + total
        if not 0.0 < denom < math.inf:
            raise NumericalDivergence(f"denominator {denom}")
        self.w += Pphi * (error / denom)
        return Pphi / math.sqrt(denom)

    def _rls_update(self, phi, error):
        b = self._gain(phi, error)
        self.P -= np.outer(b, b)
        if self.alpha != 1.0:
            self.P /= self.alpha

    def resize(self, cols):
        keep = min(cols, self.w.size)
        w = np.zeros(cols)
        w[:keep] = self.w[:keep]
        P = self.p0 * np.eye(cols)
        P[:keep, :keep] = self.P[:keep, :keep]
        self.w, self.P = w, P


class _ResymmetrizingRls(_RowReference):
    """Reference: the RLS downdate followed, as first written, by a
    divide by alpha on every step and a re-symmetrization of P."""

    def _rls_update(self, phi, error):
        b = self._gain(phi, error)
        self.P -= np.outer(b, b)
        self.P /= self.alpha
        self.P = 0.5 * (self.P + self.P.T)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _round_trip(learner):
    """A fresh learner of the same settings, restored row by row from JSON."""
    given = learner.settings()
    fresh = make_learner(given["kind"], np.zeros(learner.w.shape),
                         alpha=given.get("alpha", 1.0), p0=given.get("p0", 1e4))
    for i in range(len(learner.w)):
        fresh.load_row(i, json.loads(json.dumps(learner.row_state(i))))
    return fresh


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
        ops=st.lists(st.sampled_from(["step"] * 6 + ["grow", "shrink", "round_trip"]),
                     max_size=30),
    )
    def test_matches_resymmetrizing_reference(self, data, dim, alpha, p0, ops):
        w0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        new = RlsLearner(w0[None, :].copy(), alpha=alpha, p0=p0)
        ref = _ResymmetrizingRls("rls", w0, alpha, p0)
        for op in ops:
            cols = new.w.shape[1]
            if op == "step":
                phi = data.draw(_regressor(cols))
                y = data.draw(st.floats(-10.0, 10.0))
                P = new.P
                assert new.step(supports(phi[None, :]), y) == []
                ref.step(phi, y)
                assert new.P is P
            elif op == "grow" and cols < 48:
                cols += data.draw(st.integers(1, 8))
                new.resize(1, cols)
                ref.resize(cols)
            elif op == "shrink" and cols > 1:
                cols = data.draw(st.integers(1, cols - 1))
                new.resize(1, cols)
                ref.resize(cols)
            elif op == "round_trip":
                new = _round_trip(new)
            assert _bits(new.w[0]) == _bits(ref.w)
            assert _bits(new.P[0]) == _bits(ref.P)
            assert np.array_equal(new.P[0], new.P[0].T)


@st.composite
def _sparse_block(draw, rows, cols):
    """k <= rows regressor rows (k = 0 included), each row zero or firing
    its own set of columns, from one to all, with values of either sign."""
    k = draw(st.integers(0, rows), label="k")
    Phi = np.zeros((k, cols))
    for i in range(k):
        idx = draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))
        Phi[i, idx] = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(idx), max_size=len(idx)))
    return Phi


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.one_of(st.just(1), st.integers(2, 20)),
    alpha=st.one_of(st.just(1.0), st.floats(0.8, 0.999)),
    p0=st.sampled_from([1.0, 100.0, 1e4]),
    steps=st.integers(1, 12),
)
def test_rls_exact_zero_columns_change_no_bit(data, rows, cols, alpha, p0, steps):
    # The step sums over the columns the block fires; a reference that
    # sums every column left to right gives the same bits, whatever the
    # rows' supports, including none and a single column.
    w0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                     max_size=rows * cols))).reshape(rows, cols)
    rls = RlsLearner(w0.copy(), alpha=alpha, p0=p0)
    refs = [_RowReference("rls", w, alpha, p0) for w in w0]
    for _ in range(steps):
        Phi = data.draw(_sparse_block(rows, cols), label="Phi")
        y = data.draw(st.floats(-10.0, 10.0), label="y")
        assert rls.step(supports(Phi), y) == []
        for ref, phi in zip(refs, Phi):
            ref.step(phi, y)
        for i, ref in enumerate(refs):
            assert _bits(rls.w[i]) == _bits(ref.w)
            assert _bits(rls.P[i]) == _bits(ref.P)
        assert _bits(rls.P) == _bits(rls.P.transpose(0, 2, 1))


class TestRlsDivergence:
    """A step whose alpha + phi'P phi is not positive and finite raises
    before any weight or covariance moves."""

    @pytest.mark.parametrize("alpha,diag", [
        (0.9, -3.0),            # P indefinite: the denominator is negative
        (1.0, -1.0),            # ... or exactly zero
        (1.0, float("inf")),    # P overflowed
        (1.0, float("nan")),
    ])
    def test_row_is_named_and_nothing_moves(self, alpha, diag):
        rls = RlsLearner(np.ones((2, 3)), alpha=alpha, p0=1.0)
        rls.P[1, 1, 1] = diag
        w, P = _bits(rls.w), _bits(rls.P)
        with pytest.raises(NumericalDivergence, match="RLS row 1"):
            rls.step(supports([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2.0)
        assert _bits(rls.w) == w
        assert _bits(rls.P) == P

    def test_quiet_coordinate_keeps_its_overflow_until_excited(self):
        # a coordinate the regressor never fires is not read by the step
        rls = RlsLearner(np.zeros((1, 2)), alpha=1.0, p0=3.0)
        rls.P[0, 1, 1] = float("inf")
        rls.step(row(1.0, 0.0), 1.0)
        assert rls.P[0].tolist() == [[0.75, 0.0], [0.0, float("inf")]]
        with pytest.raises(NumericalDivergence):
            rls.step(row(1.0, 1.0), 1.0)
        assert not np.isnan(rls.P).any()


_ALPHAS = {
    "rls": st.one_of(st.just(1.0), st.floats(0.8, 0.999)),
    "kwh": st.just(1.0),
    "adaptive": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
}


@st.composite
def _block(draw, rows, cols):
    """Regressors for ``rows`` rows; some rows zero, so KWH and (at
    alpha = 0 or from r = 0) adaptive mask them."""
    return np.array([
        np.zeros(cols) if draw(st.integers(0, 4)) == 0 else draw(_regressor(cols))
        for _ in range(rows)
    ]).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["rls", "kwh", "adaptive"]),
    rows=st.integers(1, 4),
    cols=st.integers(1, 12),
    p0=st.sampled_from([1.0, 100.0, 1e4]),
    ops=st.lists(st.sampled_from(["step"] * 6 + ["resize", "round_trip"]), max_size=25),
)
def test_batched_learner_is_rows_of_single_learners(data, kind, rows, cols, p0, ops):
    # One learner over a (rows, cols) block steps, masks, resizes and
    # restores each row exactly as a separate per-row learner would.
    alpha = data.draw(_ALPHAS[kind], label="alpha")
    w0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                     max_size=rows * cols))).reshape(rows, cols)
    batched = make_learner(kind, w0.copy(), alpha=alpha, p0=p0)
    refs = [_RowReference(kind, w, alpha, p0) for w in w0]
    for op in ops:
        rows, cols = batched.w.shape
        if op == "step":
            k = data.draw(st.integers(0, rows), label="k")
            Phi = data.draw(_block(k, cols), label="Phi")
            y = data.draw(st.floats(-10.0, 10.0), label="y")
            skipped = batched.step(supports(Phi), y)
            want = [(i, reason) for i, reason in
                    ((i, refs[i].step(phi, y)) for i, phi in enumerate(Phi)) if reason]
            assert skipped == want
        elif op == "resize":
            rows = data.draw(st.integers(1, 5), label="rows")
            cols = data.draw(st.integers(1, 14), label="cols")
            batched.resize(rows, cols)
            refs = refs[:rows] + [_RowReference(kind, np.zeros(cols), alpha, p0)
                                  for _ in range(rows - len(refs))]
            for ref in refs:
                ref.resize(cols)
        else:
            batched = _round_trip(batched)
        assert batched.w.shape == (len(refs), cols)
        for i, ref in enumerate(refs):
            assert _bits(batched.w[i]) == _bits(ref.w)
            if kind == "rls":
                assert _bits(batched.P[i]) == _bits(ref.P)
            if kind == "adaptive":
                assert _bits(batched.r[i]) == _bits(ref.r)


class TestKwh:
    def test_hand_example(self):
        kwh = KwhLearner(np.zeros((1, 2)))
        assert 2.0 - predict(kwh, [1.0, 0.0]) == 2.0
        kwh.step(row(1.0, 0.0), 2.0)
        assert np.allclose(kwh.w, [[2.0, 0.0]])

    def test_repeat_sample_no_change(self):
        kwh = KwhLearner(np.zeros((1, 2)))
        kwh.step(row(1.0, 0.0), 2.0)
        w = kwh.w.copy()
        kwh.step(row(1.0, 0.0), 2.0)
        assert np.array_equal(kwh.w, w)

    def test_zero_innovation_no_change(self):
        rng = np.random.default_rng(1)
        kwh = KwhLearner(rng.normal(size=(1, 4)))
        phi = rng.normal(size=4)
        w = kwh.w.copy()
        kwh.step(supports(phi[None, :]), predict(kwh, phi))
        assert np.array_equal(kwh.w, w)

    def test_zero_aposteriori_error(self):
        rng = np.random.default_rng(2)
        kwh = KwhLearner(np.zeros((3, 5)))
        for _ in range(200):
            Phi = rng.normal(size=(3, 5))
            y = rng.normal()
            kwh.step(supports(Phi), y)
            assert np.all(np.abs(y - (kwh.w * Phi).sum(axis=1)) <= 1e-10 * (1.0 + abs(y)))

    def test_zero_regressor_row_is_skipped(self):
        # row 1 has a zero regressor: it is masked and named, row 0 learns
        kwh = KwhLearner(np.ones((3, 3)))
        skipped = kwh.step(supports([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 5.0)
        assert skipped == [(1, f"ZeroRegressor: squared regressor norm 0.0 below {EPS_REG}")]
        assert kwh.w.tolist() == [[5.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]


class TestAdaptive:
    def test_first_step_equals_kwh_when_alpha1_r0(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(1, 4))
        y = rng.normal()
        ad = AdaptiveLearner(np.zeros((1, 4)), alpha=1.0)
        assert ad.r.tolist() == [0.0]
        kw = KwhLearner(np.zeros((1, 4)))
        ad.step(supports(phi), y)
        kw.step(supports(phi), y)
        assert np.max(np.abs(ad.w - kw.w)) <= 1e-15

    def test_alpha0_always_kwh(self):
        rng = np.random.default_rng(6)
        ad = AdaptiveLearner(np.zeros((1, 3)), alpha=0.0)
        kw = KwhLearner(np.zeros((1, 3)))
        for _ in range(100):
            phi = rng.normal(size=(1, 3))
            y = rng.normal()
            ad.step(supports(phi), y)
            kw.step(supports(phi), y)
            assert np.max(np.abs(ad.w - kw.w)) <= 1e-12

    def test_gain_recursion_hand_example(self):
        ad = AdaptiveLearner(np.zeros((1, 2)), alpha=0.5)
        ad.r[:] = 4.0
        ad.step(row(1.0, 1.0), 0.0)
        assert ad.r.tolist() == [4.0]

    def test_gain_updated_before_weights(self):
        # one step from r = 0, alpha = 0.5: divisor must be the fresh r = |phi|^2
        ad = AdaptiveLearner(np.zeros((1, 2)), alpha=0.5)
        ad.step(row(2.0, 0.0), 4.0)
        assert np.allclose(ad.w, [[2.0, 0.0]])

    def test_zero_innovation_no_change(self):
        rng = np.random.default_rng(7)
        ad = AdaptiveLearner(rng.normal(size=(1, 3)), alpha=0.8)
        ad.r[:] = 1.0
        phi = rng.normal(size=3)
        w = ad.w.copy()
        ad.step(supports(phi[None, :]), predict(ad, phi))
        assert np.array_equal(ad.w, w)

    def test_zero_gain_row_is_skipped(self):
        # the gain moves before the check; a masked row keeps its weights,
        # and the row past k keeps its gain
        ad = AdaptiveLearner(np.ones((3, 2)), alpha=0.0)
        ad.r[:] = 7.0
        skipped = ad.step(supports([[0.0, 0.0], [1.0, 0.0]]), 3.0)
        assert skipped == [(0, f"ZeroGain: gain accumulator 0.0 below {EPS_REG}")]
        assert ad.r.tolist() == [0.0, 1.0, 7.0]
        assert ad.w.tolist() == [[1.0, 1.0], [3.0, 1.0], [1.0, 1.0]]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLearner(np.zeros((1, 2)), alpha=-0.1)
        with pytest.raises(ValueError):
            AdaptiveLearner(np.zeros((1, 2)), alpha=1.1)


class TestCommon:
    def test_error_equals_y_minus_prediction(self):
        # every kind moves the weights by the innovation y - w'phi of the
        # pre-update weights: none when it is zero, and for a zero-start
        # projection exactly onto the sample's hyperplane
        rng = np.random.default_rng(11)
        for kind in ("rls", "kwh", "adaptive"):
            learner = make_learner(kind, rng.normal(size=(1, 3)), alpha=0.9)
            phi = rng.normal(size=3)
            w = learner.w.copy()
            learner.step(supports(phi[None, :]), predict(learner, phi))
            assert np.array_equal(learner.w, w), kind
            y = predict(learner, phi) + 1.0
            learner.step(supports(phi[None, :]), y)
            assert not np.array_equal(learner.w, w), kind
        for kind in ("kwh", "adaptive"):
            learner = make_learner(kind, np.zeros((1, 3)), alpha=0.9)
            learner.step(supports(phi[None, :]), 2.5)
            assert abs(predict(learner, phi) - 2.5) <= 1e-12

    def test_weights_updated_in_place(self):
        weights = np.zeros((2, 3))
        for kind in ("rls", "kwh", "adaptive"):
            weights[:] = 0.0
            learner = make_learner(kind, weights, alpha=1.0)
            assert learner.w is weights
            learner.step(row(1.0, 0.5, 0.0), 1.0)
            assert learner.w is weights
            assert np.any(weights[0] != 0.0)
            # only the rows handed a regressor move
            assert np.all(weights[1] == 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_learner("sgd", np.zeros((1, 2)))

    def test_make_learner_passes_each_kind_its_settings(self):
        assert make_learner("rls", np.zeros((1, 2)), alpha=0.9, p0=3.0).settings() == {
            "kind": "rls", "alpha": 0.9, "p0": 3.0}
        assert make_learner("kwh", np.zeros((1, 2)), alpha=0.9, p0=3.0).settings() == {
            "kind": "kwh"}
        assert make_learner("adaptive", np.zeros((1, 2)), alpha=0.9, p0=3.0).settings() == {
            "kind": "adaptive", "alpha": 0.9}


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
    tied = make_learner(kind, np.zeros((1, 2 * h)), alpha=alpha, p0=p0)
    one = make_learner(kind, np.zeros((1, h)), alpha=alpha, p0=2.0 * p0)
    for xk, yk in zip(x.tolist(), y.tolist()):
        support = eval_bspline(grid, xk)
        mu = np.zeros(h)
        mu[support[0] : support[0] + q] = support[1]
        tied_phi = np.concatenate([mu, mu])
        a = predict(tied, tied_phi)
        b = predict(one, mu)
        # the tied row is a stacked row of two blocks, the one synapse a
        # one-block row
        tied.step([[support, support]], yk)
        one.step([[support]], yk)
        assert abs(a - b) <= COLLAPSE_TOL[kind]
