import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarx import (
    AdaptiveLearner,
    AnarxModel,
    KnotGrid,
    KwhLearner,
    RlsLearner,
    build_anarx,
    eval_bspline,
    make_learner,
)
from anarx import learning
from anarx.learning import packed
from anarx.errors import CorruptSnapshot, DimensionMismatch, NumericalDivergence
from anarx.numerics import EPS_REG

from conftest import fold_rank, ols_fit, supports, unpacked


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
        # the gain is pending beside P until it folds; the saved state
        # gives P as the packed upper triangle
        assert rls.pending == 1
        rls._fold_pending()
        assert np.allclose(rls.state_dict()["P"], [[0.5, 0.0, 1.0]])

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
        rls._fold_pending()
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
        P = state["learner_state"]["P"]
        if bad == "asymmetric":
            # the state holds the packed upper triangle; a whole P, even
            # one off symmetric by a little, is not taken (a snapshot of
            # the format that stored P whole checks its symmetry)
            P[0] = unpacked(P[0])
            P[0][0][2] += 1e-9
        else:
            P[0][3] = float(bad)  # P[1][1]
        # a whole P is not a list of numbers, and NaN or inf not a finite one
        with pytest.raises(CorruptSnapshot):
            AnarxModel.from_state(state)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_from_state_rejects_packed_P_of_another_length(self, extra):
        m = build_anarx(1, 3, 0.0, 1.0, training="stacked", learner="rls")
        state = m.state_dict()
        P = state["learner_state"]["P"]
        assert len(P[0]) == 6
        P[0] = P[0][:-1] if extra < 0 else P[0] + [0.0]
        with pytest.raises(DimensionMismatch, match="covariance must be 1 rows of 6 numbers"):
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
    """A fresh learner of the same settings, restored from its state
    through JSON."""
    fresh = make_learner(learner.kind, np.zeros(learner.w.shape),
                         alpha=getattr(learner, "alpha", 1.0), p0=getattr(learner, "p0", 1e4))
    fresh.load_state(json.loads(json.dumps(learner.state_dict())))
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
    """The in-place update matches the re-symmetrizing one bit for bit
    when every step folds its gain (R = 1)."""

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
        with fold_rank(1):
            self.check(data, dim, alpha, p0, ops)

    @staticmethod
    def check(data, dim, alpha, p0, ops):
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
    # rows' supports, including none and a single column. At rank 1 the
    # reference is the textbook step.
    w0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                     max_size=rows * cols))).reshape(rows, cols)
    with fold_rank(1):
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
    before any weight, covariance or pending gain moves."""

    @pytest.mark.parametrize("alpha,diag,cols", [
        pytest.param(0.9, -3.0, 3, id="0.9--3.0"),  # P indefinite: the denominator is negative
        pytest.param(1.0, -1.0, 3, id="1.0--1.0"),  # ... or exactly zero
        pytest.param(1.0, float("inf"), 3, id="1.0-inf"),  # P overflowed
        pytest.param(1.0, float("nan"), 3, id="1.0-nan"),
        pytest.param(0.9, -3.0, 100, id="0.9--3.0-wide"),
    ])
    def test_row_is_named_and_nothing_moves(self, alpha, diag, cols):
        rls = RlsLearner(np.ones((2, cols)), alpha=alpha, p0=1.0)
        # pending gains beside P that leave its column 1 as it is
        for _ in range(3):
            rls.step(supports(np.eye(2, cols, 2)), 2.0)
        assert rls.pending == 3
        rls.P[1, 1, 1] = diag
        w, A, pending = _bits(rls.w), _bits(rls.A), rls.pending
        with pytest.raises(NumericalDivergence, match="RLS row 1"):
            rls.step(supports(np.eye(2, cols)), 2.0)
        assert _bits(rls.w) == w
        assert _bits(rls.A) == A
        assert rls.pending == pending

    def test_quiet_coordinate_keeps_its_overflow_until_excited(self):
        # a coordinate the regressor never fires is not read by the step
        rls = RlsLearner(np.zeros((1, 2)), alpha=1.0, p0=3.0)
        rls.P[0, 1, 1] = float("inf")
        rls.step(row(1.0, 0.0), 1.0)
        rls._fold_pending()
        assert packed(rls.P[0]).tolist() == [0.75, 0.0, float("inf")]
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
    # RLS folds every gain at once (rank 1), the textbook step the
    # reference takes.
    with fold_rank(1):
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


def _row_state(state, i):
    """Row ``i`` of an RLS block's state, with the rows' one count."""
    return {key: value if key == "pending" else value[i] for key, value in state.items()}


def _row_bits(learner, i):
    """Every bit of RLS row ``i``'s state: weights, P, pending gains."""
    j = learner.pending
    return _bits(learner.w[i]), _bits(learner.P[i]), _bits(learner.U[i, :j]), j


_RANKS = st.one_of(st.integers(1, 6), st.just(32))
_RLS = dict(alpha=_ALPHAS["rls"], p0=st.sampled_from([1.0, 100.0, 1e4]))


def _w0(data, rows, cols):
    return np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                       max_size=rows * cols), label="w0")).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.integers(1, 12),
    rank=_RANKS,
    ops=st.lists(st.sampled_from(["step"] * 6 + ["resize", "read", "round_trip"]), max_size=40),
    **_RLS,
)
def test_pending_rows_are_one_row_learners(data, rows, cols, rank, ops, alpha, p0):
    # On a step of all rows, each row of a batched learner holds the bits
    # of a one-row learner with the same pending count. A step of k < rows
    # rows folds every row, so the rows keep one count, and leaves each
    # row as its one-row learner is once that folds; so do resizes, reads
    # and round trips. P stays exactly symmetric.
    with fold_rank(rank):
        w0 = _w0(data, rows, cols)
        batched = RlsLearner(w0.copy(), alpha=alpha, p0=p0)
        singles = [RlsLearner(w[None, :].copy(), alpha=alpha, p0=p0) for w in w0]
        for op in ops:
            rows, cols = batched.w.shape
            if op == "step":
                Phi = data.draw(_sparse_block(rows, cols), label="Phi")
                y = data.draw(st.floats(-10.0, 10.0), label="y")
                assert batched.step(supports(Phi), y) == []
                for single, phi in zip(singles, Phi):
                    single.step(supports(phi[None, :]), y)
                if len(Phi) < rows:
                    assert batched.pending == 0
                    for single in singles:
                        single._fold_pending()
            elif op == "resize":
                rows = data.draw(st.integers(1, 5), label="rows")
                cols = data.draw(st.integers(1, 14), label="cols")
                batched.resize(rows, cols)
                singles = singles[:rows] + [RlsLearner(np.zeros((1, cols)), alpha=alpha, p0=p0)
                                            for _ in range(rows - len(singles))]
                for single in singles:
                    single.resize(1, cols)
            elif op == "read":
                # a read folds nothing, and row i of the block's state is
                # the state of row i's one-row learner
                i = data.draw(st.integers(0, rows - 1), label="i")
                want = _row_state(singles[i].state_dict(), 0)
                assert _row_state(batched.state_dict(), i) == want
            else:
                batched = _round_trip(batched)
                singles = [_round_trip(single) for single in singles]
            for i, single in enumerate(singles):
                assert _row_bits(batched, i) == _row_bits(single, 0)
            assert _bits(batched.P) == _bits(batched.P.transpose(0, 2, 1))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 3),
    cols=st.integers(1, 12),
    rank=st.integers(2, 6),
    before=st.integers(0, 14),
    after=st.integers(1, 14),
    **_RLS,
)
def test_saved_mid_block_continues_as_the_live_learner(data, rows, cols, rank, before, after,
                                                       alpha, p0):
    # saving folds nothing: the loaded learner holds the live one's
    # pending gains, and the two stay bit-identical
    with fold_rank(rank):
        live = RlsLearner(_w0(data, rows, cols), alpha=alpha, p0=p0)

        def step(*learners):
            Phi = data.draw(_sparse_block(rows, cols), label="Phi")
            y = data.draw(st.floats(-10.0, 10.0), label="y")
            for learner in learners:
                learner.step(supports(Phi), y)

        for _ in range(before):
            step(live)
        held = [_row_bits(live, i) for i in range(rows)]
        loaded = _round_trip(live)
        assert [_row_bits(live, i) for i in range(rows)] == held
        assert loaded.pending == live.pending
        for _ in range(after + 1):
            for i in range(rows):
                assert _row_bits(live, i) == _row_bits(loaded, i)
            step(live, loaded)


# Worst relative gaps to the textbook step seen over 4000 random and 2000
# hypothesis draws: 3.5e-10 (w), 2.1e-10 (P), at rank 32 and p0 = 1e4.
# Below alpha = 0.95 the unexcited directions wind up by alpha^-60 over a
# run, which scales every rounding difference alike (1.3e-8 at alpha 0.8).
PENDING_TOL = 1e-8


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    cols=st.integers(1, 12),
    rank=_RANKS,
    steps=st.integers(1, 60),
    alpha=st.one_of(st.just(1.0), st.floats(0.95, 0.999)),
    p0=_RLS["p0"],
)
def test_pending_row_agrees_with_the_textbook_step(data, cols, rank, steps, alpha, p0):
    # Deferring the downdate changes the rounding only: weights and the
    # folded covariance stay within PENDING_TOL, relative to the largest
    # entry, of the sequential rank-1 step.
    with fold_rank(rank):
        w0 = _w0(data, 1, cols)
        rls = RlsLearner(w0.copy(), alpha=alpha, p0=p0)
        ref = _RowReference("rls", w0[0], alpha, p0)
        for _ in range(steps):
            phi = data.draw(_regressor(cols), label="phi")
            y = data.draw(st.floats(-10.0, 10.0), label="y")
            rls.step(supports(phi[None, :]), y)
            ref.step(phi, y)
            assert np.max(np.abs(rls.w[0] - ref.w)) <= PENDING_TOL * max(1.0, np.max(np.abs(ref.w)))
        rls._fold_pending()
        assert np.max(np.abs(rls.P[0] - ref.P)) <= PENDING_TOL * np.max(np.abs(ref.P))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 3),
    cols=st.integers(1, 12),
    rank=_RANKS,
    steps=st.integers(0, 40),
    **_RLS,
)
def test_covariance_diagonal_reads_without_folding(data, rows, cols, rank, steps, alpha, p0):
    with fold_rank(rank):
        rls = RlsLearner(_w0(data, rows, cols), alpha=alpha, p0=p0)
        for _ in range(steps):
            Phi = data.draw(_sparse_block(rows, cols), label="Phi")
            rls.step(supports(Phi), data.draw(st.floats(-10.0, 10.0), label="y"))
        state = _bits(rls.w), _bits(rls.P), _bits(rls.U), rls.pending
        stored = np.abs(rls.P.diagonal(axis1=1, axis2=2)).max(axis=1)
        diag = rls.covariance_diagonal()
        assert (_bits(rls.w), _bits(rls.P), _bits(rls.U), rls.pending) == state
        rls._fold_pending()
        # the read and the fold subtract the pending gains in another
        # order, so they agree to rounding of the stored diagonal
        folded = rls.P.diagonal(axis1=1, axis2=2)
        assert np.all(np.abs(diag - folded) <= 1e-12 * stored[:, None])


def _left_to_right(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.integers(1, 12),
    rank=_RANKS,
    steps=st.integers(0, 20),
    **_RLS,
)
def test_one_reduce_gives_p_phi_and_u_phi(data, rows, cols, rank, steps, alpha, p0):
    # The one gather and reduce of a step gives each row's P phi and, over
    # the pending gains, U'phi, bit for bit the left-to-right sums from
    # zero over the row's support columns. Rows that fire fewer columns
    # than the longest are padded.
    with fold_rank(rank):
        rls = RlsLearner(_w0(data, rows, cols), alpha=alpha, p0=p0)
        for _ in range(steps):
            Phi = data.draw(_sparse_block(rows, cols), label="Phi")
            rls.step(supports(Phi), data.draw(st.floats(-10.0, 10.0), label="y"))
        block = supports(data.draw(_sparse_block(rows, cols), label="Phi"))
        C, V = rls._support(block)
        j = rls.pending
        sums = rls._gather(C, V, j)
        for i, (start, values) in enumerate(row[0] for row in block):
            fired = list(enumerate(values, start))
            want = [_left_to_right(v * rls.P[i, c, col] for c, v in fired) for col in range(cols)]
            want += [_left_to_right(v * rls.U[i, t, c] for c, v in fired) for t in range(j)]
            assert _bits(sums[i, : cols + j]) == _bits(want)


def test_every_width_keeps_fold_rank_gain_columns():
    # Rows of every width keep FOLD_RANK gain columns beside P, which
    # starts from p0 * I, and a resize rebuilds the block.
    rank = learning.FOLD_RANK
    assert rank > 1
    for rows, cols in ((3, 1), (2, 9), (3, 200)):
        rls = RlsLearner(np.zeros((rows, cols)), p0=3.0)
        assert rls.A.shape == (rows, cols, cols + rank) and rls.U.shape == (rows, rank, cols)
        assert np.shares_memory(rls.P, rls.A) and np.shares_memory(rls.U, rls.A)
        assert np.array_equal(rls.P, np.broadcast_to(3.0 * np.eye(cols), rls.P.shape))
        assert not rls.A[:, :, cols:].any()
    rls.resize(2, 9)
    assert rls.A.shape == (2, 9, 9 + rank) and rls.pending == 0
    assert np.array_equal(rls.P, np.broadcast_to(3.0 * np.eye(9), rls.P.shape))


def test_rows_share_one_pending_count():
    # The rows share one pending count: a warm-up step of fewer rows folds
    # every row, and steps of all rows then count up together.
    rank = learning.FOLD_RANK
    rng = np.random.default_rng(5)
    for rows, cols in ((3, 1), (2, 9), (3, 200)):
        rls = RlsLearner(np.zeros((rows, cols)))
        for k in range(rows):
            rls.step(supports(rng.normal(size=(k, cols))), rng.normal())
            assert rls.pending == 0
        for j in range(1, rank + 2):
            rls.step(supports(rng.normal(size=(rows, cols))), rng.normal())
            assert rls.pending == j % rank


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

    @pytest.mark.parametrize("kind", ["rls", "kwh", "adaptive"])
    def test_step_of_no_rows_moves_no_bit(self, kind):
        # the model's first step hands the learner no regressor
        learner = make_learner(kind, np.ones((2, 3)), alpha=0.9)
        learner.step(row(1.0, 0.5, 0.0), 1.0)
        state = json.dumps(learner.state_dict())
        assert learner.step([], 2.0) == []
        assert json.dumps(learner.state_dict()) == state

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_learner("sgd", np.zeros((1, 2)))

    def test_make_learner_passes_each_kind_its_settings(self):
        def settings(kind):
            learner = make_learner(kind, np.zeros((1, 2)), alpha=0.9, p0=3.0)
            return {k: getattr(learner, k) for k in ("alpha", "p0") if hasattr(learner, k)}

        assert settings("rls") == {"alpha": 0.9, "p0": 3.0}
        assert settings("kwh") == {}
        assert settings("adaptive") == {"alpha": 0.9}


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
    grid = KnotGrid(0.0, 1.0, h, q)
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
