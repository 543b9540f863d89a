import copy
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anarx import (
    AnarxModel,
    EvolutionPolicy,
    KnotGrid,
    KwhLearner,
    NeoFuzzyNode,
    build_anarx,
    build_gaussian_grid,
)
from anarx.errors import CorruptSnapshot, ParseError
from anarx.numerics import EPS_REG
from conftest import assert_one_weight_block, fold_rank


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def small_model(n=2, training="stacked", learner="kwh", h=3, alpha=1.0):
    return build_anarx(n, h, 0.0, 1.0, q=2, training=training, learner=learner, alpha=alpha)


def _lag(m, l):
    """The value ``m`` observed ``l`` steps ago, or None before it exists."""
    return m.delay_y[l - 1] if l <= len(m.delay_y) else None


def _node(m, l):
    """A standalone node on the pool's grid whose weights are the pool's
    row for lag ``l``."""
    return NeoFuzzyNode(m.grid, m.W[l - 1])


class TestDelayLine:
    """The model's delay line: the values newest first, no longer than the
    ring, whose length grows with the pool and never shrinks."""

    def test_lag_semantics(self):
        m = small_model(n=3)
        assert _lag(m, 1) is None
        for v in (0.1, 0.2, 0.3):
            m.observe(v)
        assert [_lag(m, l) for l in (1, 2, 3)] == [0.3, 0.2, 0.1]
        m.observe(0.4)
        assert _lag(m, 1) == 0.4 and _lag(m, 3) == 0.2

    def test_capacity_trims(self):
        m = small_model(n=2)
        for v in range(5):
            m.observe(v / 5)
        assert m.delay_y == [0.8, 0.6]
        assert _lag(m, 3) is None

    def test_grow_capacity(self):
        m = small_model(n=1)
        m.observe(0.1)
        m.add_node()
        m.add_node()
        m.observe(0.2)
        m.observe(0.3)
        assert _lag(m, 3) == 0.1
        # pruning keeps the capacity
        m.remove_last_node()
        m.observe(0.4)
        assert m.delay_y == [0.4, 0.3, 0.2]

    def test_round_trip_keeps_the_capacity_of_a_pruned_pool(self):
        # the saved pool had three nodes; a regrown third node reads the
        # lag the capacity kept, in the loaded copy as in the saved model
        m = build_anarx(2, 5, 0, 1, training="independent", learner="adaptive")
        m.train_step(0.3)
        m.add_node()
        m.train_step(0.7)
        m.remove_last_node()
        loaded = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
        for model in (m, loaded):
            model.train_step(0.5)
            model.train_step(0.9)
            model.add_node()
            assert model.train_step(0.4) == []
        assert _bits(loaded.node_forecasts()) == _bits(m.node_forecasts())
        assert m.node_forecasts()[2] != 0.0

    def test_value_that_is_not_finite_is_not_observed(self):
        # the model observes no value that is not finite, so a state that
        # holds one is corrupt
        m = small_model(n=2)
        m.observe(0.3)
        state = json.loads(json.dumps(m.state_dict()))
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParseError, match="not finite"):
                m.observe(value)
            assert m.delay_y == [0.3]
            bad = copy.deepcopy(state)
            bad["delay_y"].insert(0, value)
            with pytest.raises(CorruptSnapshot, match="delay values must be finite"):
                AnarxModel.from_state(bad)

    @pytest.mark.parametrize("training,tamper", [
        pytest.param("stacked", lambda w: w[0].pop(), id="stacked-width-not-a-multiple-of-h"),
        pytest.param("stacked", lambda w: w[0].__delitem__(slice(2, None)),
                     id="stacked-width-below-h"),
        pytest.param("stacked", lambda w: w.append(list(w[0])), id="stacked-two-rows"),
        pytest.param("stacked", list.clear, id="stacked-no-row"),
        pytest.param("independent", lambda w: w[0].pop(), id="independent-row-below-h"),
        pytest.param("independent", list.clear, id="independent-no-row"),
    ])
    def test_weight_rows_that_hold_no_pool_are_corrupt_before_the_build(
            self, monkeypatch, training, tamper):
        # the saved weight rows fix the pool size (the stacked row's width
        # / h, or the independent row count); rows that fix none fail
        # before the model, or its learner, allocates anything
        state = small_model(n=2, training=training).state_dict()
        tamper(state["learner_state"]["w"])

        def spy(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(AnarxModel, "__init__", spy)
        with pytest.raises(CorruptSnapshot, match="weight rows hold no pool of 3-wide nodes"):
            AnarxModel.from_state(state)

    @pytest.mark.parametrize("capacity", [1, 2, 3.0, True, None])
    def test_capacity_below_pool_or_values_is_corrupt(self, capacity):
        m = small_model(n=2)
        for v in (0.2, 0.5, 0.7):
            m.add_node()
            m.remove_last_node()
            m.observe(v)
        state = m.state_dict()
        assert state["delay_capacity"] == 3 == len(state["delay_y"])
        state["delay_capacity"] = capacity
        with pytest.raises(CorruptSnapshot):
            AnarxModel.from_state(state)


class TestForward:
    def test_single_node_equals_node_forward(self):
        m = small_model(n=1)
        m.observe(0.4)
        m.W[0] = np.arange(3) * 0.1
        assert m.forward() == _node(m, 1).forward(0.4)

    def test_two_constant_nodes_add(self):
        m = small_model(n=2)
        m.observe(0.3)
        m.observe(0.6)
        m.W[0] = 0.3
        m.W[1] = 0.5
        assert abs(m.forward() - 0.8) <= 1e-12

    def test_zero_weights_zero_output(self):
        m = small_model()
        m.observe(0.5)
        m.observe(0.5)
        assert m.forward() == 0.0

    def test_warmup_missing_lags_contribute_zero(self):
        m = small_model(n=3, h=3)
        m.W[1:] = 1.0
        assert m.forward() == 0.0
        m.observe(0.5)
        assert m.forward() == 0.0  # only node 1 active, zero weights
        f = m.node_forecasts()
        assert len(f) == 3 and f[1] == 0.0 and f[2] == 0.0

    def test_additivity_matches_individual_queries(self):
        rng = np.random.default_rng(0)
        m = small_model(n=3, h=4)
        for row in m.W:
            row[:] = rng.normal(size=m.grid.h)
        for v in rng.uniform(0, 1, 5):
            m.observe(v)
        assert abs(m.forward() - sum(m.node_forecasts())) <= 1e-12
        manual = sum(_node(m, l).forward(_lag(m, l)) for l in range(1, m.n + 1))
        assert abs(m.forward() - manual) <= 1e-12


class TestTrainStep:
    def test_stacked_n1_equals_driving_learner_directly(self):
        rng = np.random.default_rng(1)
        series = rng.uniform(0, 1, 60)
        m = small_model(n=1, training="stacked", learner="kwh")
        ref_node = NeoFuzzyNode(m.grid)
        ref = KwhLearner(ref_node.weights[None, :])
        ref_node.weights = ref.w[0]
        prev = None
        for y in series:
            m.train_step(float(y))
            if prev is not None:
                ref.step([[ref_node.fuzzify(prev)]], float(y))
            prev = float(y)
            assert np.max(np.abs(m.W[0] - ref_node.weights)) <= 1e-15

    def test_independent_kwh_posteriori_zero_per_node(self):
        rng = np.random.default_rng(2)
        m = small_model(n=2, training="independent", learner="kwh")
        series = rng.uniform(0, 1, 50)
        for y in series[:10]:
            m.train_step(float(y))
        for y in series[10:]:
            lags = [_lag(m, 1), _lag(m, 2)]
            m.train_step(float(y))
            for l, lag in enumerate(lags, start=1):
                assert abs(float(y) - _node(m, l).forward(lag)) <= 1e-10

    def test_stacked_matches_concatenated_regression_oracle(self):
        rng = np.random.default_rng(3)
        m = small_model(n=2, training="stacked", learner="kwh", h=4)
        w_ref = np.zeros(8)
        series = rng.uniform(0, 1, 80)
        hist = []
        node = NeoFuzzyNode(m.grid)
        for y in series:
            y = float(y)
            # oracle: independently coded single-regression projection
            if len(hist) >= 1:
                phi1 = node.regressor(hist[-1])
                phi2 = node.regressor(hist[-2]) if len(hist) >= 2 else np.zeros(4)
                phi = np.concatenate([phi1, phi2])
                w_ref = w_ref + (y - w_ref @ phi) / (phi @ phi) * phi
            m.train_step(y)
            hist.append(y)
            assert np.max(np.abs(m.W.ravel() - w_ref)) <= 1e-12

    def test_node_independence_in_independent_mode(self):
        rng = np.random.default_rng(4)
        m = small_model(n=3, training="independent", learner="rls")
        for y in rng.uniform(0, 1, 10):
            m.train_step(float(y))
        before = m.W.copy()
        # with no gain pending, the step of two rows below folds a zero
        # gain into row 0 and none into row 2
        m.learner._fold_pending()
        state_before = m.learner.state_dict()
        # step only row 1 (node 2) of the batched learner by hand; row 0
        # gets a zero-innovation regressor, row 2 none
        assert m.learner.step([[(0, [])], [NeoFuzzyNode(m.grid).fuzzify(0.5)]], 0.9) == []
        assert np.array_equal(m.W[0], before[0])
        assert np.array_equal(m.W[2], before[2])
        assert not np.array_equal(m.W[1], before[1])
        state = m.learner.state_dict()
        for key in ("w", "P"):
            assert state[key][0] == state_before[key][0]
            assert state[key][2] == state_before[key][2]
        assert state["P"][1] != state_before["P"][1]

    def test_warmup_determinism(self):
        rng = np.random.default_rng(5)
        series = rng.uniform(0, 1, 40)
        preds = []
        for _ in range(2):
            m = small_model(n=2, training="stacked", learner="rls")
            preds.append([])
            for y in series:
                preds[-1].append(m.forward())
                m.train_step(float(y))
        assert preds[0] == preds[1]

    def test_stationary_planted_target_converges(self):
        # linear-in-regressor target: last-100 RMSE well under target std
        rng = np.random.default_rng(6)
        grid = KnotGrid(0.0, 1.0, 4, 2)
        # each target sums two tied synapses of 4 weights
        w1, w2 = rng.uniform(-0.1, 0.3, 8), rng.uniform(-0.1, 0.2, 8)
        tgt1 = NeoFuzzyNode(grid, w1[:4] + w1[4:])
        tgt2 = NeoFuzzyNode(grid, w2[:4] + w2[4:])
        m = small_model(n=2, training="stacked", learner="rls", h=4)
        y1, y2 = 0.5, 0.4
        errors = []
        targets = []
        for k in range(1000):
            y = tgt1.forward(y1) + tgt2.forward(y2) + 0.2
            y = min(max(y, 0.0), 1.0)
            errors.append(y - m.forward())
            m.train_step(y)
            targets.append(y)
            y1, y2 = y, y1
        rmse = float(np.sqrt(np.mean(np.square(errors[-100:]))))
        assert rmse <= 0.1 * float(np.std(targets))

    @pytest.mark.parametrize("training,learner", [
        ("stacked", "rls"), ("independent", "adaptive"), ("independent", "kwh"),
    ])
    def test_handed_forecasts_give_the_same_report(self, training, learner):
        # the step hands train_step the forecasts it already computed
        rng = np.random.default_rng(9)
        own = small_model(n=3, training=training, learner=learner)
        handed = small_model(n=3, training=training, learner=learner)
        for y in rng.uniform(0, 1, 60).tolist():
            assert _bits(own.node_forecasts()) == _bits(handed.node_forecasts())
            assert own.train_step(y) == handed.train_step(y, forecasts=handed.node_forecasts())
        assert np.array_equal(own.W, handed.W)

    def test_learner_failure_is_skipped_with_its_class_name(self, monkeypatch):
        from anarx import learning

        m = small_model(n=3, training="stacked", learner="kwh")
        for y in (0.2, 0.4):
            m.train_step(y)
        # the stacked row's norm is now below the threshold: every observed
        # node is skipped, after the unobserved one, and no weight moves
        monkeypatch.setattr(learning, "EPS_REG", 10.0)
        W = m.W.copy()
        skipped = m.train_step(0.3)
        reason = skipped[1][1]
        assert reason.startswith("ZeroRegressor: squared regressor norm ")
        assert reason.endswith(" below 10.0")
        assert skipped == [(2, "lag not observed yet"), (0, reason), (1, reason)]
        assert np.array_equal(m.W, W)

    def test_masked_row_skips_only_its_node_in_independent_mode(self, monkeypatch):
        from anarx import learning

        # on the knots 0, 0.5, 1 the value 0.0 has squared membership norm
        # 1.0 and 0.25 has 0.5; with the threshold between them only node 2,
        # which reads 0.25, is masked
        m = small_model(n=2, training="independent", learner="adaptive", alpha=0.0)
        m.train_step(0.25)
        m.train_step(0.0)
        monkeypatch.setattr(learning, "EPS_REG", 0.75)
        W, r = m.W.copy(), m.learner.r.copy()
        assert m.train_step(0.6) == [(1, "ZeroGain: gain accumulator 0.5 below 0.75")]
        assert not np.array_equal(m.W[0], W[0])
        assert np.array_equal(m.W[1], W[1])
        # alpha = 0: each gain is the row's squared norm, masked or not
        assert m.learner.r.tolist() == [1.0, 0.5] != r.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.sampled_from([2, 3]),
        learner=st.sampled_from(["kwh", "adaptive", "rls"]),
        alpha=st.floats(0.0, 1.0),
        training=st.sampled_from(["stacked", "independent"]),
        n=st.integers(1, 4),
        seen=st.integers(0, 5),
        eps=st.sampled_from([EPS_REG, 0.3, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_model_walk_equals_public_step_bit_for_bit(
        self, q, learner, alpha, training, n, seen, eps, seed
    ):
        # The model walks the learner's rows over its ring; the public
        # step, on the rows built from the same supports (one per row in
        # independent training, every node's in the one stacked row) and
        # predicting for itself, must leave the same bits in w, r and
        # RLS's A (P and the gain columns) and pending count, and skip the
        # same rows. Fewer values seen than nodes is the warm-up, where
        # the supports of unseen lags are empty and RLS folds; a raised
        # threshold makes projection rows skip.
        from anarx import learning

        # RLS forgets by alpha in (0, 1]; a tiny alpha overflows P at a fold
        assume(learner != "rls" or alpha >= 1e-3)
        m = build_anarx(n, 4, 0.0, 1.0, q=q, training=training, learner=learner, alpha=alpha)
        rng = np.random.default_rng(seed)
        m.learner.w[:] = rng.normal(size=m.learner.w.shape)
        for v in rng.uniform(-0.2, 1.2, seen).tolist():
            m.observe(v)
        twin = learning.make_learner(learner, m.learner.w.copy(), alpha=alpha,
                                     p0=getattr(m.learner, "p0", 1e4))
        if learner == "adaptive":
            m.learner.r[:] = rng.uniform(0.0, 2.0, len(m.learner.r))
            twin.r[:] = m.learner.r
        if learner == "rls":
            # the same pending gains, small beside the prior
            cols = m.learner.w.shape[1]
            m.learner.pending = twin.pending = j = int(rng.integers(0, learning.FOLD_RANK))
            m.learner.A[:, :, cols : cols + j] = rng.normal(size=(len(m.learner.w), cols, j))
            twin.A[:] = m.learner.A
        y = float(rng.uniform(-0.5, 1.5))
        k = min(n, seen)
        ring = m._ring
        if training == "independent" or n == 1:
            rows = [[support] for support in ring[:k]]
        else:
            # the stacked row walks once a lag is observed
            rows = [list(ring[:n])] if k else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "EPS_REG", eps)
            expected = [] if rows is None else twin.step(rows, y)
            skipped = m.train_step(y)
        # a skipped stacked row skips each of its observed nodes
        span = n // len(twin.w)
        expected = [(i, reason) for row, reason in expected
                    for i in range(row * span, min(row * span + span, k))]
        assert skipped == [(i, "lag not observed yet") for i in range(k, n)] + expected
        assert _bits(m.learner.w) == _bits(twin.w)
        if learner == "adaptive":
            assert _bits(m.learner.r) == _bits(twin.r)
        if learner == "rls":
            assert _bits(m.learner.A) == _bits(twin.A)
            assert m.learner.pending == twin.pending


class TestEvolve:
    def policy(self, **kw):
        base = dict(window=5, add_threshold=0.5, remove_threshold=0.1, n_min=1, n_max=4)
        base.update(kw)
        return EvolutionPolicy(**base)

    def warmed(self, n=2, training="stacked"):
        """A model after 30 learned steps, and the node forecasts of each
        step (the contributions evolve reads)."""
        m = small_model(n=n, training=training, learner="rls")
        rng = np.random.default_rng(7)
        contrib = []
        for y in rng.uniform(0, 1, 30):
            contrib.append(m.node_forecasts())
            m.train_step(float(y))
        return m, contrib

    def test_between_thresholds_no_change(self):
        m, contrib = self.warmed()
        before = m.W.copy()
        assert m.evolve(self.policy(), 0.3, contrib) is None
        assert m.n == 2
        assert np.array_equal(m.W, before)

    def test_add_keeps_prediction(self):
        for training in ("stacked", "independent"):
            m, contrib = self.warmed(training=training)
            m.observe(0.33)
            pred_before = m.forward()
            old = m.W.copy()
            m.evolve(self.policy(), 0.9, contrib)
            assert m.n == 3
            assert np.array_equal(m.W[2], np.zeros(m.grid.h))
            assert m.forward() == pred_before
            assert np.array_equal(m.W[:2], old)

    def test_add_respects_n_max(self):
        m, contrib = self.warmed()
        m.evolve(self.policy(n_max=2), 0.9, contrib)
        assert m.n == 2

    def test_remove_changes_output_by_contribution(self):
        m, _ = self.warmed(n=3)
        # make node 3 clearly the weakest contributor over the window
        m.W[2] = 0.0
        contrib = []
        rng = np.random.default_rng(8)
        for y in rng.uniform(0.2, 0.8, 10):
            contrib.append(m.node_forecasts())
            m.train_step(float(y))
            m.W[2] = 0.0
        contribution = m.node_forecasts()[2]
        pred_before = m.forward()
        m.evolve(self.policy(window=5), 0.01, contrib)
        assert m.n == 2
        assert abs(m.forward() - (pred_before - contribution)) <= 1e-12

    def test_remove_needs_weakest_last_node(self):
        m, _ = self.warmed(n=2)
        # node 2 dominates, node 1 silent: last node is not the weakest
        m.W[0] = 0.0
        m.W[1] = 1.0
        contrib = []
        rng = np.random.default_rng(9)
        for y in rng.uniform(0.2, 0.8, 10):
            contrib.append(m.node_forecasts())
            m.train_step(float(y))
            m.W[0] = 0.0
            m.W[1] = 1.0
        m.evolve(self.policy(window=5), 0.01, contrib)
        assert m.n == 2

    def test_remove_respects_n_min(self):
        m, contrib = self.warmed(n=1)
        m.evolve(self.policy(n_min=1, window=1), 0.0, contrib)
        assert m.n == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            EvolutionPolicy(add_threshold=0.1, remove_threshold=0.2)
        with pytest.raises(ValueError):
            EvolutionPolicy(n_min=3, n_max=2)
        # a threshold that is not finite would be written into the report
        for key, value in [("add_threshold", math.inf), ("add_threshold", "0.2"),
                           ("remove_threshold", True), ("add_threshold", None),
                           ("add_threshold", 10**400)]:
            with pytest.raises(ValueError, match=f"{key} must be a finite number"):
                EvolutionPolicy(**{key: value})
        with pytest.raises(ValueError, match="window must be an integer"):
            EvolutionPolicy(window=10**400)

    def test_structural_safety_fuzz(self):
        rng = np.random.default_rng(10)
        for training in ("stacked", "independent"):
            m = small_model(n=2, training=training, learner="adaptive", alpha=0.9)
            policy = self.policy(window=3, n_max=5)
            contrib = []
            for k in range(2000):
                contrib.append(m.node_forecasts())
                m.train_step(float(rng.uniform(0, 1)))
                if rng.uniform() < 0.05:
                    n = m.n
                    m.evolve(policy, float(rng.uniform(0, 1)), contrib)
                    assert abs(m.n - n) <= 1
                    if m.n != n:
                        contrib.clear()
                assert m.learner.w.size == m.n * m.grid.h
                assert len(m.learner.w) == (m.n if training == "independent" else 1)
                assert len(m._ring) >= max(m.n, len(m.delay_y))
                assert np.isfinite(m.forward())


def _dense_regressors(m):
    """Each node's h-wide regressor, built from the delay line; zero where
    the lag is unseen."""
    h, node = m.grid.h, NeoFuzzyNode(m.grid)
    return np.array([np.zeros(h) if _lag(m, l) is None else node.regressor(_lag(m, l))
                     for l in range(1, m.n + 1)])


def _row_sums(X, span):
    """Each row's sum over its ``span`` nodes: numpy's pairwise sum over
    each node's dense columns, then ``math.fsum`` over the row's nodes."""
    per_node = np.add.reduce(X.reshape(len(X), span, X.shape[1] // span), axis=2)
    return np.array([math.fsum(sums) for sums in per_node.tolist()])


def _dense_step(m, y):
    """What ``m.train_step(y)`` makes of the pool's weights (and r, P) in
    the dense form, as copies: the predictions and squared norms summed
    pairwise over each node's dense row and with fsum over a row's
    nodes, the update on every column, and RLS sums left to right over
    every column from zero."""
    learner = m.learner
    rows, cols = learner.w.shape
    span = m.n // rows
    k = -(-min(m.n, len(m.delay_y)) // span)
    Phi = _dense_regressors(m).reshape(rows, cols)[:k]
    w = learner.w.copy()
    error = float(y) - _row_sums(w[:k] * Phi, span)
    out = {"w": w}
    if learner.kind == "rls":
        P = learner.P.copy()
        for i, phi in enumerate(Phi):
            Pphi = np.zeros(cols)
            for j, p in enumerate(phi.tolist()):
                Pphi += p * P[i, j]
            total = 0.0
            for p, q in zip(phi.tolist(), Pphi.tolist()):
                total += p * q
            denom = learner.alpha + total
            w[i] += Pphi * (error[i] / denom)
            b = Pphi / math.sqrt(denom)
            P[i] -= np.outer(b, b)
        if learner.alpha != 1.0:
            P[:k] /= learner.alpha
        out["P"] = P
        return out
    gain = _row_sums(Phi * Phi, span)
    if learner.kind == "adaptive":
        r = learner.r.copy()
        r[:k] = learner.alpha * r[:k] + gain
        gain = r[:k]
        out["r"] = r
    for i in range(k):
        if gain[i] > EPS_REG:
            w[i] += (error[i] / gain[i]) * Phi[i]
    return out


class TestArrayPool:
    """The ring and weight-matrix evaluation against per-node evaluation."""

    @staticmethod
    def per_node_forecasts(m):
        out = []
        for l in range(1, m.n + 1):
            y_lag = _lag(m, l)
            out.append(0.0 if y_lag is None else _node(m, l).forward(y_lag))
        return np.array(out)

    values = st.floats(-0.5, 1.5, allow_nan=False)
    ops = st.one_of(
        st.tuples(st.sampled_from(["train", "observe"]), values),
        st.tuples(st.sampled_from(["add", "remove", "round_trip", "deepcopy"])),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.sampled_from([2, 3]),
        h=st.sampled_from([3, 9]),
        training=st.sampled_from(["stacked", "independent"]),
        learner=st.sampled_from(["rls", "kwh", "adaptive"]),
        n=st.integers(1, 3),
        ops=st.lists(ops, max_size=40),
    )
    def test_forecasts_equal_node_forward_bit_for_bit(
        self, q, h, training, learner, n, ops
    ):
        # The pool's support sums equal NeoFuzzyNode.forward for every
        # order. For q = 2 they, and every weight the learner moves, also
        # equal the dense form's bits, in both trainings; RLS runs at rank
        # 1 there, the textbook step the dense form takes.
        with fold_rank(1):
            self.run_ops(build_anarx(n, h, 0.0, 1.0, q=q, training=training, learner=learner,
                                     alpha=0.9 if learner == "adaptive" else 1.0),
                         ops, dense=q == 2)

    @pytest.mark.parametrize("training", ["stacked", "independent"])
    @pytest.mark.parametrize("learner", ["rls", "kwh", "adaptive"])
    def test_q2_pool_equals_dense_form_on_a_stream(self, training, learner):
        # generic values, where the order of a sum over three or more
        # nonzero terms shows in its last bits (hypothesis favours round
        # ones), through growth, pruning, a round trip and a copy; RLS at
        # rank 1, the textbook step the dense form takes
        rng = np.random.default_rng(17)
        ops = [("train", v) for v in rng.uniform(-0.2, 1.2, 200).tolist()]
        for at, op in ((40, ("add",)), (80, ("observe", 0.3)), (100, ("round_trip",)),
                       (120, ("add",)), (140, ("deepcopy",)), (160, ("remove",))):
            ops.insert(at, op)
        with fold_rank(1):
            self.run_ops(build_anarx(2, 9, 0.0, 1.0, training=training, learner=learner,
                                     alpha=0.9 if learner == "adaptive" else 1.0), ops, dense=True)

    def run_ops(self, m, ops, dense):
        assert_one_weight_block(m)
        for op in ops:
            if op[0] == "train":
                if dense:
                    assert _bits(m.node_forecasts()) == _bits(
                        np.add.reduce(m.W * _dense_regressors(m), axis=1))
                    want = _dense_step(m, op[1])
                m.train_step(op[1])
                if dense:
                    assert _bits(m.learner.w) == _bits(want["w"])
                    for name in ("r", "P"):
                        if name in want:
                            assert _bits(getattr(m.learner, name)) == _bits(want[name])
            elif op[0] == "observe":
                m.observe(op[1])
            elif op[0] == "add" and m.n < 5:
                m.add_node()
            elif op[0] == "remove" and m.n > 1:
                m.remove_last_node()
            elif op[0] == "round_trip":
                m = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
            elif op[0] == "deepcopy":
                m = copy.deepcopy(m)
            assert _bits(m.node_forecasts()) == _bits(self.per_node_forecasts(m))
            if m.training == "stacked":
                # the stacked row predicts the model output, bit for bit
                assert _bits(m.learner.predict([m._ring[: m.n]])) == _bits([m.forward()])
            assert_one_weight_block(m)

    def test_loaded_nodes_share_one_grid(self):
        m = small_model(n=3)
        m.train_step(0.4)
        m2 = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
        grid = m2.grid
        assert grid.to_dict() == m.grid.to_dict()
        assert_one_weight_block(m2)
        m2.add_node()
        assert m2.grid is grid
        assert_one_weight_block(m2)

    def test_a_pool_is_built_on_a_knot_grid_only(self):
        # a Gaussian grid is no KnotGrid: the pool holds neo-fuzzy nodes only
        grid = KnotGrid(0.0, 1.0, 3, 2)
        assert AnarxModel(grid, 2).grid is grid
        with pytest.raises(ValueError, match="built on a KnotGrid, not a GaussianGrid"):
            AnarxModel(build_gaussian_grid(0.0, 1.0, 3), 2)

    def test_nodes_on_different_grids_rejected(self):
        # nodes on different grids, or a grid's dict, are no grid
        grid = KnotGrid(0.0, 1.0, 3, 2)
        a = NeoFuzzyNode(grid)
        b = NeoFuzzyNode(KnotGrid(0.0, 2.0, 3, 2))
        for not_a_grid in ([a, b], grid.to_dict()):
            with pytest.raises(ValueError, match="built on a KnotGrid, not a"):
                AnarxModel(not_a_grid, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("training", ["stacked", "independent"])
    @pytest.mark.parametrize("learner", ["adaptive", "kwh", "rls"])
    def test_value_that_is_not_finite_is_rejected_before_any_state_moves(self, learner, training,
                                                                         value):
        # the grid's clamps pass NaN through, so without the check the
        # weights would learn it; the learned and the frozen step that
        # receive such a value raise and move nothing, in both trainings,
        # and the model goes on as a twin that never saw it
        m, twin = (build_anarx(2, 4, 0.0, 1.0, learner=learner, training=training)
                   for _ in range(2))
        for y in (0.3, 0.6):
            m.train_step(y)
            twin.train_step(y)
        before = m.state_dict()
        twin.state_dict()
        ring = list(m._ring)
        for bad_step in (m.train_step, m.observe):
            with pytest.raises(ParseError, match="not finite"):
                bad_step(value)
            assert m.state_dict() == before
            assert m._ring == ring
        for y in (0.4, 0.8, 0.1):
            assert _bits(m.node_forecasts()) == _bits(twin.node_forecasts())
            assert m.train_step(y) == twin.train_step(y)
        assert m.state_dict() == twin.state_dict()

    def test_loaded_model_fuzzifies_its_delay_line_again(self):
        # a loaded model fuzzifies its delay line again: after growth it
        # forecasts and learns as the original does
        m = build_anarx(2, 4, 0.0, 1.0, learner="kwh", training="independent")
        for y in (0.2, 0.5, 0.7):
            m.train_step(y)
        m.observe(0.9)
        m.add_node()
        state = json.loads(json.dumps(m.state_dict()))
        loaded = AnarxModel.from_state(state)
        assert loaded._ring == m._ring
        assert _bits(loaded.node_forecasts()) == _bits(m.node_forecasts())
        m.train_step(0.4)
        loaded.train_step(0.4)
        assert _bits(loaded.W) == _bits(m.W)
