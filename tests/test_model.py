import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarx import (
    AnarxModel,
    DelayLine,
    EvolutionPolicy,
    KwhLearner,
    NeoFuzzyNode,
    StructureChange,
    build_anarx,
    build_uniform_grid,
)
from anarx.errors import DegenerateActivation
from anarx.numerics import EPS_REG


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestDelayLine:
    def test_lag_semantics(self):
        dl = DelayLine(3)
        assert dl.lag(1) is None
        for v in (1.0, 2.0, 3.0):
            dl.push(v)
        assert dl.lag(1) == 3.0
        assert dl.lag(2) == 2.0
        assert dl.lag(3) == 1.0
        dl.push(4.0)
        assert dl.lag(1) == 4.0 and dl.lag(3) == 2.0

    def test_capacity_trims(self):
        dl = DelayLine(2)
        for v in range(5):
            dl.push(float(v))
        assert len(dl) == 2
        assert dl.lag(3) is None

    def test_grow_capacity(self):
        dl = DelayLine(1)
        dl.push(1.0)
        dl.ensure_capacity(3)
        dl.push(2.0)
        dl.push(3.0)
        assert dl.lag(3) == 1.0


def small_model(n=2, training="stacked", learner="kwh", h=3, alpha=1.0):
    return build_anarx(n, h, 0.0, 1.0, q=2, training=training, learner=learner, alpha=alpha)


class TestForward:
    def test_single_node_equals_node_forward(self):
        m = small_model(n=1)
        m.observe(0.4)
        m.nodes[0].weights[:] = np.arange(3) * 0.1
        assert m.forward() == m.nodes[0].forward(0.4)

    def test_two_constant_nodes_add(self):
        m = small_model(n=2)
        m.observe(0.3)
        m.observe(0.6)
        m.nodes[0].weights[:] = 0.3
        m.nodes[1].weights[:] = 0.5
        assert abs(m.forward() - 0.8) <= 1e-12

    def test_zero_weights_zero_output(self):
        m = small_model()
        m.observe(0.5)
        m.observe(0.5)
        assert m.forward() == 0.0

    def test_warmup_missing_lags_contribute_zero(self):
        m = small_model(n=3, h=3)
        m.nodes[1].weights[:] = 1.0
        m.nodes[2].weights[:] = 1.0
        assert m.forward() == 0.0
        m.observe(0.5)
        assert m.forward() == 0.0  # only node 1 active, zero weights
        f = m.node_forecasts()
        assert len(f) == 3 and f[1] == 0.0 and f[2] == 0.0

    def test_additivity_matches_individual_queries(self):
        rng = np.random.default_rng(0)
        m = small_model(n=3, h=4)
        for node in m.nodes:
            node.weights[:] = rng.normal(size=node.dim)
        for v in rng.uniform(0, 1, 5):
            m.observe(v)
        assert abs(m.forward() - sum(m.node_forecasts())) <= 1e-12
        manual = sum(
            node.forward(m.delay_y.lag(l))
            for l, node in enumerate(m.nodes, start=1)
        )
        assert abs(m.forward() - manual) <= 1e-12


class TestTrainStep:
    def test_stacked_n1_equals_driving_learner_directly(self):
        rng = np.random.default_rng(1)
        series = rng.uniform(0, 1, 60)
        m = small_model(n=1, training="stacked", learner="kwh")
        ref_node = NeoFuzzyNode(m.nodes[0].grid)
        ref = KwhLearner(ref_node.weights[None, :])
        ref_node.weights = ref.w[0]
        prev = None
        for y in series:
            rep = m.train_step(float(y))
            if prev is not None:
                ref.step([[ref_node.fuzzify(prev)]], float(y))
            prev = float(y)
            assert np.max(np.abs(m.nodes[0].weights - ref_node.weights)) <= 1e-15

    def test_independent_kwh_posteriori_zero_per_node(self):
        rng = np.random.default_rng(2)
        m = small_model(n=2, training="independent", learner="kwh")
        series = rng.uniform(0, 1, 50)
        for y in series[:10]:
            m.train_step(float(y))
        for y in series[10:]:
            lags = [m.delay_y.lag(1), m.delay_y.lag(2)]
            m.train_step(float(y))
            for node, lag in zip(m.nodes, lags):
                assert abs(float(y) - node.forward(lag)) <= 1e-10

    def test_stacked_matches_concatenated_regression_oracle(self):
        rng = np.random.default_rng(3)
        m = small_model(n=2, training="stacked", learner="kwh", h=4)
        w_ref = np.zeros(8)
        series = rng.uniform(0, 1, 80)
        hist = []
        for y in series:
            y = float(y)
            # oracle: independently coded single-regression projection
            if len(hist) >= 1:
                phi1 = m.nodes[0].regressor(hist[-1])
                phi2 = m.nodes[1].regressor(hist[-2]) if len(hist) >= 2 else np.zeros(4)
                phi = np.concatenate([phi1, phi2])
                w_ref = w_ref + (y - w_ref @ phi) / (phi @ phi) * phi
            m.train_step(y)
            hist.append(y)
            got = np.concatenate([m.nodes[0].weights, m.nodes[1].weights])
            assert np.max(np.abs(got - w_ref)) <= 1e-12

    def test_node_independence_in_independent_mode(self):
        rng = np.random.default_rng(4)
        m = small_model(n=3, training="independent", learner="rls")
        for y in rng.uniform(0, 1, 10):
            m.train_step(float(y))
        before = [node.weights.copy() for node in m.nodes]
        states_before = [copy.deepcopy(m.learner.row_state(i)) for i in range(3)]
        # step only row 1 (node 2) of the batched learner by hand; row 0
        # gets a zero-innovation regressor, row 2 none
        assert m.learner.step([[(0, [])], [m.nodes[1].fuzzify(0.5)]], 0.9) == []
        assert np.array_equal(m.nodes[0].weights, before[0])
        assert np.array_equal(m.nodes[2].weights, before[2])
        assert not np.array_equal(m.nodes[1].weights, before[1])
        assert m.learner.row_state(0) == states_before[0]
        assert m.learner.row_state(2) == states_before[2]
        assert m.learner.row_state(1)["P"] != states_before[1]["P"]

    def test_warmup_determinism(self):
        rng = np.random.default_rng(5)
        series = rng.uniform(0, 1, 40)
        preds = []
        for _ in range(2):
            m = small_model(n=2, training="stacked", learner="rls")
            preds.append([m.train_step(float(y)).prediction for y in series])
        assert preds[0] == preds[1]

    def test_stationary_planted_target_converges(self):
        # linear-in-regressor target: last-100 RMSE well under target std
        rng = np.random.default_rng(6)
        grid = build_uniform_grid(0.0, 1.0, 4, 2)
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
            rep = m.train_step(y)
            errors.append(rep.error)
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
            a = own.train_step(y)
            b = handed.train_step(y, forecasts=handed.node_forecasts())
            assert (a.prediction, a.error, a.skipped) == (b.prediction, b.error, b.skipped)
            assert np.array_equal(a.node_predictions, b.node_predictions)
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
        report = m.train_step(0.3)
        reason = report.skipped[1][1]
        assert reason.startswith("ZeroRegressor: squared regressor norm ")
        assert reason.endswith(" below 10.0")
        assert report.skipped == [(2, "lag not observed yet"), (0, reason), (1, reason)]
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
        report = m.train_step(0.6)
        assert report.skipped == [(1, "ZeroGain: gain accumulator 0.5 below 0.75")]
        assert not np.array_equal(m.W[0], W[0])
        assert np.array_equal(m.W[1], W[1])
        # alpha = 0: each gain is the row's squared norm, masked or not
        assert m.learner.r.tolist() == [1.0, 0.5] != r.tolist()


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
        before = [node.weights.copy() for node in m.nodes]
        change = m.evolve(self.policy(), 0.3, contrib)
        assert change is StructureChange.NONE
        assert m.n == 2
        for node, w in zip(m.nodes, before):
            assert np.array_equal(node.weights, w)

    def test_add_keeps_prediction(self):
        for training in ("stacked", "independent"):
            m, contrib = self.warmed(training=training)
            m.observe(0.33)
            pred_before = m.forward()
            old = [node.weights.copy() for node in m.nodes]
            change = m.evolve(self.policy(), 0.9, contrib)
            assert change is StructureChange.ADDED
            assert m.n == 3
            assert np.array_equal(m.nodes[2].weights, np.zeros(m.nodes[2].dim))
            assert m.forward() == pred_before
            for node, w in zip(m.nodes[:2], old):
                assert np.array_equal(node.weights, w)

    def test_add_respects_n_max(self):
        m, contrib = self.warmed()
        assert m.evolve(self.policy(n_max=2), 0.9, contrib) is StructureChange.NONE

    def test_remove_changes_output_by_contribution(self):
        m, _ = self.warmed(n=3)
        # make node 3 clearly the weakest contributor over the window
        m.nodes[2].weights[:] = 0.0
        contrib = []
        rng = np.random.default_rng(8)
        for y in rng.uniform(0.2, 0.8, 10):
            contrib.append(m.node_forecasts())
            m.train_step(float(y))
            m.nodes[2].weights[:] = 0.0
        contribution = m.node_forecasts()[2]
        pred_before = m.forward()
        change = m.evolve(self.policy(window=5), 0.01, contrib)
        assert change is StructureChange.REMOVED
        assert m.n == 2
        assert abs(m.forward() - (pred_before - contribution)) <= 1e-12

    def test_remove_needs_weakest_last_node(self):
        m, _ = self.warmed(n=2)
        # node 2 dominates, node 1 silent: last node is not the weakest
        m.nodes[0].weights[:] = 0.0
        m.nodes[1].weights[:] = 1.0
        contrib = []
        rng = np.random.default_rng(9)
        for y in rng.uniform(0.2, 0.8, 10):
            contrib.append(m.node_forecasts())
            m.train_step(float(y))
            m.nodes[0].weights[:] = 0.0
            m.nodes[1].weights[:] = 1.0
        assert m.evolve(self.policy(window=5), 0.01, contrib) is StructureChange.NONE

    def test_remove_respects_n_min(self):
        m, contrib = self.warmed(n=1)
        assert m.evolve(self.policy(n_min=1, window=1), 0.0, contrib) is StructureChange.NONE

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            EvolutionPolicy(add_threshold=0.1, remove_threshold=0.2)
        with pytest.raises(ValueError):
            EvolutionPolicy(n_min=3, n_max=2)

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
                    if m.evolve(policy, float(rng.uniform(0, 1)), contrib) is not StructureChange.NONE:
                        contrib.clear()
                assert m.learner.w.size == sum(nd.dim for nd in m.nodes)
                assert len(m.learner.w) == (m.n if training == "independent" else 1)
                assert m.delay_y.capacity >= m.n
                assert np.isfinite(m.forward())


def _dense_regressors(m):
    """Each node's h-wide regressor, built from the delay line; zero where
    the lag is unseen."""
    h = m.nodes[0].dim
    return np.array([np.zeros(h) if m.delay_y.lag(l) is None else node.regressor(m.delay_y.lag(l))
                     for l, node in enumerate(m.nodes, start=1)])


def _dense_step(m, y):
    """What ``m.train_step(y)`` makes of the pool's weights (and r, P) in
    the dense form, as copies: numpy's pairwise sum over each dense row
    for the predictions and squared norms, the update on every column,
    and RLS sums left to right over every column from zero."""
    learner = m.learner
    rows, cols = learner.w.shape
    span = m.n // rows
    k = -(-min(m.n, len(m.delay_y)) // span)
    Phi = _dense_regressors(m).reshape(rows, cols)[:k]
    w = learner.w.copy()
    error = float(y) - np.add.reduce(w[:k] * Phi, axis=1)
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
    gain = np.add.reduce(Phi * Phi, axis=1)
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
        for l, node in enumerate(m.nodes, start=1):
            y_lag = m.delay_y.lag(l)
            out.append(0.0 if y_lag is None else node.forward(y_lag))
        return np.array(out)

    @staticmethod
    def assert_weights_shared(m):
        # the learner updates the same memory the nodes and W read
        rows = 1 if m.training == "stacked" else m.n
        assert m.learner.w.shape == (rows, m.n * m.nodes[0].dim // rows)
        assert np.shares_memory(m.W, m.learner.w)
        for nd, row in zip(m.nodes, m.W):
            assert np.shares_memory(nd.weights, m.learner.w)
            assert np.array_equal(nd.weights, row)
        assert np.array_equal(m.learner.w.ravel(), np.concatenate([nd.weights for nd in m.nodes]))

    values = st.floats(-0.5, 1.5, allow_nan=False)
    ops = st.one_of(
        st.tuples(st.sampled_from(["train", "observe"]), values),
        st.tuples(st.sampled_from(["add", "remove", "round_trip"])),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([("neo_fuzzy", 2), ("neo_fuzzy", 3), ("wang_mendel", None)]),
        h=st.sampled_from([3, 9]),
        training=st.sampled_from(["stacked", "independent"]),
        learner=st.sampled_from(["rls", "kwh", "adaptive"]),
        n=st.integers(1, 3),
        ops=st.lists(ops, max_size=40),
    )
    def test_forecasts_equal_node_forward_bit_for_bit(
        self, kind, h, training, learner, n, ops
    ):
        # The pool's support sums equal node.forward for every node kind
        # and order. For q = 2 they, and every weight the learner moves,
        # also equal the dense form's bits, in both trainings.
        node_kind, q = kind
        self.run_ops(build_anarx(n, h, 0.0, 1.0, q=q or 2, node_kind=node_kind,
                                 training=training, learner=learner,
                                 alpha=0.9 if learner == "adaptive" else 1.0),
                     ops, dense=q == 2)

    @pytest.mark.parametrize("training", ["stacked", "independent"])
    @pytest.mark.parametrize("learner", ["rls", "kwh", "adaptive"])
    def test_q2_pool_equals_dense_form_on_a_stream(self, training, learner):
        # generic values, where the order of a sum over three or more
        # nonzero terms shows in its last bits (hypothesis favours round
        # ones), through growth and pruning
        rng = np.random.default_rng(17)
        ops = [("train", v) for v in rng.uniform(-0.2, 1.2, 200).tolist()]
        for at, op in ((40, ("add",)), (80, ("observe", 0.3)), (120, ("add",)), (160, ("remove",))):
            ops.insert(at, op)
        self.run_ops(build_anarx(2, 9, 0.0, 1.0, training=training, learner=learner,
                                 alpha=0.9 if learner == "adaptive" else 1.0), ops, dense=True)

    def run_ops(self, m, ops, dense):
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
            assert _bits(m.node_forecasts()) == _bits(self.per_node_forecasts(m))
            self.assert_weights_shared(m)

    def test_loaded_nodes_share_one_grid(self):
        m = small_model(n=3)
        m2 = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
        grid = m2.nodes[0].grid
        assert all(nd.grid is grid for nd in m2.nodes)

    def test_nodes_on_different_grids_rejected(self):
        a = NeoFuzzyNode(build_uniform_grid(0.0, 1.0, 3, 2))
        b = NeoFuzzyNode(build_uniform_grid(0.0, 2.0, 3, 2))
        with pytest.raises(ValueError):
            AnarxModel([a, b])

    def test_degenerate_row_raises_while_a_node_reads_it(self):
        m = build_anarx(2, 4, 0.0, 1.0, node_kind="wang_mendel", learner="kwh")
        m.train_step(0.5)
        m.train_step(1e9)  # underflows every rule; nothing reads it yet
        for _ in range(2):
            with pytest.raises(DegenerateActivation):
                m.node_forecasts()
            with pytest.raises(DegenerateActivation):
                m.train_step(0.5)
            m.observe(0.5)
        # the value has moved past the last node's lag
        assert np.isfinite(m.node_forecasts()).all()
        m.train_step(0.5)

    def test_degenerate_row_survives_growth_and_a_round_trip(self):
        # the ring grows with the pool, and a loaded model rebuilds the
        # failed row at the same lag: it raises until the value has moved
        # past the last node, then forecasts as the original does
        m = build_anarx(2, 4, 0.0, 1.0, node_kind="wang_mendel", learner="kwh",
                        training="independent")
        for y in (0.2, 0.5, 0.7):
            m.train_step(y)
        m.observe(1e9)
        m.add_node()
        for _ in range(m.n):
            m = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
            with pytest.raises(DegenerateActivation):
                m.node_forecasts()
            m.observe(0.5)
        loaded = AnarxModel.from_state(json.loads(json.dumps(m.state_dict())))
        assert _bits(loaded.node_forecasts()) == _bits(m.node_forecasts())
        m.train_step(0.4)
        loaded.train_step(0.4)
        assert _bits(loaded.W) == _bits(m.W)
