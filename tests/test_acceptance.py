"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1 and 2 run against the archived monthly sunspot series and are
skipped (loudly) when the file has not been fetched; everything else is
self-contained. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest

from anarx import (
    CombinerState,
    EvolutionPolicy,
    KnotGrid,
    KwhLearner,
    RlsLearner,
    AdaptiveLearner,
    RunConfig,
    StructureChange,
    build_anarx,
    run_experiment,
)
from anarx.datasets import load_sunspots, sunspot_path, synthetic_load_series
from anarx.errors import DegenerateStep

from conftest import assert_one_weight_block, basis, batch_optimum, ols_fit, supports

SUNSPOT_MISSING = sunspot_path() is None
SUNSPOT_REASON = (
    "monthly sunspot series not present: run scripts/fetch_sunspots.py "
    "(or set ANARX_DATA); criteria 1-2 need the real archived data"
)


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def sunspot_configs():
    weighted = RunConfig(
        n_nodes=2, h=4, q=2, learner="adaptive", alpha=0.9,
        train_len=2256, test_len=564, weighted=True, normalization="minmax",
    )
    plain = RunConfig(
        n_nodes=2, h=4, q=2, learner="adaptive", alpha=0.9,
        train_len=2256, test_len=564, weighted=False, training="stacked",
        normalization="minmax",
    )
    return plain, weighted


@pytest.mark.skipif(SUNSPOT_MISSING, reason=SUNSPOT_REASON)
class TestCriterion1SunspotBenchmark:
    def test_weighted_and_plain_match_reported_values(self):
        series = load_sunspots()
        plain_cfg, weighted_cfg = sunspot_configs()
        weighted = run_experiment(series, weighted_cfg)
        plain = run_experiment(series, plain_cfg)
        assert weighted.rmse_test <= 0.15
        assert abs(weighted.rmse_test - 0.1081) <= 0.04
        assert abs(plain.rmse_test - 0.1350) <= 0.04
        assert weighted.wall_time_s <= 5.0
        assert plain.wall_time_s <= 5.0
        _report(
            "criterion 1 (sunspot benchmark)",
            f"weighted rmse_test={weighted.rmse_test:.4f} (target 0.1081 +/- 0.04), "
            f"plain rmse_test={plain.rmse_test:.4f} (target 0.1350 +/- 0.04), "
            f"runtimes {weighted.wall_time_s:.2f}s/{plain.wall_time_s:.2f}s",
        )


@pytest.mark.skipif(SUNSPOT_MISSING, reason=SUNSPOT_REASON)
class TestCriterion2WeightedBeatsPlain:
    def test_ordering_on_sunspots(self):
        series = load_sunspots()
        plain_cfg, weighted_cfg = sunspot_configs()
        weighted = run_experiment(series, weighted_cfg)
        plain = run_experiment(series, plain_cfg)
        assert weighted.rmse_test < plain.rmse_test
        _report(
            "criterion 2 (weighted beats plain, sunspot)",
            f"{weighted.rmse_test:.4f} < {plain.rmse_test:.4f}",
        )


class TestCriterion3ElectricityProtocol:
    def test_load_series_protocol(self):
        series = synthetic_load_series()
        plain_cfg = RunConfig(
            n_nodes=2, h=9, q=2, learner="adaptive", alpha=0.62,
            train_len=3000, test_len=2000, training="stacked",
        )
        weighted_cfg = RunConfig(
            n_nodes=2, h=8, q=2, learner="adaptive", alpha=0.9,
            train_len=3000, test_len=2000, weighted=True,
        )
        plain_a = run_experiment(series, plain_cfg)
        weighted_a = run_experiment(series, weighted_cfg)
        # determinism: identical reports (wall time excluded) on a rerun
        plain_b = run_experiment(series, plain_cfg)
        weighted_b = run_experiment(series, weighted_cfg)
        assert plain_a.to_json(include_wall_time=False) == plain_b.to_json(include_wall_time=False)
        assert weighted_a.to_json(include_wall_time=False) == weighted_b.to_json(include_wall_time=False)
        assert plain_a.steps_csv() == plain_b.steps_csv()
        assert weighted_a.rmse_test < plain_a.rmse_test
        _report(
            "criterion 3 (15-minute load protocol)",
            f"3000/2000 split deterministic; weighted {weighted_a.rmse_test:.4f} "
            f"< plain {plain_a.rmse_test:.4f}",
        )


class TestCriterion4Oracles:
    def test_rls_matches_ols(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m + 1, 51))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            rls = RlsLearner(np.zeros((1, m)), alpha=1.0, p0=1e8)
            for phi, t in zip(X, y):
                rls.step(supports(phi[None, :]), t)
            worst = max(worst, float(np.max(np.abs(rls.w[0] - ols_fit(X, y)))))
        assert worst <= 1e-5
        _report("criterion 4a (RLS vs OLS)", f"max weight deviation {worst:.2e} <= 1e-5")

    def test_batch_solve_matches_grid_search(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            R = A @ A.T + 0.2 * np.eye(2)
            c, _ = batch_optimum(R)
            grid = np.linspace(-2.0, 3.0, 50001)
            cand = np.stack([grid, 1.0 - grid], axis=1)
            best = float(np.min(np.einsum("ij,jk,ik->i", cand, R, cand)))
            worst = max(worst, float(c @ R @ c) - best)
        assert worst <= 1e-6
        _report("criterion 4b (batch solve vs grid search)", f"objective gap {worst:.2e} <= 1e-6")

    def test_planted_model_self_consistency(self, planted_series):
        cfg = RunConfig(n_nodes=2, h=4, q=2, learner="rls", alpha=1.0,
                        train_len=5000, test_len=1000)
        report = run_experiment(planted_series, cfg)
        assert report.rmse_test <= 1e-6
        _report(
            "criterion 4c (planted-model self-consistency)",
            f"test rmse {report.rmse_test:.2e} <= 1e-6",
        )


class TestCriterion5Identities:
    def test_unity_partition(self):
        worst = 0.0
        for h, q in [(3, 1), (4, 2), (9, 2), (6, 3), (8, 4)]:
            grid = KnotGrid(-1.0, 2.0, h, q)
            for u in np.linspace(-1.0, 2.0, 2001):
                worst = max(worst, abs(basis(grid, u).sum() - 1.0))
        assert worst <= 1e-12
        _report("criterion 5 (unity partition)", f"max |sum - 1| = {worst:.2e} <= 1e-12")

    def test_kaczmarz_zero_aposteriori(self):
        rng = np.random.default_rng(1)
        kwh = KwhLearner(np.zeros((1, 6)))
        worst = 0.0
        for _ in range(500):
            phi = rng.normal(size=6)
            y = rng.normal()
            kwh.step(supports(phi[None, :]), y)
            worst = max(worst, abs(y - kwh.w[0] @ phi) / (1.0 + abs(y)))
        assert worst <= 1e-10
        _report("criterion 5 (Kaczmarz a-posteriori)", f"max residual {worst:.2e} <= 1e-10")

    def test_adaptive_coincides_with_kaczmarz(self):
        rng = np.random.default_rng(2)
        # first step, alpha = 1, r = 0
        phi, y = rng.normal(size=(1, 4)), rng.normal()
        ad = AdaptiveLearner(np.zeros((1, 4)), alpha=1.0)
        kw = KwhLearner(np.zeros((1, 4)))
        ad.step(supports(phi), y)
        kw.step(supports(phi), y)
        first_gap = float(np.max(np.abs(ad.w - kw.w)))
        assert first_gap <= 1e-10
        # every step at alpha = 0
        ad0 = AdaptiveLearner(np.zeros((1, 4)), alpha=0.0)
        kw0 = KwhLearner(np.zeros((1, 4)))
        all_gap = 0.0
        for _ in range(300):
            phi, y = rng.normal(size=(1, 4)), rng.normal()
            ad0.step(supports(phi), y)
            kw0.step(supports(phi), y)
            all_gap = max(all_gap, float(np.max(np.abs(ad0.w - kw0.w))))
        assert all_gap <= 1e-10
        _report(
            "criterion 5 (adaptive gain reduces to Kaczmarz)",
            f"first-step gap {first_gap:.2e}, alpha=0 gap {all_gap:.2e} <= 1e-10",
        )

    def test_optimal_step_lambda_zero_is_kaczmarz(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            cs = CombinerState(n)
            cs.c = rng.normal(size=n)
            c0 = cs.c.copy()
            f, y = rng.normal(size=n), rng.normal()
            cs.optimal_step(f, y)
            want = c0 + (y - c0 @ f) / (f @ f) * f
            worst = max(worst, float(np.max(np.abs(cs.c - want))))
        assert worst <= 1e-12
        _report("criterion 5 (optimal step at lambda=0)", f"gap vs Kaczmarz {worst:.2e} <= 1e-12")

    def test_kkt_stationarity_and_constraint(self):
        rng = np.random.default_rng(4)
        worst_kkt = 0.0
        worst_sum = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            R = A @ A.T + 0.2 * np.eye(n)
            c, lam = batch_optimum(R)
            worst_kkt = max(worst_kkt, float(np.max(np.abs(2.0 * R @ c + lam))))
            worst_sum = max(worst_sum, abs(float(c.sum()) - 1.0))
            # saddle value identity: c'Rc = 1/s = -lam/2
            saddle = -0.5 * lam
            assert abs(float(c @ R @ c) - saddle) <= 1e-10 * max(1.0, abs(saddle))
        assert worst_kkt <= 1e-10
        assert worst_sum <= 1e-10
        _report(
            "criterion 5 (KKT stationarity, constraint)",
            f"max |2Rc + lam| = {worst_kkt:.2e}, max |sum c - 1| = {worst_sum:.2e}",
        )


class TestCriterion6EvolutionSafety:
    def test_fuzzed_streams_preserve_invariants(self):
        rng = np.random.default_rng(2024)
        policy = EvolutionPolicy(window=10, add_threshold=0.5, remove_threshold=0.2,
                                 n_min=1, n_max=8)
        add_checks = 0
        for training in ("stacked", "independent"):
            model = build_anarx(2, 4, 0.0, 1.0, q=2, training=training,
                                learner="adaptive", alpha=0.9)
            combiner = CombinerState(2)
            contrib = []
            for k in range(5000):
                contrib.append(model.node_forecasts())
                model.train_step(float(rng.uniform(0, 1)))
                if rng.uniform() < 0.03:
                    forecasts = model.node_forecasts()
                    pred_before = model.forward()
                    comb_before = combiner.combine(forecasts)
                    change = model.evolve(policy, float(rng.uniform(0, 1)), contrib)
                    if change is not StructureChange.NONE:
                        contrib.clear()
                    if change is StructureChange.ADDED:
                        combiner.extend(1)
                        assert model.forward() == pred_before
                        grown = np.concatenate([forecasts, [model.node_forecasts()[-1]]])
                        assert combiner.combine(grown) == comb_before
                        add_checks += 1
                    elif change is StructureChange.REMOVED:
                        combiner.truncate(model.n)
                # invariants after every step
                assert_one_weight_block(model)
                assert len(model.learner.w) == (model.n if training == "independent" else 1)
                assert combiner.n == model.n
                assert len(model._ring) >= max(model.n, len(model.delay_y))
                assert 1 <= model.n <= 8
                assert np.isfinite(model.forward())
        assert add_checks > 10
        _report(
            "criterion 6 (structural evolution safety)",
            f"10000 fuzzed steps, {add_checks} node additions all left the "
            "prediction unchanged at the step of addition",
        )


class TestCriterion7OnlineToBatch:
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

    def test_time_average_tracks_batch_solution(self):
        gaps = [
            self._stream_gap(3, 2, 1.0),
            self._stream_gap(4, 3, 1.0),
            self._stream_gap(1, 3, 3.0),
        ]
        assert max(gaps) <= 0.05
        _report(
            "criterion 7 (online-to-batch convergence)",
            "inf-norm gaps " + ", ".join(f"{g:.4f}" for g in gaps) + " <= 0.05",
        )
