import json
import logging
import math

import numpy as np
import pytest

from anarx import RunConfig, SeriesFrame, load_csv, normalize_minmax, run_experiment
from anarx.errors import DegenerateRange, EmptySeries, NumericalDivergence, ParseError
from anarx.model import EvolutionPolicy
from anarx.pipeline import build_forecaster, denormalize, parse_config_text


class TestLoadCsv:
    def test_single_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n2\n3\n")
        frame = load_csv(p)
        assert np.array_equal(frame.values, [1.0, 2.0, 3.0])

    def test_header_detected(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("demand\n10\n20\n")
        frame = load_csv(p)
        assert np.array_equal(frame.values, [10.0, 20.0])
        assert frame.name == "demand"

    def test_named_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("month,Sunspots\n1749-01,58.0\n1749-02,62.6\n")
        frame = load_csv(p, column="Sunspots")
        assert np.allclose(frame.values, [58.0, 62.6])

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, column="c")
        assert "'c'" in str(err.value)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n2\n3\n4\n5\n6\noops\n8\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert "row 7" in str(err.value)

    def test_integer_column_index(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1,9\n2,8\n")
        frame = load_csv(p, column=1)
        assert np.array_equal(frame.values, [9.0, 8.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("\n\n")
        with pytest.raises(EmptySeries):
            load_csv(p)


class TestNormalize:
    def test_full_range(self):
        frame, lo, hi = normalize_minmax(SeriesFrame(np.array([2.0, 4.0, 6.0])))
        assert np.allclose(frame.values, [0.0, 0.5, 1.0])
        assert (lo, hi) == (2.0, 6.0)

    def test_constant_segment_degenerate(self):
        with pytest.raises(DegenerateRange):
            normalize_minmax(SeriesFrame(np.array([3.0, 3.0, 3.0])))

    def test_values_beyond_fit_range_pass_through(self):
        series = SeriesFrame(np.array([0.0, 10.0, 25.0]))
        frame, lo, hi = normalize_minmax(series, fit_range=(0, 2))
        assert frame.values[2] == 2.5
        assert frame.values[2] > 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        series = SeriesFrame(rng.uniform(-5, 9, 100))
        frame, lo, hi = normalize_minmax(series)
        back = denormalize(frame.values, lo, hi)
        assert np.max(np.abs(back - series.values)) <= 1e-12


class TestRunConfig:
    def test_training_defaults(self):
        assert RunConfig(n_nodes=2, h=4, train_len=10, test_len=5).training == "stacked"
        assert (
            RunConfig(n_nodes=2, h=4, train_len=10, test_len=5, weighted=True).training
            == "independent"
        )

    def test_alpha_validation_by_learner(self):
        with pytest.raises(ValueError):
            RunConfig(n_nodes=1, h=3, train_len=5, test_len=1, learner="rls", alpha=0.0)
        RunConfig(n_nodes=1, h=3, train_len=5, test_len=1, learner="adaptive", alpha=0.0)

    def test_split_must_fit_series(self):
        series = SeriesFrame(np.linspace(0, 1, 20))
        cfg = RunConfig(n_nodes=1, h=3, train_len=18, test_len=5)
        with pytest.raises(ValueError):
            run_experiment(series, cfg)


class TestParseConfig:
    def test_round_trip_keys(self):
        text = """
        # benchmark setup
        n_nodes = 2
        h = 4
        q = 2
        learner = adaptive
        alpha = 0.9
        weighted = true
        train_len = 100
        test_len = 50
        normalization = minmax
        seed = 3
        """
        cfg = parse_config_text(text)
        assert cfg.n_nodes == 2 and cfg.weighted and cfg.alpha == 0.9
        assert cfg.training == "independent"
        assert cfg.seed == 3

    def test_evolution_block(self):
        cfg = parse_config_text(
            "n_nodes = 1\nh = 3\ntrain_len = 50\ntest_len = 10\n"
            "evolution = true\nevolution_window = 20\nevolution_add_threshold = 0.4\n"
            "evolution_remove_threshold = 0.1\nevolution_n_max = 5\n"
        )
        assert isinstance(cfg.evolution, EvolutionPolicy)
        assert cfg.evolution.window == 20 and cfg.evolution.n_max == 5

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config_text("n_nodes = 1\nh = 3\ntrain_len = 5\ntest_len = 1\nfoo = 1\n")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_config_text("n_nodes 2\n")


class TestRunExperiment:
    def test_constant_series_exact_learners(self):
        series = SeriesFrame(np.full(400, 5.0))
        for learner, alpha in (("kwh", 1.0), ("adaptive", 0.0), ("rls", 1.0)):
            cfg = RunConfig(
                n_nodes=2, h=4, train_len=300, test_len=100,
                learner=learner, alpha=alpha, normalization="none",
            )
            report = run_experiment(series, cfg)
            errors = [abs(s.error) for s in report.steps]
            assert max(errors[10:]) <= 1e-8
            assert report.rmse_test <= 1e-8

    def test_rmse_matches_recomputation(self):
        rng = np.random.default_rng(1)
        series = SeriesFrame(np.cumsum(rng.normal(size=300)) + 50.0)
        cfg = RunConfig(n_nodes=2, h=5, train_len=200, test_len=100, learner="adaptive", alpha=0.9)
        report = run_experiment(series, cfg)
        errs = np.array([s.error for s in report.steps])
        assert abs(report.rmse_train - np.sqrt(np.mean(errs[:200] ** 2))) <= 1e-12
        assert abs(report.rmse_test - np.sqrt(np.mean(errs[200:] ** 2))) <= 1e-12
        for s in report.steps:
            assert s.error == s.y - s.y_hat

    def test_deterministic_reports(self):
        rng = np.random.default_rng(2)
        series = SeriesFrame(rng.uniform(0, 1, 250) + np.sin(np.arange(250) / 9.0))
        cfg = RunConfig(n_nodes=2, h=4, train_len=180, test_len=70, weighted=True,
                        learner="adaptive", alpha=0.9)
        a = run_experiment(series, cfg)
        b = run_experiment(series, cfg)
        assert a.to_json(include_wall_time=False) == b.to_json(include_wall_time=False)
        assert a.steps_csv() == b.steps_csv()

    def test_online_error_decreases_on_planted_data(self, planted_series):
        cfg = RunConfig(n_nodes=2, h=4, train_len=2000, test_len=500, learner="rls", alpha=1.0)
        report = run_experiment(planted_series, cfg)
        errs = np.array([s.error for s in report.steps[:2000]])
        window = 100
        rmse_windows = [
            float(np.sqrt(np.mean(errs[i : i + window] ** 2)))
            for i in range(0, 2000, window)
        ]
        # non-increasing within noise: each window under 1.5x the previous
        for earlier, later in zip(rmse_windows, rmse_windows[1:]):
            assert later <= 1.5 * earlier + 1e-12
        assert rmse_windows[-1] < 0.01 * rmse_windows[0]

    def test_parameter_count(self):
        series = SeriesFrame(np.sin(np.arange(200) / 7.0) + 2.0)
        plain = run_experiment(
            series, RunConfig(n_nodes=2, h=4, train_len=150, test_len=50)
        )
        assert plain.parameter_count == 2 * 4 * 2
        weighted = run_experiment(
            series,
            RunConfig(n_nodes=2, h=4, train_len=150, test_len=50, weighted=True,
                      learner="adaptive", alpha=0.9),
        )
        assert weighted.parameter_count == 2 * 4 * 2 + 2

    def test_freeze_test_stops_learning(self):
        rng = np.random.default_rng(3)
        series = SeriesFrame(rng.uniform(0, 1, 200))
        cfg = RunConfig(n_nodes=1, h=3, train_len=150, test_len=50,
                        learner="kwh", freeze_test=True)
        report = run_experiment(series, cfg)
        # with learning frozen, kwh cannot zero the a-posteriori error: the
        # one-step errors on random test data stay macroscopic
        test_errs = [abs(s.error) for s in report.steps[150:]]
        assert np.mean(test_errs) > 0.01

    def test_wang_mendel_pipeline(self):
        series = SeriesFrame(np.sin(np.arange(300) / 5.0) * 2.0 + 10.0)
        cfg = RunConfig(n_nodes=2, h=5, train_len=220, test_len=80,
                        node_kind="wang_mendel", learner="rls", alpha=1.0)
        report = run_experiment(series, cfg)
        assert report.rmse_test < 0.05
        assert report.parameter_count == 5 * 2

    def test_wang_mendel_weighted_pipeline(self):
        rng = np.random.default_rng(6)
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 2.0 + 10.0
                             + rng.normal(0, 0.05, 400))
        cfg = RunConfig(n_nodes=2, h=5, train_len=300, test_len=100,
                        node_kind="wang_mendel", learner="adaptive", alpha=0.9,
                        weighted=True)
        report = run_experiment(series, cfg)
        assert report.parameter_count == 5 * 2 + 2
        assert report.rmse_test < 0.2
        assert report.steps[-1].c is not None

    def test_evolution_adds_nodes_on_high_error(self):
        rng = np.random.default_rng(4)
        series = SeriesFrame(rng.uniform(0, 1, 400))
        policy = EvolutionPolicy(window=50, add_threshold=0.05, remove_threshold=0.01, n_max=4)
        cfg = RunConfig(n_nodes=1, h=3, train_len=300, test_len=100,
                        learner="adaptive", alpha=0.9, evolution=policy)
        report = run_experiment(series, cfg)
        assert report.extras["final_n"] > 1
        assert report.extras["structure_events"]
        assert report.steps[-1].n_active == report.extras["final_n"]

    def test_module_errors_carry_step_index(self):
        from anarx.errors import DegenerateActivation

        values = np.concatenate([np.sin(np.arange(200) / 4.0) * 0.4 + 0.5, [1e9, 0.5]])
        cfg = RunConfig(n_nodes=1, h=4, train_len=150, test_len=52,
                        node_kind="wang_mendel", learner="kwh", normalization="none")
        with pytest.raises(DegenerateActivation) as err:
            run_experiment(SeriesFrame(values), cfg)
        assert "step 201" in str(err.value)

    def test_rls_windup_fails_loudly(self):
        # forgetting-factor RLS on locally excited spline regressors blows
        # its covariance up; the run must fail with a typed error instead
        # of reporting nan
        from anarx.errors import NumericalDivergence

        from anarx.datasets import synthetic_load_series

        series = synthetic_load_series(n=3000, seed=3)
        cfg = RunConfig(n_nodes=2, h=9, train_len=2500, test_len=500,
                        learner="rls", alpha=0.62)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalDivergence) as err:
                run_experiment(series, cfg)
        assert "step" in str(err.value)

    def test_auto_evolution_grows_after_regime_switch(self):
        rng = np.random.default_rng(8)
        calm = np.sin(np.arange(1000) / 5.0) * 0.3 + 0.5 + rng.normal(0, 0.01, 1000)
        rough = rng.uniform(0, 1, 600)
        cfg = RunConfig(n_nodes=1, h=4, train_len=1400, test_len=200,
                        learner="adaptive", alpha=0.9, evolution="auto")
        report = run_experiment(SeriesFrame(np.concatenate([calm, rough])), cfg)
        events = report.extras["structure_events"]
        assert events and events[0][1] == "added"
        assert events[0][0] >= 1000  # growth triggered by the hard regime

    def test_step_csv_layout(self):
        series = SeriesFrame(np.sin(np.arange(60) / 3.0) + 2.0)
        cfg = RunConfig(n_nodes=2, h=3, train_len=40, test_len=20, weighted=True,
                        learner="adaptive", alpha=0.9)
        report = run_experiment(series, cfg)
        lines = report.steps_csv().splitlines()
        assert lines[0] == "k,y,y_hat,error,n_active,c_1,c_2"
        assert len(lines) == 61


class TestOnlineForecasterStep:
    @staticmethod
    def weighted_forecaster():
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 2.0 + 6.0)
        cfg = RunConfig(n_nodes=2, h=4, train_len=300, test_len=100, weighted=True,
                        learner="adaptive", alpha=0.9)
        _, fc = build_forecaster(series, cfg)
        return series.values, fc

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_rejected_and_state_kept(self, bad):
        values, fc = self.weighted_forecaster()
        _, twin = self.weighted_forecaster()
        for v in values[:200]:
            fc.step(float(v))
            twin.step(float(v))
        with pytest.raises(ParseError):
            fc.step(bad)
        with pytest.raises(ParseError):
            fc.step(bad, learn=False)
        out = [fc.step(float(v)) for v in values[200:260]]
        assert out == [twin.step(float(v)) for v in values[200:260]]
        assert all(np.isfinite(out))

    def test_value_overflowing_model_units_rejected_and_state_kept(self):
        # finite in raw units, infinite once divided by hi - lo = 0.4
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 0.2 + 6.0)
        cfg = RunConfig(n_nodes=2, h=4, train_len=300, test_len=100, weighted=True,
                        learner="adaptive", alpha=0.9)
        values = series.values
        _, fc = build_forecaster(series, cfg)
        _, twin = build_forecaster(series, cfg)
        for v in values[:50]:
            fc.step(float(v))
            twin.step(float(v))
        with pytest.raises(ParseError):
            fc.step(1.7e308)
        out = [fc.step(float(v)) for v in values[50:80]]
        assert out == [twin.step(float(v)) for v in values[50:80]]

    def test_non_finite_prediction_raises(self):
        # the wind-up case of test_rls_windup_fails_loudly, on the step path
        from anarx.datasets import synthetic_load_series

        series = synthetic_load_series(n=3000, seed=3)
        cfg = RunConfig(n_nodes=2, h=9, train_len=2500, test_len=500,
                        learner="rls", alpha=0.62)
        _, fc = build_forecaster(series, cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalDivergence):
                for v in series.values:
                    fc.step(float(v))

    def test_indefinite_covariance_raises_before_state_moves(self):
        # a covariance that is no longer positive definite ends the step
        # path in NumericalDivergence and leaves no nan behind
        from anarx.datasets import synthetic_load_series

        series = synthetic_load_series(n=400, seed=3)
        cfg = RunConfig(n_nodes=2, h=9, train_len=300, test_len=100,
                        learner="rls", alpha=0.99)
        _, fc = build_forecaster(series, cfg)
        for v in series.values[:50]:
            fc.step(float(v))
        learner = fc.model.learner
        learner.P *= -1e6  # negative definite: alpha + phi'P phi < 0
        w, P = learner.w.copy(), learner.P.copy()
        with pytest.raises(NumericalDivergence, match="RLS row 0"):
            fc.step(float(series.values[50]))
        assert np.array_equal(learner.w, w)
        assert np.array_equal(learner.P, P)
        assert np.isfinite(learner.P).all()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_learned_step_adds_the_forecasts_once(self, weighted, monkeypatch):
        # a plain step hands its prediction, the fsum of the node
        # forecasts, to the stacked row; a weighted step's prediction is
        # the combiner's (which sums through its own fsum), so the row
        # adds the forecasts itself
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 2.0 + 6.0)
        cfg = RunConfig(n_nodes=3, h=4, train_len=300, test_len=100, weighted=weighted,
                        training="stacked", learner="rls")
        _, fc = build_forecaster(series, cfg)
        for v in series.values[:20]:
            fc.step(float(v))
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(terms) or fsum(terms))
        fc.step(float(series.values[20]))
        assert len(calls) == 1


class TestSkippedNodeUpdates:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_warmup_skips_n_times_n_plus_1_over_2(self, n, weighted):
        # step k (k < n) learns before lags k+1..n are observed
        series = SeriesFrame(np.sin(np.arange(80) / 4.0) + 2.0)
        cfg = RunConfig(n_nodes=n, h=3, train_len=60, test_len=20,
                        learner="adaptive", alpha=0.9, weighted=weighted)
        report = run_experiment(series, cfg)
        expected = {"lag not observed yet": n * (n + 1) // 2}
        assert report.extras["skipped_node_updates"] == expected
        assert report.forecaster.skipped_updates == expected
        assert json.loads(report.to_json())["extras"]["skipped_node_updates"] == expected

    def test_frozen_steps_skip_nothing(self):
        series = SeriesFrame(np.sin(np.arange(80) / 4.0) + 2.0)
        cfg = RunConfig(n_nodes=3, h=3, train_len=2, test_len=78, freeze_test=True,
                        learner="adaptive", alpha=0.9)
        report = run_experiment(series, cfg)
        # only the two learned steps skip: 3 + 2 node updates
        assert report.extras["skipped_node_updates"] == {"lag not observed yet": 5}

    def test_learner_errors_count_by_class_name(self, monkeypatch):
        from anarx import learning

        series = SeriesFrame(np.sin(np.arange(80) / 4.0) + 2.0)
        cfg = RunConfig(n_nodes=2, h=3, train_len=80, test_len=0, learner="kwh")
        _, fc = build_forecaster(series, cfg)
        for v in series.values[:10]:
            fc.step(float(v))

        # every squared regressor norm is now below the threshold
        monkeypatch.setattr(learning, "EPS_REG", 10.0)
        fc.step(float(series.values[10]))
        fc.step(float(series.values[11]), learn=False)
        assert fc.skipped_updates == {"lag not observed yet": 3, "ZeroRegressor": 2}

    def test_info_line_carries_the_total(self, caplog):
        series = SeriesFrame(np.sin(np.arange(80) / 4.0) + 2.0)
        cfg = RunConfig(n_nodes=3, h=3, train_len=60, test_len=20,
                        learner="adaptive", alpha=0.9)
        with caplog.at_level(logging.INFO, logger="anarx"):
            run_experiment(series, cfg)
        assert "skipped_node_updates=6" in caplog.text


class TestReportForecaster:
    def test_report_carries_the_streamed_forecaster(self):
        series = SeriesFrame(np.sin(np.arange(120) / 4.0) + 2.0)
        cfg = RunConfig(n_nodes=2, h=3, train_len=100, test_len=20, weighted=True,
                        learner="adaptive", alpha=0.9)
        report = run_experiment(series, cfg)
        fc = report.forecaster
        assert fc.model.n == report.extras["final_n"]
        assert tuple(fc.combiner.c.tolist()) == report.steps[-1].c
        assert "forecaster" not in report.summary_dict()
        assert "forecaster" not in json.loads(report.to_json())

    def test_structure_events_follow_the_pool_size(self):
        rng = np.random.default_rng(4)
        series = SeriesFrame(rng.uniform(0, 1, 400))
        policy = EvolutionPolicy(window=50, add_threshold=0.05, remove_threshold=0.01, n_max=4)
        cfg = RunConfig(n_nodes=1, h=3, train_len=300, test_len=100,
                        learner="adaptive", alpha=0.9, evolution=policy)
        report = run_experiment(series, cfg)
        n_after = {k: n for k, _, n in report.extras["structure_events"]}
        for prev, s in zip(report.steps, report.steps[1:]):
            # n_active is the pool that made the prediction
            assert s.n_active == n_after.get(prev.k, prev.n_active)

    def test_rejects_unknown_evolution_setting(self):
        from anarx import OnlineForecaster, build_anarx

        with pytest.raises(ValueError):
            OnlineForecaster(build_anarx(1, 3, 0.0, 1.0), evolution=True)
