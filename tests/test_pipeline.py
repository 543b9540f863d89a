import copy
import csv
import json
import logging
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anarx import RunConfig, SeriesFrame, load_csv, membership, normalize_minmax, run_experiment
from anarx.combiner import CombinerState
from anarx.errors import ConfigError, DegenerateRange, EmptySeries, NumericalDivergence, ParseError
from anarx.learning import AdaptiveLearner, RlsLearner
from anarx.model import AnarxModel, EvolutionPolicy, build_anarx
from anarx.pipeline import (OnlineForecaster, StepRecord, build_forecaster, denormalize,
                            load_config, parse_config_text)
from conftest import reference_load_csv


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

    @pytest.mark.parametrize("column", [1.7, True, False, 1.0, [0]])
    def test_column_that_is_not_a_name_or_an_integer(self, tmp_path, column):
        p = tmp_path / "v.csv"
        p.write_text("1,10\n2,20\n3,30\n")
        with pytest.raises(ParseError, match=re.escape(repr(column))):
            load_csv(p, column)

    def test_integral_numpy_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1,10\n2,20\n3,30\n")
        assert np.array_equal(load_csv(p, np.int64(1)).values, [10.0, 20.0, 30.0])

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

    # a UTF-8 byte-order mark glued to the first cell made it no number,
    # so the first value was taken for a header, or no name matched
    def test_byte_order_mark_before_a_headerless_file_is_ignored(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_bytes(b"\xef\xbb\xbf1.0\n2.0\n3.0\n")
        assert np.array_equal(load_csv(p).values, [1.0, 2.0, 3.0])

    def test_byte_order_mark_before_a_header_is_ignored(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_bytes(b"\xef\xbb\xbfload\n10\n20\n")
        assert load_csv(p).name == "load"
        frame = load_csv(p, column="load")
        assert np.array_equal(frame.values, [10.0, 20.0])
        assert frame.name == "load"

    # each raised a bare UnicodeDecodeError or csv.Error, an untyped exit
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, end):
        p = tmp_path / "v.csv"
        p.write_bytes(f"load{end}1.0{end}".encode() + b"\xff\xfe2.0" + f"{end}3.0{end}".encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line 3: byte 0xff is not "
                                             f"utf-8 text$"):
            load_csv(p)

    def test_cell_longer_than_the_csv_field_limit_names_its_row(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("load\n1.0\n" + "1" * (csv.field_size_limit() + 1) + "\n3.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: row 3: field larger than "
                                             f"field limit"):
            load_csv(p)

    @pytest.mark.parametrize("text, column, message", [
        # blank lines count, in every line ending
        ("load\n1.0\n\n2.0\nabc\n", None, "non-numeric cell 'abc' at row 5"),
        ("load\r\n1.0\r\n\r\n2.0\r\nabc\r\n", None, "non-numeric cell 'abc' at row 5"),
        ("load\r1.0\r\r2.0\rabc\r", None, "non-numeric cell 'abc' at row 5"),
        ("1.0\n\n2.0\n\nnan\n", None, "non-finite value at row 5"),
        # as do whitespace-only rows and rows of empty cells
        ("a,b\n1,2\n  ,  \n,,\n3\n", "b", "row 5 has no column 'b'"),
        ("a,b\n1,2\n  ,  \n,,\n3\n", 1, "row 5 has no column 1"),
        ("a,b\n1,2\n\n3\n", -2, "row 4 has no column -2"),
        # and the lines inside a quoted cell; a row spanning lines is cited
        # by its last
        ('a,b\n"x\ny",1\n2,oops\n', "b", "non-numeric cell 'oops' at row 4"),
        ('a,b\n1,2\n"x\ny",inf\n', "b", "non-finite value at row 4"),
    ])
    def test_error_rows_are_file_lines(self, tmp_path, text, column, message):
        p = tmp_path / "v.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: {re.escape(message)}$"):
            load_csv(p, column)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.data())
    def test_matches_the_cell_by_cell_reference_property(self, tmp_path, case):
        text, column = case.draw(csv_files())
        p = tmp_path / "v.csv"
        p.write_bytes(text.encode())
        assert _outcome(load_csv, p, column) == _outcome(reference_load_csv, p, column)


# padding that str.strip removes; float alone would take the first four
# and reject the last two
PADS = st.sampled_from(["", " ", "\t", "\u00a0", "\x1c", "\x1f"])
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**6, 10**6).map(str),
                    st.sampled_from(["1e3", ".5", "-0", "+2.", "1_000", "0.1E-2"]))
BAD_CELLS = st.sampled_from(["abc", "", "nan", "-inf", "Infinity", "1e999", "1,5", "0x10", "--1",
                             "2\n3", '"4"'])
BLANK_LINES = st.sampled_from(["", "  ", ",,", " , ", "\t", '""'])


@st.composite
def csv_files(draw):
    """CSV text with a byte-order mark or none, a header or none, data
    rows of one to three cells (some short, some bad), blank lines and
    mixed line ends, and a column to read by index, negative index or
    name."""
    ncols = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["load", "t", "Sunspots", "a b", "nan", "7"]),
                          min_size=ncols, max_size=ncols, unique=True))

    def cell(value):
        text = draw(PADS) + value + draw(PADS)
        if draw(st.booleans()) or any(c in text for c in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(map(cell, names))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(BLANK_LINES))
            continue
        width = ncols if kind > 1 else draw(st.integers(1, ncols))
        lines.append(",".join(cell(draw(BAD_CELLS if draw(st.integers(0, 19)) == 0 else NUMBERS))
                              for _ in range(width)))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    # a UTF-8 byte-order mark may lead the file
    text = draw(st.sampled_from(["", "\ufeff"])) + text
    column = draw(st.one_of(st.none(), st.integers(-ncols - 1, ncols),
                            st.sampled_from(names + ["missing"])))
    return text, column


def _outcome(load, path, column):
    """The values' bits and the frame's name, or the error's type and
    message."""
    try:
        frame = load(path, column)
    except Exception as exc:
        return type(exc), str(exc)
    return frame.values.dtype, frame.values.tobytes(), frame.name


class TestSeriesFrame:
    def test_one_value_is_too_few(self):
        with pytest.raises(EmptySeries, match="needs at least 2 values, got 1"):
            SeriesFrame([1.0])

    def test_value_that_is_not_finite_is_named_by_index(self):
        with pytest.raises(ParseError, match="non-finite value at index 1$"):
            SeriesFrame([1.0, math.nan, 2.0])


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
        # kwh reads no alpha, but the report writes it: any finite value
        RunConfig(n_nodes=1, h=3, train_len=5, test_len=1, learner="kwh", alpha=-7.0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="config key 'alpha': must be a finite number"):
                RunConfig(n_nodes=1, h=3, train_len=5, test_len=1, learner="kwh", alpha=alpha)

    @pytest.mark.parametrize("key,value,message", [
        ("weighted", "false", "must be a bool"),
        ("weighted", 1, "must be a bool"),
        ("freeze_test", "true", "must be a bool"),
        ("freeze_test", np.bool_(True), "must be a bool"),
        ("evolution", True, "expected off, 'auto' or a policy"),
        ("evolution", {"window": 50}, "expected off, 'auto' or a policy"),
        ("alpha", "0.5", "must be a finite number"),
        ("alpha", True, "must be a finite number"),
        ("eta_lambda", "0.1", "must be a finite number"),
        ("eta_lambda", False, "must be a finite number"),
        ("eta_lambda", math.inf, "must be a finite number"),
        # ints no float can hold
        pytest.param("alpha", 10**400, "must be a finite number", id="alpha-400-digits"),
        pytest.param("eta_lambda", -10**400, "must be a finite number",
                     id="eta_lambda-minus-400-digits"),
        # and a count of the right kind out of its range
        ("test_len", -1, "must be nonnegative, got -1"),
    ])
    def test_settings_of_the_wrong_kind_are_rejected(self, key, value, message):
        settings = dict(n_nodes=2, h=4, train_len=10, test_len=5, learner="adaptive", alpha=0.5)
        settings[key] = value
        with pytest.raises(ConfigError, match=f"config key '{key}': {message}"):
            RunConfig(**settings)

    def test_real_numbers_are_stored_as_floats(self):
        cfg = RunConfig(n_nodes=2, h=4, train_len=10, test_len=5, learner="adaptive",
                        alpha=np.float32(0.5), eta_lambda=1)
        assert type(cfg.alpha) is float and type(cfg.eta_lambda) is float
        json.dumps(cfg.to_dict())

    @pytest.mark.parametrize("key,value", [
        ("n_nodes", 2.5), ("n_nodes", True), ("h", 4.0), ("q", 2.0),
        ("train_len", 100.0), ("test_len", True), ("test_len", np.float64(5.0)),
        ("seed", 0.5), ("seed", math.nan),
        # ints no index can hold
        pytest.param("n_nodes", 10**400, id="n_nodes-400-digits"),
        pytest.param("seed", -10**400, id="seed-minus-400-digits"),
    ])
    def test_counts_are_integers(self, key, value):
        settings = dict(n_nodes=2, h=4, q=2, train_len=10, test_len=5)
        settings[key] = value
        with pytest.raises(ConfigError, match=f"config key '{key}': must be an integer"):
            RunConfig(**settings)

    def test_integral_numpy_counts_are_stored_as_ints(self):
        cfg = RunConfig(n_nodes=np.int64(2), h=np.int32(4), q=np.int8(2),
                        train_len=np.int64(10), test_len=np.uint16(5),
                        evolution=EvolutionPolicy(window=np.int64(20), n_max=np.int64(3)))
        d = cfg.to_dict()
        for key in ("n_nodes", "h", "q", "train_len", "test_len"):
            assert type(d[key]) is int
        assert all(type(d["evolution"][key]) is int for key in ("window", "n_min", "n_max"))
        json.dumps(d)

    @pytest.mark.parametrize("key,value", [("window", 2.5), ("window", True), ("n_max", 3.5),
                                           ("n_min", 1.0)])
    def test_policy_counts_are_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            EvolutionPolicy(**{key: value})

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

    def test_evolution_true_without_policy_fields_is_auto(self):
        cfg = parse_config_text("n_nodes = 1\nh = 3\ntrain_len = 50\ntest_len = 10\n"
                                "evolution = true\n")
        assert cfg.evolution == "auto"

    @pytest.mark.parametrize("text, message", [
        ("foo = 1", "unknown config key 'foo'"),
        ("evolution = true\nevolution_bogus = 1", "unknown evolution key 'evolution_bogus'"),
    ])
    def test_unknown_key(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text("n_nodes = 1\nh = 3\ntrain_len = 5\ntest_len = 1\n" + text)

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_config_text("n_nodes 2\n")

    def test_missing_required_key_is_incomplete(self):
        with pytest.raises(ConfigError, match="^incomplete config: .*'h'"):
            parse_config_text("n_nodes = 1\ntrain_len = 5\ntest_len = 1\n")

    def test_bytes_that_are_not_utf8_in_a_config_file_name_their_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"n_nodes = 2\nh = 4\xff\ntrain_len = 50\ntest_len = 10\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line 2: byte 0xff is not "
                                             f"utf-8 text$"):
            load_config(p)

    def test_byte_order_mark_before_a_config_file_is_ignored(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"\xef\xbb\xbfn_nodes = 3\nh = 4\ntrain_len = 50\ntest_len = 10\n")
        cfg = load_config(p)
        assert (cfg.n_nodes, cfg.h, cfg.train_len) == (3, 4, 50)

    # the numbers a config file may give, the ones that are not finite included
    NUMBERS = ["0", "0.05", "0.5", "1", "2", "-1", "nan", "inf", "-inf"]
    SERIES = SeriesFrame(np.sin(np.arange(80) / 5.0) + np.random.default_rng(5).normal(0, 0.1, 80))

    @settings(max_examples=150, deadline=None)
    @given(learner=st.sampled_from(["rls", "kwh", "adaptive"]), alpha=st.sampled_from(NUMBERS),
           weighted=st.sampled_from(["true", "false"]),
           freeze_test=st.sampled_from(["true", "false"]),
           evolution=st.sampled_from([None, "false", "true", "auto"]),
           policy=st.dictionaries(
               st.sampled_from(["window", "add_threshold", "remove_threshold", "n_max"]),
               st.sampled_from(["3", *NUMBERS]), max_size=3))
    # kwh reads no alpha, and the report wrote a NaN one; an infinite
    # threshold passed the policy's ordering check
    @example(learner="kwh", alpha="nan", weighted="false", freeze_test="false", evolution=None,
             policy={})
    @example(learner="adaptive", alpha="0.5", weighted="true", freeze_test="false",
             evolution="true", policy={"add_threshold": "inf"})
    def test_every_accepted_config_gives_a_strict_json_report_property(
            self, learner, alpha, weighted, freeze_test, evolution, policy):
        lines = ["n_nodes = 2", "h = 4", "train_len = 60", "test_len = 20",
                 f"learner = {learner}", f"alpha = {alpha}",
                 f"weighted = {weighted}", f"freeze_test = {freeze_test}"]
        if evolution is not None:
            lines.append(f"evolution = {evolution}")
        lines += [f"evolution_{key} = {value}" for key, value in policy.items()]
        try:
            config = parse_config_text("\n".join(lines))
        except ConfigError:
            return

        def not_json(name):
            raise AssertionError(f"the report holds {name}, which is not JSON")

        try:
            report = run_experiment(self.SERIES, config)
        except NumericalDivergence:
            # RLS with a small forgetting factor can wind up; the run ends
            # in its typed error and writes no report
            return
        json.loads(report.to_json(), parse_constant=not_json)


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

    def test_wang_mendel_config_is_rejected_naming_the_key(self, tmp_path, capsys):
        # a pool is neo-fuzzy nodes only: a config that names another kind
        # fails where it enters, exit 4, naming the key and the kind
        from anarx.cli import main

        with pytest.raises(ConfigError, match="config key 'node_kind'.*'wang_mendel'"):
            RunConfig(n_nodes=2, h=5, train_len=220, test_len=80, node_kind="wang_mendel")
        cfg = tmp_path / "wm.cfg"
        cfg.write_text("n_nodes = 2\nh = 5\ntrain_len = 100\ntest_len = 20\n"
                       "node_kind = wang_mendel\n")
        data = tmp_path / "series.csv"
        data.write_text("\n".join(str(v) for v in np.sin(np.arange(120) / 5.0)) + "\n")
        assert main(["bench", "--config", str(cfg), "--data", str(data)]) == 4
        assert "config key 'node_kind'" in capsys.readouterr().err

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
        # the step whose squared error leaves the float range raises, under
        # its own index, with the forecaster's message
        values = np.concatenate([np.sin(np.arange(200) / 4.0) * 0.4 + 0.5, [1e200, 0.5]])
        cfg = RunConfig(n_nodes=1, h=4, train_len=150, test_len=52, learner="kwh",
                        normalization="none", evolution="auto")
        with pytest.raises(NumericalDivergence) as err:
            run_experiment(SeriesFrame(values), cfg)
        assert str(err.value) == "step 200: squared error inf leaves the float range"
        assert type(err.value.__cause__) is NumericalDivergence

    @pytest.mark.parametrize("segment,scale", [("training", [1e300, 1e300]), ("test", [1.0, 1e300])])
    def test_rmse_past_the_float_range_raises_naming_the_segment(self, segment, scale):
        # the errors are finite, their squares are not: no report holds Infinity
        from anarx.datasets import synthetic_load_series

        values = synthetic_load_series(n=400, seed=1).values * np.repeat(scale, 200)
        cfg = RunConfig(n_nodes=2, h=4, train_len=200, test_len=200, learner="adaptive",
                        alpha=0.9, normalization="none", freeze_test=True)
        with pytest.raises(NumericalDivergence, match=f"the {segment} segment's RMSE"):
            run_experiment(SeriesFrame(values), cfg)

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


# The layer boundaries a step crosses, with the membership function. A
# tracer that times the layers from outside the library wraps each in its
# class's own namespace and counts steps by node_forecasts, so a step must
# call every one of its kind once, node_forecasts first.
STEP_BOUNDARIES = [
    (AnarxModel, "node_forecasts"), (AnarxModel, "train_step"), (AnarxModel, "observe"),
    (AdaptiveLearner, "step"), (RlsLearner, "step"),
    (CombinerState, "combine"), (CombinerState, "optimal_step"),
]


class TestOnlineForecasterStep:
    @staticmethod
    def weighted_forecaster():
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 2.0 + 6.0)
        cfg = RunConfig(n_nodes=2, h=4, train_len=300, test_len=100, weighted=True,
                        learner="adaptive", alpha=0.9)
        _, fc = build_forecaster(series, cfg)
        return series.values, fc

    def test_combiner_sized_for_another_pool_is_rejected_at_construction(self):
        # it was taken, and the first step raised NumericalDivergence
        model = build_anarx(3, 4, 0.0, 1.0, learner="adaptive", training="independent")
        with pytest.raises(ValueError, match="^combiner has 2 weights, the pool has 3 nodes$"):
            OnlineForecaster(model, CombinerState(2))

    def test_sum_past_the_float_range_raises_numerical_divergence(self):
        # math.fsum raises OverflowError where + would give inf; the step
        # turns it into the typed error
        model = build_anarx(2, 4, 0.0, 1.0, learner="adaptive", alpha=0.9,
                            training="independent")
        fc = OnlineForecaster(model, CombinerState(2))
        for v in (0.2, 0.5, 0.7):
            fc.step(v)
        model.learner.w[:] = 1e308
        fc.combiner.c = [1.0, 1.0]
        with pytest.raises(NumericalDivergence, match=re.escape(
                "a sum is no longer finite (intermediate overflow in fsum)")):
            fc.step(0.4)

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

    @pytest.mark.parametrize("long_run_sq,value", [(None, 1e160), (sys.float_info.max, 1e150)])
    def test_evolving_step_past_the_float_range_raises_before_state_moves(
            self, tmp_path, long_run_sq, value):
        # a squared error, or a long-run sum, that is not finite would be
        # saved as a file no load reads
        from anarx.datasets import synthetic_load_series
        from anarx.snapshot import snapshot_load, snapshot_save

        series = synthetic_load_series(n=400, seed=1)
        cfg = RunConfig(n_nodes=2, h=4, train_len=300, test_len=100, learner="adaptive",
                        alpha=0.9, evolution="auto")
        _, fc = build_forecaster(series, cfg)
        for v in series.values[:150]:
            fc.step(float(v))
        if long_run_sq is not None:
            fc.long_run_sq = long_run_sq
        before = fc.state_dict()
        with pytest.raises(NumericalDivergence, match="squared error"):
            fc.step(value)
        assert fc.state_dict() == before
        snapshot_save(fc, tmp_path / "model.json")
        assert snapshot_load(tmp_path / "model.json").state_dict() == before

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


    @pytest.mark.parametrize("learner,weighted,learn,crossed", [
        # the model walks every learner's rows itself (a learner's public
        # step is not crossed)
        ("adaptive", True, True, ["AnarxModel.node_forecasts", "CombinerState.combine",
                                  "AnarxModel.train_step", "AnarxModel.observe",
                                  "eval_bspline", "CombinerState.optimal_step"]),
        ("adaptive", True, False, ["AnarxModel.node_forecasts", "CombinerState.combine",
                                   "AnarxModel.observe", "eval_bspline"]),
        ("rls", False, True, ["AnarxModel.node_forecasts", "AnarxModel.train_step",
                              "AnarxModel.observe", "eval_bspline"]),
        ("adaptive", False, True, ["AnarxModel.node_forecasts", "AnarxModel.train_step",
                                   "AnarxModel.observe", "eval_bspline"]),
    ], ids=["learned_weighted", "frozen_weighted", "learned_stacked_rls",
            "learned_stacked_adaptive"])
    def test_step_crosses_every_layer_boundary_once(self, learner, weighted, learn, crossed,
                                                     monkeypatch):
        series = SeriesFrame(np.sin(np.arange(400) / 5.0) * 2.0 + 6.0)
        cfg = RunConfig(n_nodes=2, h=8, train_len=300, test_len=100, weighted=weighted,
                        training="independent" if weighted else "stacked", learner=learner)
        work, fc = build_forecaster(series, cfg)
        values = work.values.tolist()
        for v in values[:20]:
            fc.advance(v)
        calls = []

        def counted(name, original):
            def boundary(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return boundary

        for cls, attr in STEP_BOUNDARIES:
            # a boundary is the class's own, not inherited
            assert attr in vars(cls), (cls, attr)
            monkeypatch.setattr(cls, attr, counted(f"{cls.__name__}.{attr}", vars(cls)[attr]))
        fuzzify = membership.eval_bspline
        for module in [m for n, m in sys.modules.items() if n.startswith("anarx.")]:
            for attr, value in list(vars(module).items()):
                if value is fuzzify:
                    monkeypatch.setattr(module, attr, counted("eval_bspline", fuzzify))
        fc.advance(values[20], learn)
        assert calls[0] == "AnarxModel.node_forecasts"
        assert sorted(calls) == sorted(crossed)


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


class TestStepRecords:
    """``report.steps`` is a read-only view over the run's columns: each
    record equals the one the run would make at its step."""

    CONFIG = RunConfig(n_nodes=1, h=3, train_len=300, test_len=100, learner="adaptive",
                       alpha=0.9, weighted=True, evolution=EvolutionPolicy(
                           window=50, add_threshold=0.05, remove_threshold=0.01, n_max=4))

    @pytest.fixture(scope="class")
    def run(self):
        series = SeriesFrame(np.random.default_rng(4).uniform(0, 1, 400))
        report = run_experiment(series, self.CONFIG)
        # the records as the step path makes them, with copies of c
        work, fc = build_forecaster(series, self.CONFIG)
        records = []
        for k, y in enumerate(work.values.tolist()):
            n_active = fc.model.n
            pred = fc.advance(y)
            records.append(StepRecord(k, y, pred, y - pred, n_active, tuple(fc.combiner.c.tolist())))
        return series, report, records

    def test_view_reads_as_the_records(self, run):
        _, report, records = run
        steps = report.steps
        assert len({len(r.c) for r in records}) > 1  # the pool grew or shrank
        assert len(steps) == len(records)
        assert list(steps) == records
        assert steps[-1] == records[-1] and steps[-len(records)] == records[0]
        for index in (slice(None), slice(5, 50, 7), slice(-30, None), slice(None, None, -3),
                      slice(500, 600)):
            assert steps[index] == records[index], index
        for k in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                steps[k]
        assert list(copy.deepcopy(steps)) == records
        assert list(copy.deepcopy(report).steps) == records

    def test_view_is_read_only(self, run):
        _, report, _ = run
        with pytest.raises(TypeError):
            report.steps[0] = report.steps[1]

    def test_record_c_keeps_its_step(self, run):
        series, report, records = run
        last = report.steps[-1]
        fc = report.forecaster
        for v in series.values[:50].tolist():
            fc.step(v)
        assert tuple(fc.combiner.c.tolist()) != last.c
        assert report.steps[-1] == last == records[-1]
