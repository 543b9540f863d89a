import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anarx
from anarx import errors
from anarx.cli import EXIT_CODES, _exit_code, main
from anarx.datasets import synthetic_load_series
from anarx.pipeline import load_config, load_csv, run_experiment
from anarx.snapshot import snapshot_load, snapshot_save


CONFIG = """
n_nodes = 2
h = 4
q = 2
learner = adaptive
alpha = 0.9
train_len = 300
test_len = 100
normalization = minmax
"""


def config_with(lines: str) -> str:
    """CONFIG with ``lines`` in place of its lines for the same keys: a
    config file gives each key once."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in CONFIG.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + lines


@pytest.fixture
def data_csv(tmp_path):
    series = synthetic_load_series(n=450, seed=1)
    p = tmp_path / "load.csv"
    p.write_text("\n".join(repr(float(v)) for v in series.values) + "\n")
    return p


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text(CONFIG)
    return p


def test_exit_code_mapping_is_pinned():
    # codes are stable per category; 11 (SingularCorrelation), 13 and 14
    # (ZeroRegressor, ZeroGain) are retired and stay unused
    assert [(etype.__name__, code) for etype, code in EXIT_CODES] == [
        ("BrokenPipeError", 18),
        ("OSError", 3),
        ("ParseError", 4),
        ("EmptySeries", 5),
        ("DegenerateRange", 6),
        ("InvalidRange", 7),
        ("InvalidOrder", 8),
        ("VersionMismatch", 9),
        ("CorruptSnapshot", 10),
        ("DimensionMismatch", 12),
        ("DegenerateActivation", 15),
        ("DegenerateStep", 16),
        ("NumericalDivergence", 17),
        ("AnarxError", 20),
        ("ValueError", 21),
    ]
    assert _exit_code(FileNotFoundError("x")) == 3
    assert _exit_code(IsADirectoryError("x")) == 3
    assert _exit_code(BrokenPipeError("x")) == 18
    assert _exit_code(errors.ConfigError("x")) == 4
    assert _exit_code(errors.AnarxError("x")) == 20
    assert _exit_code(RuntimeError("x")) == 70


def _raised_names() -> set:
    """The name of every class a ``raise`` statement in the package
    raises by name: ``raise X(...)``, ``raise X`` or ``raise mod.X(...)``."""
    names = set()
    for path in Path(anarx.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_and_every_code_maps_one():
    # an error class that nothing raises is only a label, and its exit
    # code could never be seen; a class stays while it, or a class
    # derived from it, is raised somewhere in the package
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.AnarxError)]
    names = _raised_names()
    raised = [cls for cls in classes if cls.__name__ in names]
    live = {cls for cls in classes if any(issubclass(r, cls) for r in raised)}
    assert sorted(cls.__name__ for cls in classes if cls not in live) == []
    for etype, code in EXIT_CODES:
        assert etype in live or not issubclass(etype, errors.AnarxError), (etype, code)


class TestBench:
    def test_writes_json_and_csv(self, tmp_path, data_csv, config_file, capsys):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "steps.csv"
        code = main([
            "bench", "--config", str(config_file), "--data", str(data_csv),
            "--out-json", str(out_json), "--out-csv", str(out_csv),
        ])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert set(report) >= {"rmse_train", "rmse_test", "parameter_count", "wall_time_s", "config"}
        assert report["rmse_test"] >= 0.0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("k,y,y_hat,error,n_active")
        assert len(lines) == 401

    def test_stdout_json_by_default(self, data_csv, config_file, capsys):
        assert main(["bench", "--config", str(config_file), "--data", str(data_csv)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["parameter_count"] == 16

    def test_missing_data_file_exit_code(self, config_file, capsys):
        code = main(["bench", "--config", str(config_file), "--data", "/nope.csv"])
        assert code == 3

    def test_bad_config_exit_code(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        code = main(["bench", "--config", str(bad), "--data", str(data_csv)])
        assert code == 4

    @pytest.mark.parametrize("lines,named", [
        ("learner = bogus", "'learner'"),
        ("training = bogus", "'training'"),
        ("normalization = zscore", "'normalization'"),
        ("alpha = 2", "'alpha'"),
        ("n_nodes = 0", "'n_nodes'"),
        ("q = 12", "'q'"),
        ("h = 1", "exceeds h = 1"),
        ("evolution_window = x", "'evolution_window'"),
        ("weighted = maybe", "'weighted': expected boolean, got 'maybe'"),
        ("evolution = true\nevolution_window = 0", "evolution_window"),
        # 400 + 100 values asked of a 450-value series
        ("train_len = 400", "'train_len', 'test_len'"),
        ("eta_lambda = 0", "'eta_lambda'"),
        ("weighted = true\neta_lambda = 0", "'eta_lambda'"),
        # a multiplier rate that is not finite makes lam, and then c, inf or nan
        ("weighted = true\neta_lambda = inf", "'eta_lambda'"),
        ("weighted = true\neta_lambda = nan", "'eta_lambda'"),
        # kwh reads no alpha, but the report writes it, and NaN or Infinity
        # is not JSON
        ("learner = kwh\nalpha = nan", "'alpha'"),
        ("learner = kwh\nalpha = inf", "'alpha'"),
        ("learner = kwh\nalpha = -inf", "'alpha'"),
        ("evolution = true\nevolution_add_threshold = inf", "evolution_add_threshold"),
        # policy fields are taken by evolution = true alone
        ("evolution_window = 50", "'evolution', 'evolution_window'"),
        ("evolution = false\nevolution_window = 50", "'evolution', 'evolution_window'"),
        ("evolution = auto\nevolution_n_max = 4", "'evolution', 'evolution_n_max'"),
        # CONFIG without its n_nodes line is 8 lines long
        ("n_nodes = 3\nn_nodes = 4", "'n_nodes' is given twice, on lines 9 and 10"),
        # counts no index can hold
        pytest.param("n_nodes = " + "9" * 400, "'n_nodes'", id="n_nodes = 400 digits"),
        pytest.param("evolution = true\nevolution_window = " + "9" * 400, "evolution_window",
                     id="evolution_window = 400 digits"),
        # plain independent training sums n nodes that each fit the value alone
        ("weighted = false\ntraining = independent", "'weighted', 'training'"),
    ])
    def test_invalid_setting_exits_4_naming_the_key(self, tmp_path, data_csv, capsys,
                                                     lines, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(lines) + "\n")
        assert main(["bench", "--config", str(bad), "--data", str(data_csv)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: config key") and named in err

    @pytest.mark.parametrize("column", ["1", "5", "-2", "-5"])
    def test_column_outside_the_rows_exits_4_naming_it(self, data_csv, config_file, capsys,
                                                       column):
        # data_csv has one column: 0 and -1 are the only indices in it
        code = main(["bench", "--config", str(config_file), "--data", str(data_csv),
                     f"--column={column}"])
        assert code == 4
        assert f"row 2 has no column {column}" in capsys.readouterr().err

    def test_negative_column_counts_from_the_last(self, data_csv, config_file, capsys):
        reports = []
        for column in ([], ["--column=-1"]):
            assert main(["bench", "--config", str(config_file), "--data", str(data_csv),
                         *column]) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_column_named_in_the_header_reads_the_default_column(self, tmp_path, data_csv,
                                                                config_file, capsys):
        named = tmp_path / "named.csv"
        named.write_text("load_mw\n" + data_csv.read_text())
        reports = []
        for column in ([], ["--column", "load_mw"]):
            assert main(["bench", "--config", str(config_file), "--data", str(named),
                         *column]) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]

    # each exited 70, an untyped internal error
    @pytest.mark.parametrize("flag", ["--config", "--data"])
    def test_directory_path_exits_3_naming_it(self, tmp_path, data_csv, config_file, capsys,
                                              flag):
        paths = {"--config": str(config_file), "--data": str(data_csv), flag: str(tmp_path)}
        assert main(["bench", *(arg for item in paths.items() for arg in item)]) == 3
        assert str(tmp_path) in capsys.readouterr().err

    # each exited 21, the code of a bare ValueError
    @pytest.mark.parametrize("source", ["--config", "--data"])
    def test_bytes_that_are_not_utf8_exit_4_naming_the_line(self, tmp_path, data_csv,
                                                            config_file, capsys, source):
        lines = {"--config": config_file, "--data": data_csv}[source].read_bytes().split(b"\n")
        lines[2] += b"\xff"
        bad = tmp_path / "bad"
        bad.write_bytes(b"\n".join(lines))
        paths = {"--config": str(config_file), "--data": str(data_csv), source: str(bad)}
        assert main(["bench", *(arg for item in paths.items() for arg in item)]) == 4
        assert capsys.readouterr().err == f"error: {bad}: line 3: byte 0xff is not utf-8 text\n"

    def test_unknown_flag_is_usage_error(self, data_csv, config_file):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(config_file), "--data", str(data_csv), "--bogus"])
        assert exc.value.code == 2

    def test_usage_error_without_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestPredictAndSnapshot:
    def test_snapshot_save_show_predict(self, tmp_path, data_csv, config_file, capsys, monkeypatch):
        snap = tmp_path / "model.json"
        assert main([
            "snapshot", "save", "--config", str(config_file),
            "--data", str(data_csv), "--out", str(snap),
        ]) == 0
        assert snap.exists()

        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 2" in out and "integrity: ok" in out
        # the format is named last but one, so an old file shows as such
        assert out.splitlines()[-2:] == ["format: v6", "integrity: ok"]

        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("610.0\n640.0\n655.0\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        preds = [float(v) for v in lines]
        assert all(np.isfinite(p) for p in preds)

    def test_predict_warmup_from_cold_model(self, tmp_path, capsys, monkeypatch):
        # fresh config-trained model on a tiny run still answers from step 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n_nodes = 2\nh = 3\ntrain_len = 40\ntest_len = 10\n"
            "learner = kwh\nnormalization = none\n"
        )
        data = tmp_path / "d.csv"
        data.write_text("\n".join(str(5.0 + (i % 3)) for i in range(60)) + "\n")
        snap = tmp_path / "m.json"
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("5.0\n6.0\n7.0\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_predict_rejects_garbage(self, tmp_path, data_csv, config_file, capsys, monkeypatch):
        snap = tmp_path / "model.json"
        main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
              "--out", str(snap)])
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0\nnot-a-number\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 4

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_rejects_non_finite(self, tmp_path, data_csv, config_file, capsys,
                                        monkeypatch, bad):
        snap = tmp_path / "model.json"
        main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
              "--out", str(snap)])
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(f"100\n{bad}\n100\n100\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 4
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1
        assert "line 2" in err

    def test_mis_shaped_snapshot_fails_on_load(self, tmp_path, data_csv, capsys, monkeypatch):
        # a 3-entry combiner on a 2-node pool, re-checksummed
        from anarx.snapshot import _encode

        cfg = tmp_path / "weighted.cfg"
        cfg.write_text(CONFIG + "weighted = true\n")
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        doc = json.loads(snap.read_text())
        doc["payload"]["combiner"]["c"].append(0.0)
        snap.write_bytes(_encode(doc["payload"]))
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 10
        assert "integrity: ok" not in capsys.readouterr().out
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("610.0\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 10

    def test_predict_on_a_zero_width_scale_exits_10(self, tmp_path, data_csv, config_file,
                                                   capsys, monkeypatch):
        # a checksummed snapshot whose min-max scale has lo == hi fails on
        # load as corrupt, not at its first step as an internal error
        from anarx.snapshot import _encode

        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        doc = json.loads(snap.read_text())
        doc["payload"]["scale"] = [1.0, 1.0]
        snap.write_bytes(_encode(doc["payload"]))
        monkeypatch.setattr("sys.stdin", io.StringIO("610.0\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 10
        assert capsys.readouterr().out == ""

    def test_corrupt_snapshot_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{ truncated")
        assert main(["snapshot", "show", "--snapshot", str(bad)]) == 10

    def test_missing_snapshot_exit_code(self, tmp_path):
        assert main(["predict", "--snapshot", str(tmp_path / "none.json")]) == 3

    def test_directory_as_snapshot_exits_3_naming_it(self, tmp_path, capsys):
        # it exited 70, an untyped internal error
        assert main(["predict", "--snapshot", str(tmp_path)]) == 3
        assert str(tmp_path) in capsys.readouterr().err

    def test_predict_skips_blank_and_whitespace_only_lines(self, tmp_path, data_csv,
                                                          config_file, capsys, monkeypatch):
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        outs = []
        for stdin in ("610.0\n640.0\n", "\n610.0\n  \n\t\n\n640.0\n \n"):
            capsys.readouterr()
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(["predict", "--snapshot", str(snap)]) == 0
            outs.append(capsys.readouterr().out)
        assert len(outs[0].splitlines()) == 2
        assert outs[1] == outs[0]

    def test_stdin_that_is_not_utf8_exits_4_naming_the_line(self, tmp_path, data_csv,
                                                           config_file, capsys, monkeypatch):
        # strictly decoded stdin raised a bare UnicodeDecodeError: exit 21
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"610.0\n640.0\n6\xff0.0\n655.0\n"), encoding="utf-8", errors="strict"))
        assert main(["predict", "--snapshot", str(snap)]) == 4
        out, err = capsys.readouterr()
        assert err == "error: stdin line 3: byte 0xff is not utf-8 text\n"
        # the two lines before the bad byte each print their prediction
        forecaster = snapshot_load(snap)
        assert out.splitlines() == [repr(forecaster.step(610.0)), repr(forecaster.step(640.0))]

    @pytest.mark.parametrize("errors, message", [
        ("replace", "error: stdin line 3: non-numeric value '6\ufffd0.0'\n"),
        ("surrogateescape", "error: stdin line 3: non-numeric value '6\\udcff0.0'\n"),
    ])
    def test_stdin_error_handler_decides_what_a_bad_byte_reads_as(
            self, tmp_path, data_csv, config_file, capsys, monkeypatch, errors, message):
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"610.0\n640.0\n6\xff0.0\n655.0\n"), encoding="utf-8", errors=errors))
        assert main(["predict", "--snapshot", str(snap)]) == 4
        out, err = capsys.readouterr()
        assert err == message
        forecaster = snapshot_load(snap)
        assert out.splitlines() == [repr(forecaster.step(610.0)), repr(forecaster.step(640.0))]

    def test_utf16_stdin_is_read_a_line_at_a_time(self, tmp_path, data_csv, config_file,
                                                   capsys, monkeypatch):
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO("610.0\n640.0\n".encode("utf-16")), encoding="utf-16", newline="\n"))
        assert main(["predict", "--snapshot", str(snap)]) == 0
        forecaster = snapshot_load(snap)
        assert capsys.readouterr().out.splitlines() == [
            repr(forecaster.step(610.0)), repr(forecaster.step(640.0))]

    def test_predict_into_a_closed_pipe_exits_18_quietly(self, tmp_path, data_csv, config_file):
        # `anarx predict < values | head -1`: the reader goes after one line.
        # A broken pipe was an OSError, exit 3 ("missing or unreadable
        # file"), with "[Errno 32] Broken pipe" on stderr
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        # more predictions than a pipe holds, so the writer is still busy
        values = "".join(f"{600.0 + i % 50}\n" for i in range(5000)).encode()
        env = {**os.environ, "PYTHONPATH": str(Path(anarx.__file__).parent.parent)}
        proc = subprocess.Popen([sys.executable, "-m", "anarx.cli", "predict", "--snapshot",
                                 str(snap)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdin.write(values)
        proc.stdin.close()
        assert math.isfinite(float(proc.stdout.readline()))
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 18
        assert err == b""

    def test_freeze_test_in_config_gives_bench_and_snapshot_save_one_model(
            self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "frozen.cfg"
        cfg.write_text(CONFIG + "weighted = true\nfreeze_test = true\n")
        out_csv = tmp_path / "steps.csv"
        snap = tmp_path / "model.json"
        assert main(["bench", "--config", str(cfg), "--data", str(data_csv),
                     "--out-csv", str(out_csv)]) == 0
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        c_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("c: "))
        saved_c = json.loads(c_line[len("c: "):])
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        c_cols = [key for key in rows[0] if key.startswith("c_")]
        last_c = [float(rows[-1][key]) for key in c_cols]
        assert last_c == saved_c
        # frozen test segment: the combiner no longer moves after training
        assert last_c == [float(rows[300][key]) for key in c_cols]
        # the config key is the one way to freeze the test segment
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg), "--data", str(data_csv), "--freeze-test"])
        assert exc.value.code == 2


class TestEvolution:
    def test_snapshot_save_keeps_the_structure_bench_reports(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "evolving.cfg"
        cfg.write_text(CONFIG + "weighted = true\nevolution = auto\n")
        out_json = tmp_path / "report.json"
        snap = tmp_path / "model.json"
        assert main(["bench", "--config", str(cfg), "--data", str(data_csv),
                     "--out-json", str(out_json)]) == 0
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        lines = capsys.readouterr().out.splitlines()
        extras = json.loads(out_json.read_text())["extras"]
        assert extras["structure_events"]
        nodes = next(line for line in lines if line.startswith("nodes: "))
        assert nodes.split()[1] == str(extras["final_n"])
        assert "evolution: auto, learned steps: 400" in lines

    def test_show_prints_evolution_off(self, tmp_path, data_csv, config_file, capsys):
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(config_file),
                     "--data", str(data_csv), "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        assert "evolution: off" in capsys.readouterr().out.splitlines()

    def test_show_prints_explicit_policy(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "policy.cfg"
        cfg.write_text(CONFIG + "evolution = true\nevolution_window = 30\n")
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("evolution: "))
        assert line.startswith("evolution: EvolutionPolicy(window=30,")
        assert line.endswith("learned steps: 400")


class TestLearnerHealth:
    def show(self, tmp_path, data_csv, capsys, extra):
        cfg = tmp_path / "health.cfg"
        cfg.write_text(config_with(extra))
        snap = tmp_path / "model.json"
        assert main(["snapshot", "save", "--config", str(cfg), "--data", str(data_csv),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "show", "--snapshot", str(snap)]) == 0
        lines = capsys.readouterr().out.splitlines()
        health = [line for line in lines if line.startswith("learner health: ")]
        return snapshot_load(snap).model, health

    def test_stacked_rls_prints_trace_and_largest_diagonal(self, tmp_path, data_csv, capsys):
        model, health = self.show(tmp_path, data_csv, capsys, "learner = rls\nalpha = 1.0\n")
        # the loaded covariance, its pending gains included
        (diag,) = model.learner.covariance_diagonal()
        assert model.learner.pending > 0
        assert health == [f"learner health: trace(P) {float(diag.sum())!r}, "
                          f"max diag(P) {float(diag.max())!r}"]

    def test_independent_rls_prints_min_and_max_over_nodes(self, tmp_path, data_csv, capsys):
        model, health = self.show(tmp_path, data_csv, capsys,
                                  "learner = rls\nalpha = 1.0\nweighted = true\n")
        assert model.learner.P.shape[0] == model.n == 2
        traces = [float(diag.sum()) for diag in model.learner.covariance_diagonal()]
        diags = [float(diag.max()) for diag in model.learner.covariance_diagonal()]
        assert traces[0] != traces[1]
        assert health == [f"learner health: trace(P) min {min(traces)!r} max {max(traces)!r}, "
                          f"max diag(P) min {min(diags)!r} max {max(diags)!r}"]

    def test_adaptive_prints_gain(self, tmp_path, data_csv, capsys):
        model, health = self.show(tmp_path, data_csv, capsys, "weighted = true\n")
        r = model.learner.r.tolist()
        assert len(r) == model.n == 2
        assert health == [f"learner health: r min {min(r)!r} max {max(r)!r}"]
        model, health = self.show(tmp_path, data_csv, capsys, "")
        assert model.learner.r.shape == (1,)
        assert health == [f"learner health: r {float(model.learner.r[0])!r}"]

    def test_kwh_prints_no_health_line(self, tmp_path, data_csv, capsys):
        _, health = self.show(tmp_path, data_csv, capsys, "learner = kwh\nalpha = 1.0\n")
        assert health == []


# -- every entry point, one property -----------------------------------------

BIG = "9" * 400  # a count no index can hold; read as a float, it is inf

# config_texts draws a config that runs, and may replace one of its keys
# with one of BAD_LINES, a value no run takes. Every drawn count is small
# or too large for an index, so no draw allocates a large pool.
PROPERTY_SERIES = synthetic_load_series(n=400, seed=1)
ALPHAS = {"rls": ["1.0", "0.99"], "adaptive": ["0.9", "0.0", "1.0"], "kwh": ["1.0"]}
POLICIES = ["auto", "false", "true\nevolution_window = 10\nevolution_n_max = 4\n"
            "evolution_add_threshold = 0.06\nevolution_remove_threshold = 0.03"]
BAD_LINES = [("n_nodes", BIG), ("n_nodes", "0"), ("h", BIG), ("alpha", "nan"),
             ("alpha", "1e400"), ("alpha", BIG), ("train_len", BIG), ("test_len", BIG),
             ("seed", BIG), ("eta_lambda", "inf"), ("training", "independent"),
             ("evolution", "true\nevolution_window = " + BIG),
             ("evolution", "true\nevolution_add_threshold = " + BIG)]
STDIN_VALUES = st.lists(st.one_of(
    st.sampled_from(["nan", "inf", "-inf", BIG, "-" + BIG, "1e308", "x"]),
    st.floats(0.0, 1000.0).map(repr)), max_size=8)


@st.composite
def config_texts(draw):
    learner = draw(st.sampled_from(sorted(ALPHAS)))
    h = draw(st.integers(2, 12))
    length = draw(st.integers(20, len(PROPERTY_SERIES)))
    test_len = draw(st.integers(0, length // 2))
    keys = {
        "n_nodes": str(draw(st.integers(1, 4))), "h": str(h), "q": str(draw(st.integers(1, 2))),
        "learner": learner, "alpha": draw(st.sampled_from(ALPHAS[learner])),
        "train_len": str(draw(st.integers(2, length - test_len))), "test_len": str(test_len),
        "normalization": draw(st.sampled_from(["minmax", "none"])),
        "freeze_test": draw(st.sampled_from(["true", "false"])),
        "evolution": draw(st.sampled_from(POLICIES)),
    }
    training, weighted = draw(st.sampled_from(
        [("stacked", "false"), ("stacked", "true"), ("independent", "true")]))
    keys.update(training=training, weighted=weighted)
    keys.update(draw(st.lists(st.sampled_from(BAD_LINES), max_size=1)))
    return "\n".join(f"{key} = {value}" for key, value in keys.items()) + "\n", length


def _reject_constant(name):
    raise AssertionError(f"{name} in a report")


def _run(argv, stdin=""):
    """``main(argv)`` in-process: its exit code and what it printed."""
    out = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue()


TYPED_EXITS = {0} | {code for _, code in EXIT_CODES if code != 21}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=config_texts(), stdin=STDIN_VALUES, freeze=st.booleans(),
       scale=st.integers(0, 300).map(lambda k: 10.0 ** k))
def test_every_entry_point_gives_finite_output_or_a_typed_exit_property(tmp_path, config, stdin,
                                                                         freeze, scale):
    # bench, snapshot save/show and predict each give finite output or
    # exit with a typed code, on the series at any scale up to 1e300;
    # a saved snapshot predicts as the report's forecaster continues
    text, length = config
    cfg, data, snap = tmp_path / "run.cfg", tmp_path / "series.csv", tmp_path / "model.json"
    cfg.write_text(text)
    values = PROPERTY_SERIES.values[:length] * scale
    data.write_text("\n".join(map(repr, values.tolist())) + "\n")
    snap.unlink(missing_ok=True)
    code, report = _run(["bench", "--config", str(cfg), "--data", str(data),
                         "--out-csv", str(tmp_path / "steps.csv")])
    assert code in TYPED_EXITS
    saved, _ = _run(["snapshot", "save", "--config", str(cfg), "--data", str(data),
                     "--out", str(snap)])
    # both build the same model from the same config
    assert saved == code
    if code:
        return
    json.loads(report, parse_constant=_reject_constant)
    with open(tmp_path / "steps.csv", newline="") as fh:
        assert all(np.isfinite(float(cell)) for row in list(csv.reader(fh))[1:]
                   for cell in row[1:4])
    assert _run(["snapshot", "show", "--snapshot", str(snap)])[0] == 0

    # the report's forecaster saves the same bytes (a save folds pending
    # RLS gains, in the saved forecaster too), then steps as predict steps it
    forecaster = run_experiment(load_csv(data), load_config(cfg)).forecaster
    snapshot_save(forecaster, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == snap.read_bytes()
    expected, expected_code = [], 0
    for value in stdin:
        try:
            expected.append(repr(forecaster.step(float(value), learn=not freeze)))
        except (ValueError, errors.AnarxError) as exc:
            expected_code = _exit_code(exc if isinstance(exc, errors.AnarxError)
                                       else errors.ParseError(str(exc)))
            break
    code, out = _run(["predict", "--snapshot", str(snap)] + ["--freeze"] * freeze,
                     "".join(f"{value}\n" for value in stdin))
    assert code in TYPED_EXITS
    assert (code, out.splitlines()) == (expected_code, expected)
    assert all(np.isfinite(float(line)) for line in expected)
