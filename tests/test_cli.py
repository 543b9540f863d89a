import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import anarx
from anarx import errors
from anarx.cli import EXIT_CODES, _exit_code, main
from anarx.datasets import synthetic_load_series
from anarx.snapshot import snapshot_load


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
        ("FileNotFoundError", 3),
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
        assert out.splitlines()[-2:] == ["format: v4", "integrity: ok"]

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
        assert model.learner.P.shape[0] == 1
        P = model.learner.P[0]
        assert health == [f"learner health: trace(P) {float(np.trace(P))!r}, "
                          f"max diag(P) {float(P.diagonal().max())!r}"]

    def test_independent_rls_prints_min_and_max_over_nodes(self, tmp_path, data_csv, capsys):
        model, health = self.show(tmp_path, data_csv, capsys,
                                  "learner = rls\nalpha = 1.0\nweighted = true\n")
        assert model.learner.P.shape[0] == model.n == 2
        traces = [float(np.trace(P)) for P in model.learner.P]
        diags = [float(P.diagonal().max()) for P in model.learner.P]
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
