"""The shipped config files must parse and drive full benchmark runs.

The sunspot configs run here against the synthetic load series cut to
the sunspot file's length and split; this checks the protocol end to
end (warm-up, online test evaluation, runtime, report shape) without
asserting the archived-data RMSE bands, which live in the acceptance
suite.
"""

import os

import pytest

from anarx import run_experiment
from anarx.datasets import synthetic_load_series
from anarx.pipeline import load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return load_config(os.path.join(CONFIG_DIR, name))


@pytest.mark.parametrize("name", [
    "sunspot_plain.cfg", "sunspot_weighted.cfg", "load_plain.cfg", "load_weighted.cfg",
])
def test_config_parses(name):
    cfg = config(name)
    assert cfg.n_nodes == 2
    assert cfg.learner == "adaptive"
    assert cfg.training == ("independent" if cfg.weighted else "stacked")


def test_sunspot_configs_run_on_a_series_of_the_sunspot_length():
    series = synthetic_load_series(n=2820)
    plain = run_experiment(series, config("sunspot_plain.cfg"))
    weighted = run_experiment(series, config("sunspot_weighted.cfg"))
    for report in (plain, weighted):
        assert len(report.steps) == 2820
        assert report.wall_time_s <= 5.0
        assert 0.0 < report.rmse_test < 0.5
    assert plain.parameter_count == 16
    assert weighted.parameter_count == 18


def test_load_configs_run_and_order():
    series = synthetic_load_series()
    plain = run_experiment(series, config("load_plain.cfg"))
    weighted = run_experiment(series, config("load_weighted.cfg"))
    assert plain.parameter_count == 36
    assert weighted.parameter_count == 34
    assert weighted.rmse_test < plain.rmse_test
