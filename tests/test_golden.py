"""Golden prediction streams: the per-step y_hat of two configs must
reproduce the benchmark's stored references bit for bit.

The references in ``perfbench/reference/`` are the first round of the
``load_weighted`` and ``rls_wide`` workloads at their default seed 7:
``run_experiment`` over ``synthetic_load_series(n=train_len + test_len,
seed=7)``. They are read here, never written.
"""

from pathlib import Path

import numpy as np
import pytest

from anarx.datasets import synthetic_load_series
from anarx.pipeline import load_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "perfbench" / "reference"


@pytest.mark.parametrize("name,config_path", [
    ("load_weighted", ROOT / "configs" / "load_weighted.cfg"),
    ("rls_wide", ROOT / "perfbench" / "configs" / "rls_wide.cfg"),
])
def test_y_hat_stream_matches_reference(name, config_path):
    config = load_config(config_path)
    series = synthetic_load_series(n=config.train_len + config.test_len, seed=7)
    report = run_experiment(series, config)
    with np.load(REFERENCE_DIR / f"{name}.npz") as ref:
        expected = ref["y_hat"]
    y_hat = np.array([s.y_hat for s in report.steps])
    assert np.array_equal(y_hat, expected), float(np.max(np.abs(y_hat - expected)))
