"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They check that tracing leaves predictions untouched, that untraced code
runs the original functions, and the self-time and throughput arithmetic.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import anarx  # noqa: E402
from anarx import combiner, datasets, membership, nodes, pipeline  # noqa: E402
from anarx.errors import DegenerateStep  # noqa: E402
from run import best_steps_per_s  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Samples  # noqa: E402

SHIPPED = BENCH_DIR.parent / "configs" / "load_weighted.cfg"


def small_run():
    config = pipeline.load_config(SHIPPED)
    config.train_len, config.test_len = 240, 160
    series = datasets.synthetic_load_series(n=400, seed=3)
    report = pipeline.run_experiment(series, config)
    return np.array([s.y_hat for s in report.steps])


def test_self_time_subtracts_direct_children_only():
    # parent [0, 100] holds children [10, 30] and [40, 70]; the second
    # holds a grandchild [45, 50]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [50.0, 20.0, 25.0, 5.0]


def test_self_time_of_leaf_spans_is_their_duration():
    assert self_times([5, 7], [6, 10], [-1, -1]).tolist() == [1.0, 3.0]


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    original_eval = membership.eval_bspline
    original_run = pipeline.run_experiment
    original_forward = nodes.NeoFuzzyNode.__dict__["forward"]
    tracer = Tracer()
    assert tracer.is_clean()
    tracer.install()
    try:
        assert not tracer.is_clean()
        # the name nodes.py imported from membership is wrapped too
        assert nodes.eval_bspline is not original_eval
        assert membership.eval_bspline is nodes.eval_bspline
        assert anarx.run_experiment is pipeline.run_experiment is not original_run
        assert nodes.NeoFuzzyNode.__dict__["forward"] is not original_forward
    finally:
        tracer.restore()
    assert tracer.is_clean()
    assert nodes.eval_bspline is original_eval and membership.eval_bspline is original_eval
    assert pipeline.run_experiment is original_run and anarx.run_experiment is original_run
    assert nodes.NeoFuzzyNode.__dict__["forward"] is original_forward


def test_traced_predictions_equal_untraced_bit_for_bit():
    untraced = small_run()
    tracer = Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        traced = small_run()
    finally:
        tracer.restore()
    again = small_run()
    assert traced.tobytes() == untraced.tobytes()
    assert again.tobytes() == untraced.tobytes()
    assert len(tracer) > 0
    # the step marker fires once per step, so step indices run 0..steps-1
    steps = tracer.columns()["step"]
    assert steps.max() == untraced.size - 1


def test_layer_metrics_count_calls_per_step():
    tracer = Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        y_hat = small_run()
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, y_hat.size, 0, 1.0)
    # two nodes: forecast and update each fuzzify both synapses of each node
    assert 7.9 < metrics["membership.calls_per_step"][0] <= 8.0
    assert 1.9 < metrics["learning.updates_per_step"][0] <= 2.0
    for name, (value, _) in metrics.items():
        assert value >= 0.0, name


def test_failed_calls_are_flagged():
    tracer = Tracer()
    tracer.install()
    try:
        state = combiner.CombinerState(2)
        with pytest.raises(DegenerateStep):
            state.optimal_step(np.zeros(2), 0.0)
    finally:
        tracer.restore()
    cols = tracer.columns()
    assert cols["failed"].tolist() == [1]
    assert tracer.names[cols["name_id"][0]] == "CombinerState.optimal_step"


def test_throughput_takes_each_unit_at_its_fastest():
    samples = Samples(unit_s=[[2.0, 4.0], [1.0, 5.0]], unit_steps=[10, 10])
    # fastest times are 1.0 and 4.0, from different rounds
    assert best_steps_per_s(samples) == 20 / 5.0
