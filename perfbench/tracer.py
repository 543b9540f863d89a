"""Layer-boundary tracing from outside the library.

The tracer substitutes the public functions and methods at each layer
boundary of the ``anarx`` package with timing wrappers, records one span
per call, and puts the originals back afterwards. Nothing under ``src/``
knows about it. Spans live in compact column arrays while the run lasts
and are written out once, at the end.

A span is (name, start_ns, end_ns, parent span index, step index,
failed). The step index counts ``AnarxModel.node_forecasts`` entries since
the last :meth:`Tracer.begin_pass`; every step path (``run_experiment``,
``OnlineForecaster.step``) calls it exactly once per step, first.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from anarx import combiner, learning, membership, model, nodes, pipeline, snapshot
from anarx.errors import AnarxError

# (layer, owner, attribute). An owner is a module (a function, patched in
# every anarx module that binds the same object) or a class (a method).
BOUNDARIES = [
    ("membership", membership, "eval_bspline"),
    ("membership", membership, "eval_gaussian"),
    ("nodes", nodes.NeoFuzzyNode, "regressor"),
    ("nodes", nodes.NeoFuzzyNode, "forward"),
    ("nodes", nodes.WangMendelNode, "regressor"),
    ("nodes", nodes.WangMendelNode, "forward"),
    ("learning", learning.RlsLearner, "step"),
    ("learning", learning.KwhLearner, "step"),
    ("learning", learning.AdaptiveLearner, "step"),
    ("model", model.AnarxModel, "node_forecasts"),
    ("model", model.AnarxModel, "train_step"),
    ("model", model.AnarxModel, "observe"),
    ("model", model.AnarxModel, "evolve"),
    ("model", model.AnarxModel, "add_node"),
    ("model", model.AnarxModel, "remove_last_node"),
    ("combiner", combiner.CombinerState, "combine"),
    ("combiner", combiner.CombinerState, "optimal_step"),
    ("combiner", combiner.CombinerState, "extend"),
    ("combiner", combiner.CombinerState, "truncate"),
    ("pipeline", pipeline, "load_csv"),
    ("pipeline", pipeline, "build_forecaster"),
    ("pipeline", pipeline, "run_experiment"),
    ("pipeline", pipeline.OnlineForecaster, "step"),
    ("snapshot", snapshot, "snapshot_save"),
    ("snapshot", snapshot, "snapshot_load"),
]

STEP_MARKER = "AnarxModel.node_forecasts"


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attr}"
    return attr


def _patch_points(owner, attr: str) -> list:
    """Every (namespace, attribute) through which the library reaches it."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    points = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "anarx" or modname.startswith("anarx.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is target:
                points.append((mod, name))
    return points


class Tracer:
    """Install with :meth:`install`, undo with :meth:`restore`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._originals: list = []  # (namespace, attribute, original, name id)
        self._stack: list[int] = []
        self.step = -1
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.step_index = array("q")
        self.failed = array("b")
        for name_id, (layer, owner, attr) in enumerate(BOUNDARIES):
            self.names.append(_span_name(owner, attr))
            self.layer_of.append(layer)
            for ns, nsattr in _patch_points(owner, attr):
                self._originals.append((ns, nsattr, vars(ns)[nsattr], name_id))

    def __len__(self) -> int:
        return len(self.start)

    def begin_pass(self) -> None:
        """Reset the step counter at the start of a streamed pass."""
        self.step = -1

    def _wrap(self, fn, name_id: int):
        name_col, start_col, end_col = self.name_id, self.start, self.end
        parent_col, step_col, failed_col = self.parent, self.step_index, self.failed
        stack = self._stack
        clock = time.perf_counter_ns
        marks_step = self.names[name_id] == STEP_MARKER
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            if marks_step:
                tracer.step += 1
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            step_col.append(tracer.step)
            end_col.append(0)
            failed_col.append(0)
            stack.append(idx)
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            except AnarxError:
                failed_col[idx] = 1
                raise
            finally:
                end_col[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if not self.is_clean():
            raise RuntimeError("tracer is already installed")
        # one wrapper per original, shared by every name it is bound to
        wrappers = {}
        for ns, attr, original, name_id in self._originals:
            if name_id not in wrappers:
                wrappers[name_id] = self._wrap(original, name_id)
            setattr(ns, attr, wrappers[name_id])

    def restore(self) -> None:
        for ns, attr, original, _ in self._originals:
            setattr(ns, attr, original)

    def is_clean(self) -> bool:
        """True when every boundary holds its original, unwrapped object."""
        return all(vars(ns)[attr] is original for ns, attr, original, _ in self._originals)

    def steps_seen(self) -> int:
        """Number of step-marker spans recorded."""
        marker = self.names.index(STEP_MARKER)
        return self.name_id.tolist().count(marker)

    def columns(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "step": np.frombuffer(self.step_index, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other; their durations simply add up.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child[: dur.size]


def layer_metrics(tracer: Tracer, steps: int, snapshot_bytes: int,
                  overhead_ratio: float) -> dict:
    """Per-layer counts and self times from the traced rounds.

    ``steps`` is the number of streamed steps the spans cover. Returns
    {metric name: (value, unit)}.
    """
    cols = tracer.columns()
    names = np.asarray(tracer.names)[cols["name_id"]]
    layers = np.asarray(tracer.layer_of)[cols["name_id"]]
    dur = (cols["end_ns"] - cols["start_ns"]).astype(float)
    own = self_times(cols["start_ns"], cols["end_ns"], cols["parent"])
    failed = cols["failed"].astype(bool)

    def per_step(values) -> float:
        return float(values.sum()) / steps

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def median_ms(mask) -> float:
        return float(np.median(dur[mask])) / 1e6 if mask.any() else 0.0

    def layer(name):
        return layers == name

    learn = np.char.endswith(names, "Learner.step")
    combine_step = names == "CombinerState.optimal_step"
    stream_loop = np.isin(names, ["run_experiment", "OnlineForecaster.step"])
    return {
        "membership.calls_per_step": (ratio(int(layer("membership").sum()), steps), "calls/step"),
        "membership.self_us_per_step": (per_step(own[layer("membership")]) / 1e3, "us"),
        "nodes.calls_per_step": (ratio(int(layer("nodes").sum()), steps), "calls/step"),
        "nodes.self_us_per_step": (per_step(own[layer("nodes")]) / 1e3, "us"),
        "learning.updates_per_step": (ratio(int(learn.sum()), steps), "calls/step"),
        "learning.self_us_per_step": (per_step(own[layer("learning")]) / 1e3, "us"),
        "learning.failed_update_ratio": (ratio(int((learn & failed).sum()), int(learn.sum())), "ratio"),
        "model.self_us_per_step": (per_step(own[layer("model")]) / 1e3, "us"),
        "combiner.self_us_per_step": (per_step(own[layer("combiner")]) / 1e3, "us"),
        "combiner.degenerate_ratio": (
            ratio(int((combine_step & failed).sum()), int(combine_step.sum())), "ratio"),
        "pipeline.self_us_per_step": (per_step(own[stream_loop]) / 1e3, "us"),
        "pipeline.load_csv_ms": (median_ms(names == "load_csv"), "ms"),
        "snapshot.save_ms": (median_ms(names == "snapshot_save"), "ms"),
        "snapshot.load_ms": (median_ms(names == "snapshot_load"), "ms"),
        "snapshot.bytes": (float(snapshot_bytes), "B"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
