"""Additive per-lag model: a delay line, a node pool, and online training.

The model output is the sum of the node outputs, node ``l`` fed with the
values observed ``l`` steps ago. Nodes are tuned while the stream runs,
and the pool itself can grow or shrink without disturbing the surviving
nodes.

The pool has one row-batched learner (see :mod:`anarx.learning`), and
the training wiring only sets the shape of its weight block:

* ``stacked`` - one row over the concatenated node weights, fit against
  the stream value on the concatenated regressor, so all node weights
  are fit jointly (the additive output is linear in every weight, making
  this a single linear regression).
* ``independent`` - one row per node, each fit alone against the stream
  value, turning every node into a standalone one-step predictor; this
  is the wiring the weighted ensemble builds on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptSnapshot, DegenerateActivation
from .learning import make_learner
from .numerics import exact_sum, support_dot
from .membership import GaussianGrid, KnotGrid, build_gaussian_grid, build_uniform_grid
from .nodes import NeoFuzzyNode, WangMendelNode


# the ring entry of a lag not seen yet, or whose value failed to fuzzify
_UNSEEN = (0, ())


class DelayLine:
    """Most-recent-first buffer of past observations."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._buf: list[float] = []

    def push(self, value: float) -> None:
        self._buf.insert(0, float(value))
        del self._buf[self.capacity :]

    def lag(self, l: int):
        """Value observed ``l`` steps ago, or None before it exists."""
        if 1 <= l <= len(self._buf):
            return self._buf[l - 1]
        return None

    def ensure_capacity(self, capacity: int) -> None:
        if capacity > self.capacity:
            self.capacity = int(capacity)

    def __len__(self) -> int:
        return len(self._buf)

    def snapshot(self) -> list[float]:
        return list(self._buf)

    def restore(self, values) -> None:
        self._buf = [float(v) for v in values]
        self.ensure_capacity(len(self._buf))
        del self._buf[self.capacity :]


@dataclass
class EvolutionPolicy:
    """Thresholds steering structural growth and pruning."""

    window: int = 100
    add_threshold: float = 0.15
    remove_threshold: float = 0.05
    n_min: int = 1
    n_max: int = 10

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.n_min > self.n_max or self.n_min < 1:
            raise ValueError("need 1 <= n_min <= n_max")
        if not self.add_threshold > self.remove_threshold >= 0.0:
            raise ValueError("need add_threshold > remove_threshold >= 0")


class StructureChange(enum.Enum):
    NONE = "none"
    ADDED = "added"
    REMOVED = "removed"


@dataclass
class StepReport:
    """Per-step result of :meth:`AnarxModel.train_step`.

    ``node_predictions`` holds the node outputs from pre-update weights as
    a list (zeros for nodes whose lag is not observed yet); ``prediction`` is
    their additive sum and ``error`` is ``y`` minus it. ``skipped`` lists
    (node index, reason) for nodes whose update failed or was deferred:
    ``"lag not observed yet"``, or the learner error as
    ``"<class name>: <message>"``.
    """

    y: float
    node_predictions: list
    skipped: list = field(default_factory=list)

    @property
    def prediction(self) -> float:
        return exact_sum(self.node_predictions)

    @property
    def error(self) -> float:
        return self.y - self.prediction


class AnarxModel:
    """Ordered pool of per-lag nodes with online learning.

    All nodes share one grid, so every observed value is fuzzified once,
    in :meth:`observe`, into a ring of supports (entry ``l - 1`` holds the
    support of the value seen ``l`` steps ago, ``(0, ())`` before it is
    seen) kept beside the value delay line. The pool's weights are one
    (n x dim) matrix ``W`` whose rows are the node weight vectors; node
    ``l`` forecasts the sum of its fired weights times the support of lag
    ``l`` (see :mod:`anarx.numerics`). ``W`` is a view of the one
    ``learner``'s weight block, shaped by :meth:`_learner_shape`, and a
    learner row takes its nodes' supports as its regressor's blocks.
    """

    def __init__(
        self,
        nodes,
        *,
        training: str = "stacked",
        learner: str = "rls",
        alpha: float = 1.0,
        p0: float = 1e4,
    ) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ValueError("need at least one node")
        kinds = {type(node) for node in nodes}
        if len(kinds) != 1:
            raise ValueError("node pool must be homogeneous")
        first = nodes[0]
        if not all(_same_grid(node.grid, first.grid) for node in nodes):
            raise ValueError("nodes must share one grid")
        if training not in ("stacked", "independent"):
            raise ValueError(
                f"training must be 'stacked' or 'independent', got {training!r}"
            )
        self.nodes = nodes
        self.training = training
        self.learner_kind = learner
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self.delay_y = DelayLine(len(nodes))
        self._ring = [_UNSEEN] * len(nodes)
        # lag of the newest row whose fuzzification failed, and why; the
        # failure is raised when a forecast first reads that row
        self._fault_lag = math.inf
        self._fault = ""
        # A node fits the sum of its ``synapses`` tied weight vectors (see
        # NeoFuzzyNode). Each has the prior p0 * I, so the sum has
        # synapses * p0 * I; RLS on the sum then matches RLS on the tied
        # vectors.
        self.learner = make_learner(
            learner,
            np.array([node.weights for node in nodes]).reshape(self._learner_shape()),
            alpha=self.alpha,
            p0=first.synapses * self.p0,
        )
        self._bind_rows()

    # -- structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _learner_shape(self) -> tuple:
        """(rows, cols) of the learner's weight block: one row over all
        node weights in stacked training, one row per node in independent."""
        h = self.nodes[0].dim
        return (1, self.n * h) if self.training == "stacked" else (self.n, h)

    def _bind_rows(self) -> None:
        """Point W and the node weights at the learner's weight block."""
        self.W = self.learner.w.reshape(self.n, -1)
        # W's items as Python floats, node after node
        self._flat = memoryview(self.W.reshape(-1))
        for node, row in zip(self.nodes, self.W):
            node.weights = row

    def _fresh_node(self):
        template = self.nodes[-1]
        return type(template)(template.grid)

    def add_node(self) -> None:
        """Append node n+1 with zero weights and fresh learner state."""
        node = self._fresh_node()
        self.nodes.append(node)
        self.learner.resize(*self._learner_shape())
        self._bind_rows()
        self.delay_y.ensure_capacity(self.n)
        self._ring += [_UNSEEN] * (self.delay_y.capacity - len(self._ring))

    def remove_last_node(self) -> None:
        if self.n <= 1:
            raise ValueError("cannot remove the only node")
        self.nodes.pop()
        self.learner.resize(*self._learner_shape())
        self._bind_rows()

    def evolve(self, policy: EvolutionPolicy, window_rmse: float, contributions) -> StructureChange:
        """Apply at most one structural change based on recent error level.

        ``contributions`` holds one row of node forecasts per learned step
        since the last structure change, oldest first; the caller keeps it
        (:class:`~anarx.pipeline.OnlineForecaster` in its contribution
        window) and clears it on a change. Growth needs only the error
        signal; pruning additionally requires at least ``policy.window``
        rows and the last node's mean |contribution| over the last
        ``policy.window`` of them to be the smallest in the pool.
        """
        if window_rmse > policy.add_threshold and self.n < policy.n_max:
            self.add_node()
            return StructureChange.ADDED
        if window_rmse < policy.remove_threshold and self.n > policy.n_min:
            if len(contributions) >= policy.window:
                recent = np.abs(
                    np.asarray(list(contributions)[-policy.window :], dtype=float)
                )
                means = recent.mean(axis=0)
                if int(np.argmin(means)) == self.n - 1:
                    self.remove_last_node()
                    return StructureChange.REMOVED
        return StructureChange.NONE

    # -- evaluation ----------------------------------------------------

    def _observed(self) -> int:
        """Number of nodes whose lag is observed; raises if one of their
        rows failed to fuzzify."""
        m = min(self.n, len(self.delay_y))
        if self._fault_lag <= m:
            raise DegenerateActivation(self._fault)
        return m

    def _forecasts(self) -> list:
        # node l's support sum is node.forward of the lag's value, bit for
        # bit; an unseen lag's support is empty and sums to zero
        w, h = self._flat, self.W.shape[1]
        return [support_dot(w, l * h + start, values)
                for l, (start, values) in enumerate(self._ring[: self.n])]

    def node_forecasts(self) -> list:
        """Every node's output at its lag; zero where the lag is unseen."""
        self._observed()
        return self._forecasts()

    def forward(self) -> float:
        """Additive model output at the current position in the stream."""
        return exact_sum(self.node_forecasts())

    def observe(self, y_new: float) -> None:
        """Shift the delay line and the regressor ring; no weight moves."""
        self.delay_y.push(y_new)
        self._push_row(float(y_new))

    def _push_row(self, y: float) -> None:
        """Fuzzify one observation into ring entry 0."""
        ring = self._ring
        self._fault_lag += 1
        try:
            ring.insert(0, self.nodes[0].fuzzify(y))
        except DegenerateActivation as exc:
            ring.insert(0, _UNSEEN)
            self._fault_lag, self._fault = 1, str(exc)
        ring.pop()

    def _rebuild_ring(self) -> None:
        """Refill the ring from the delay line, oldest value first."""
        self._ring = [_UNSEEN] * self.delay_y.capacity
        self._fault_lag = math.inf
        for y in reversed(self.delay_y.snapshot()):
            self._push_row(y)

    # -- training --------------------------------------------------------

    def train_step(self, y_new: float, forecasts=None) -> StepReport:
        """One online step: predict y_new, update weights, shift the delay line.

        A caller that has :meth:`node_forecasts` here passes it as
        ``forecasts``; that call has made the check :meth:`_observed`
        makes, so it is not made again.
        """
        n = len(self.nodes)
        if forecasts is None:
            m = self._observed()
            node_preds = self._forecasts()
        else:
            m = min(n, len(self.delay_y))
            node_preds = forecasts

        skipped = [(i, "lag not observed yet") for i in range(m, n)]
        # A learner row spans ``span`` nodes: all n in stacked training,
        # where the supports of unobserved lags are still empty, one in
        # independent. Its regressor's blocks are those nodes' supports.
        # Rows with an observed node learn; a skipped row skips its
        # observed nodes. A one-node row predicts its node's forecast,
        # bit for bit, so the learner is handed those.
        learner = self.learner
        span = n // len(learner.w)
        if span == 1:
            rows = [[support] for support in self._ring[:m]]
            pred = node_preds[:m]
        else:
            rows = [self._ring[:n]] if m else []
            pred = learner.predict(rows)
        for row, reason in learner.step(rows, y_new, pred):
            skipped.extend((i, reason) for i in range(row * span, min(row * span + span, m)))

        self.observe(y_new)
        return StepReport(float(y_new), node_preds, skipped)

    # -- bookkeeping -----------------------------------------------------

    def parameter_count(self) -> int:
        """Weights in the paper's convention: ``synapses`` h-wide vectors
        per node. The fitted weights are ``W.size``."""
        return self.nodes[0].synapses * self.W.size

    def state_dict(self) -> dict:
        state = {
            "training": self.training,
            "learner": self.learner_kind,
            "alpha": self.alpha,
            "p0": self.p0,
            "node_kind": self.nodes[0].kind,
            "grid": self.nodes[0].grid.to_dict(),
            "n_nodes": self.n,
            "delay_y": self.delay_y.snapshot(),
        }
        rows = [self.learner.row_state(i) for i in range(len(self.learner.w))]
        if self.training == "stacked":
            state["stacked_state"] = rows[0]
        else:
            state["learner_states"] = rows
        return state

    def __reduce__(self):
        # copy and pickle through the state, as a snapshot does (which
        # folds pending RLS gains first): the views of the weight block
        # are memoryviews, which do neither
        return (AnarxModel.from_state, (self.state_dict(),))

    @classmethod
    def from_state(cls, state: dict) -> "AnarxModel":
        """Rebuild a model from :meth:`state_dict` output.

        Raises CorruptSnapshot when the learner state does not match the
        model: another row count, or settings (kind, alpha, p0) other
        than those the model builds its learner with; and
        DimensionMismatch when a row is shaped for another pool.
        """
        node_kind = state["node_kind"]
        if node_kind not in _NODE_TYPES:
            raise CorruptSnapshot(f"unknown node kind {node_kind!r}")
        grid_cls, node_cls = _NODE_TYPES[node_kind]
        grid = grid_cls.from_dict(state["grid"])
        model = cls(
            [node_cls(grid) for _ in range(state["n_nodes"])],
            training=state["training"],
            learner=state["learner"],
            alpha=state["alpha"],
            p0=state["p0"],
        )
        learner = model.learner
        rows = [state["stacked_state"]] if model.training == "stacked" else state["learner_states"]
        if len(rows) != len(learner.w):
            raise CorruptSnapshot(f"{len(rows)} learner states for {len(learner.w)} learner rows")
        settings = learner.settings()
        for i, row in enumerate(rows):
            saved = {key: row[key] for key in settings if key in row}
            if saved != settings:
                raise CorruptSnapshot(
                    f"learner state {i} has settings {saved}, the model builds {settings}"
                )
            learner.load_row(i, row)
        model.delay_y.restore(state["delay_y"])
        model._rebuild_ring()
        return model


def _same_grid(a, b) -> bool:
    return a is b or a.to_dict() == b.to_dict()


_NODE_TYPES = {
    NeoFuzzyNode.kind: (KnotGrid, NeoFuzzyNode),
    WangMendelNode.kind: (GaussianGrid, WangMendelNode),
}


def build_anarx(
    n_nodes: int,
    h: int,
    lo: float,
    hi: float,
    *,
    q: int = 2,
    node_kind: str = "neo_fuzzy",
    training: str = "stacked",
    learner: str = "rls",
    alpha: float = 1.0,
    p0: float = 1e4,
) -> AnarxModel:
    """Build a homogeneous pool of ``n_nodes`` zero-weight nodes on [lo, hi]."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if node_kind == "neo_fuzzy":
        grid = build_uniform_grid(lo, hi, h, q)
        nodes = [NeoFuzzyNode(grid) for _ in range(n_nodes)]
    elif node_kind == "wang_mendel":
        grid = build_gaussian_grid(lo, hi, h)
        nodes = [WangMendelNode(grid) for _ in range(n_nodes)]
    else:
        raise ValueError(f"unknown node kind {node_kind!r}")
    return AnarxModel(nodes, training=training, learner=learner, alpha=alpha, p0=p0)
