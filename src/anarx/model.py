"""Additive per-lag model: a delay line, a node pool, and online training.

The model output is the sum of the node outputs, node ``l`` fed with the
values observed ``l`` steps ago. The pool is one grid, a node count and
the weight block of one row-batched learner (see :mod:`anarx.learning`),
whose weights are tuned while the stream runs; the pool itself can grow
or shrink without disturbing the surviving nodes. The training wiring
only sets the shape of the weight block:

* ``stacked`` - one row over the concatenated node weights, fit against
  the stream value on the concatenated regressor, so all node weights
  are fit jointly (the additive output is linear in every weight, making
  this a single linear regression).
* ``independent`` - one row per node, each fit alone against the stream
  value, turning every node into a standalone one-step predictor; this
  is the wiring the weighted ensemble builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CorruptSnapshot, ParseError, check_fields, read_count, read_float, read_floats
from .learning import make_learner
from .numerics import support_dot
from .membership import GaussianGrid, KnotGrid, build_gaussian_grid
from .nodes import NeoFuzzyNode, WangMendelNode


# the ring entry of a lag not seen yet
_UNSEEN = (0, ())


def _invalid_policy(key: str, message: str):
    raise ValueError(f"{key} {message}")


@dataclass
class EvolutionPolicy:
    """Thresholds steering structural growth and pruning."""

    window: int = 100
    add_threshold: float = 0.15
    remove_threshold: float = 0.05
    n_min: int = 1
    n_max: int = 10

    def __post_init__(self) -> None:
        check_fields(self, _invalid_policy)
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.n_min > self.n_max or self.n_min < 1:
            raise ValueError("need 1 <= n_min <= n_max")
        if not self.add_threshold > self.remove_threshold >= 0.0:
            raise ValueError("need add_threshold > remove_threshold >= 0")

    @classmethod
    def from_state(cls, state: dict) -> "EvolutionPolicy":
        """The policy saved as its fields (``vars(policy)``). Raises
        CorruptSnapshot unless ``state`` holds each field once, the window
        and the node bounds as counts and the thresholds as numbers."""
        if type(state) is not dict or state.keys() != {f.name for f in fields(cls)}:
            raise CorruptSnapshot(f"evolution policy must hold a policy's fields, got {state!r}")
        return cls(**{key: read_count(state[key], f"policy {key}", 1)
                      for key in ("window", "n_min", "n_max")},
                   add_threshold=read_float(state["add_threshold"], "add threshold"),
                   remove_threshold=read_float(state["remove_threshold"], "remove threshold"))


class AnarxModel:
    """Ordered pool of ``n`` per-lag nodes on one grid, with online learning.

    The grid's type sets the node kind (:data:`_NODE_TYPES`); ``node`` is
    one node on the grid, which fuzzifies values and gives the kind, the
    width ``dim`` and the paper's ``synapses``. Every observed value is
    fuzzified once, before any state moves, into a ring of supports
    (entry ``l - 1`` holds the support of the value seen ``l`` steps
    ago, ``(0, ())`` before it is seen) kept beside the delay line
    ``delay_y``, the values themselves, newest first. A value that is
    not finite raises ParseError, and one no node can fuzzify
    DegenerateActivation, from the step that receives it, and it enters
    neither. The ring's length is the delay capacity: it
    grows with the pool and never shrinks, and ``delay_y`` is no longer
    than it.

    The one ``learner``'s weight block, shaped by :meth:`_learner_shape`,
    is the only copy of the pool's weights; ``W`` is its (n x dim) view,
    row ``l`` the weights of the node at lag ``l + 1``. That node
    forecasts the sum of its fired weights times the support of its lag
    (see :mod:`anarx.numerics`), and a learner row takes its nodes'
    supports as its regressor's blocks.
    """

    def __init__(
        self,
        grid,
        n_nodes: int,
        *,
        training: str = "stacked",
        learner: str = "rls",
        alpha: float = 1.0,
        p0: float = 1e4,
    ) -> None:
        if type(grid) not in _NODE_TYPES:
            raise ValueError(f"no node kind is built on a {type(grid).__name__}")
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if training not in ("stacked", "independent"):
            raise ValueError(
                f"training must be 'stacked' or 'independent', got {training!r}"
            )
        self.node = _NODE_TYPES[type(grid)](grid)
        # the node width, read once: the step reads it every time
        self._dim = self.node.dim
        self.n = n_nodes
        self.training = training
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self.delay_y: list = []
        self._ring = [_UNSEEN] * n_nodes
        # A node fits the sum of its ``synapses`` tied weight vectors (see
        # NeoFuzzyNode). Each has the prior p0 * I, so the sum has
        # synapses * p0 * I; RLS on the sum then matches RLS on the tied
        # vectors.
        self.learner = make_learner(
            learner,
            np.zeros(self._learner_shape()),
            alpha=self.alpha,
            p0=self.node.synapses * self.p0,
        )

    # -- structure ---------------------------------------------------

    @property
    def W(self) -> np.ndarray:
        """The node weights, one row per node: a view of the learner's block."""
        return self.learner.w.reshape(self.n, -1)

    def _learner_shape(self) -> tuple:
        """(rows, cols) of the learner's weight block: one row over all
        node weights in stacked training, one row per node in independent."""
        h = self._dim
        return (1, self.n * h) if self.training == "stacked" else (self.n, h)

    def add_node(self) -> None:
        """Append node n+1 with zero weights and fresh learner state."""
        self.n += 1
        self.learner.resize(*self._learner_shape())
        self._ring += [_UNSEEN] * (self.n - len(self._ring))

    def remove_last_node(self) -> None:
        if self.n <= 1:
            raise ValueError("cannot remove the only node")
        self.n -= 1
        self.learner.resize(*self._learner_shape())

    def evolve(self, policy: EvolutionPolicy, window_rmse: float, contributions) -> None:
        """Apply at most one structural change based on recent error level;
        the pool size ``n`` tells which, if any: one more node was added,
        one fewer removed.

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
        elif (window_rmse < policy.remove_threshold and self.n > policy.n_min
              and len(contributions) >= policy.window):
            recent = np.abs(np.asarray(list(contributions)[-policy.window :], dtype=float))
            if int(np.argmin(recent.mean(axis=0))) == self.n - 1:
                self.remove_last_node()

    # -- evaluation ----------------------------------------------------

    def node_forecasts(self) -> list:
        """Every node's output at its lag; zero where the lag is unseen."""
        # node l's support sum is node.forward of the lag's value with
        # W[l], bit for bit; an unseen lag's support is empty and sums to
        # zero. The learner's flat view holds W row after row.
        w, h = self.learner._flat, self._dim
        out = []
        offset = 0
        for start, values in self._ring[: self.n]:
            out.append(support_dot(w, offset + start, values))
            offset += h
        return out

    def forward(self) -> float:
        """Additive model output at the current position in the stream."""
        return math.fsum(self.node_forecasts())

    def observe(self, y_new: float, support=None) -> None:
        """Shift the delay line and the regressor ring; no weight moves.

        ``support`` is ``y_new`` fuzzified, from a caller that has it;
        without it the value is fuzzified here, before anything moves.
        """
        y = float(y_new)
        if support is None:
            support = self._fuzzify(y)
        delay = self.delay_y
        delay.insert(0, y)
        del delay[len(self._ring) :]
        ring = self._ring
        ring.insert(0, support)
        ring.pop()

    def _fuzzify(self, y: float) -> tuple:
        """``y``'s support. A value that is not finite raises ParseError,
        before anything moves: the clamps of the grids pass NaN through."""
        if not math.isfinite(y):
            raise ParseError(f"value {y!r} is not finite")
        return self.node.fuzzify(y)

    # -- training --------------------------------------------------------

    def train_step(self, y_new: float, forecasts=None, output=None) -> list:
        """One online step: fuzzify y_new, update the weights towards it,
        then shift the delay line. The step's prediction is
        :meth:`forward` before it. A y_new that is not finite raises
        ParseError, and one no node can fuzzify DegenerateActivation,
        before any weight or lag moves.

        Returns (node index, reason) for each node whose update failed or
        was deferred: ``"lag not observed yet"``, or the learner error as
        ``"<class name>: <message>"``.

        A caller that has :meth:`node_forecasts` here passes it as
        ``forecasts``; a caller that also has their ``fsum``, the model
        output, passes it as ``output``, and the stacked row takes it as
        its prediction.

        The learner walks its rows over the ring's supports as they are
        (``learner.walk``, see :mod:`anarx.learning`): no row list is
        built and no shape checked. Its public ``step``, which checks,
        computes the same bits from the same rows.
        """
        y = float(y_new)
        support = self._fuzzify(y)
        n = self.n
        m = min(n, len(self.delay_y))
        node_preds = self.node_forecasts() if forecasts is None else forecasts

        skipped = [(i, "lag not observed yet") for i in range(m, n)] if m < n else []
        # In independent training row l walks node l's support, for the m
        # observed nodes; in stacked training the one row walks all n
        # supports (those of unobserved lags still empty) once a lag is
        # observed, and its skip skips each observed node. A row predicts
        # the fsum of its nodes' forecasts (see anarx.numerics): its node's
        # forecast, or the model output for the stacked row; the learner is
        # handed those, so it does not predict again.
        if len(self.learner.w) == n:
            skipped += self.learner.walk(zip(self._ring[:m]), y, node_preds)
        elif m:
            pred = [math.fsum(node_preds) if output is None else output]
            for _, reason in self.learner.walk([self._ring[:n]], y, pred):
                skipped += [(i, reason) for i in range(m)]

        self.observe(y, support)
        return skipped

    # -- bookkeeping -----------------------------------------------------

    def parameter_count(self) -> int:
        """Weights in the paper's convention: ``synapses`` h-wide vectors
        per node. The fitted weights are ``W.size``."""
        return self.node.synapses * self.W.size

    def state_dict(self) -> dict:
        """The model's state, each value once: the training wiring, the
        learner kind and its settings ``alpha`` and ``p0``, the grid of
        the pool, the delay values and capacity, and the learner's block
        (``learner.state_dict()``), which holds numbers only: the weight
        rows ``w``, whose shape is the pool's, the adaptive learner's gains
        ``r``, and the RLS covariances ``P``, as packed upper triangles,
        with the pending gains ``U`` and their count ``pending``."""
        return {
            "training": self.training,
            "learner": self.learner.kind,
            "alpha": self.alpha,
            "p0": self.p0,
            "node_kind": self.node.kind,
            "grid": self.node.grid.to_dict(),
            "delay_y": list(self.delay_y),
            "delay_capacity": len(self._ring),
            "learner_state": self.learner.state_dict(),
        }

    def __reduce__(self):
        # copy and pickle through the state, as a snapshot does: the
        # learner's views of its weight block are memoryviews, which do
        # neither
        return (AnarxModel.from_state, (self.state_dict(),))

    @classmethod
    def from_state(cls, state: dict) -> "AnarxModel":
        """Rebuild a model from :meth:`state_dict` output.

        The learner is built from the model's own ``learner``, ``alpha``
        and ``p0``, the one place they are saved, and loads its block.
        The pool size is the block's shape: the width / h of the one
        stacked row, or the row count in independent training. Raises
        CorruptSnapshot when the weight rows hold no pool of h-wide nodes
        (checked before the model is built, so rows that fix no pool
        allocate nothing); when the delay capacity is below the node count or the
        delay values; when a saved number is not a finite JSON number or
        a saved count not an integer in range (see :mod:`anarx.errors`);
        DimensionMismatch when the rest of the block is shaped for
        another pool; and DegenerateActivation when a delay value cannot
        be fuzzified.
        """
        grids = {node.kind: grid for grid, node in _NODE_TYPES.items()}
        node_kind = state["node_kind"]
        if node_kind not in grids:
            raise CorruptSnapshot(f"unknown node kind {node_kind!r}")
        grid = grids[node_kind].from_dict(state["grid"])
        w, h = state["learner_state"]["w"], grid.h
        stacked = state["training"] == "stacked"
        n_nodes = len(w[0]) // h if stacked and w else len(w)
        if not n_nodes or (len(w), len(w[0])) != ((1, n_nodes * h) if stacked else (n_nodes, h)):
            raise CorruptSnapshot(f"{len(w)} weight rows hold no pool of {h}-wide nodes")
        model = cls(grid, n_nodes, training=state["training"], learner=state["learner"],
                    alpha=read_float(state["alpha"], "alpha"), p0=read_float(state["p0"], "p0"))
        model.learner.load_state(state["learner_state"])
        delay = read_floats(state["delay_y"], "delay values")
        # the capacity covers the nodes and the delay values
        capacity = read_count(state["delay_capacity"], "delay capacity", max(model.n, len(delay)))
        # refill the delay line and its ring, oldest value first
        model._ring = [_UNSEEN] * capacity
        for y in reversed(delay):
            model.observe(y)
        return model


# the node kind each grid type builds
_NODE_TYPES = {KnotGrid: NeoFuzzyNode, GaussianGrid: WangMendelNode}


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
    """Build a pool of ``n_nodes`` zero-weight nodes on one grid over [lo, hi]."""
    if node_kind == "neo_fuzzy":
        grid = KnotGrid(lo, hi, h, q)
    elif node_kind == "wang_mendel":
        grid = build_gaussian_grid(lo, hi, h)
    else:
        raise ValueError(f"unknown node kind {node_kind!r}")
    return AnarxModel(grid, n_nodes, training=training, learner=learner, alpha=alpha, p0=p0)
