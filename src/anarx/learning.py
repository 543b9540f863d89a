"""Recursive estimators for linear-in-parameter models, batched by row.

Each learner owns a 2-d weight block ``w`` of shape (rows, cols) and fits
every row as its own linear model against a shared target.
``step(rows, y, pred=None)`` takes one regressor per row for the first
``k = len(rows) <= rows`` rows, predicts each with the row's current
weights (:meth:`predict`), and updates those rows in place; rows
``[k:]`` and their state are not touched. A caller that already holds
those k predictions, computed as :meth:`predict` computes them, passes
them as ``pred`` so they are not computed twice. A row whose update
would divide by a squared regressor norm or gain at or below
``EPS_REG`` is masked: its weights stay as they were, and ``step``
returns it as ``(row, "<error class>: <message>")`` in the list of
skipped rows, which is empty when every row updated.

A regressor is given by its support. Row ``i``'s regressor ``rows[i]``
is a sequence of equal-width blocks that fill the row's ``cols``
columns, each block a support ``(start, values)`` (see
:mod:`anarx.numerics`): the model hands a row of independent training
its node's support as one block, and the row of stacked training one
block per node. A step reads and writes only the columns the supports
fire.

The summation contract is that of :mod:`anarx.numerics`: a row sums
its prediction and its squared norm over each block's support, left to
right from zero, and adds the block sums with ``math.fsum``, as the
model adds its node forecasts (a one-block row's sum is its block's). So
the stacked row predicts the model output, and a one-node row its
node's forecast, bit for bit. RLS sums ``P phi`` and ``phi'P phi`` left
to right over the support columns. Each row of a batched learner
computes bit for bit what a one-row learner computes on the same
inputs, and KWH and the adaptive learner add ``error / gain * value``
to each fired weight, the bits a dense update gives it.

``step`` never rebinds ``w`` or the per-row state, so a caller holding
views of them sees every update. ``resize(rows, cols)`` reallocates: it
keeps the overlapping block and gives new coordinates zero weight and
fresh state. ``row_state(i)`` and ``load_row(i, state)`` save and
restore one row (RLS folds the row's pending gains into its covariance
first, see :class:`RlsLearner`).

* :class:`RlsLearner` - exponentially weighted recursive least squares.
* :class:`KwhLearner` - normalized one-step projection; the a-posteriori
  residual on the incoming sample is exactly zero.
* :class:`AdaptiveLearner` - projection with a leaky scalar gain
  accumulator, trading filtering against tracking through ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NumericalDivergence
from .numerics import EPS_REG, support_dot


def _resized(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Copy the overlapping corner of ``old`` into ``new``; return ``new``."""
    corner = tuple(slice(min(a, b)) for a, b in zip(old.shape, new.shape))
    new[corner] = old[corner]
    return new


class _RowBlock:
    """The weight block the learners share, and its bookkeeping.

    ``params`` names the constructor settings a learner kind takes
    besides the weights; they are its :meth:`settings`.
    """

    params: tuple = ()

    def __init__(self, weights) -> None:
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"weights must be a (rows, cols) block, got {w.shape}")
        self._bind(w)

    def _bind(self, w: np.ndarray) -> None:
        self.w = w
        # the block's items as Python floats, row after row: a support's
        # few weights read and write faster through it than through numpy
        self._flat = memoryview(w.reshape(-1))

    def predict(self, rows) -> list:
        """Each of the first ``len(rows)`` rows' prediction on its regressor."""
        cols = self.w.shape[1]
        out = []
        for i, row in enumerate(rows):
            width = cols // len(row)
            out.append(math.fsum([support_dot(self._flat, i * cols + b * width + start, values)
                                  for b, (start, values) in enumerate(row)]))
        return out

    def _check(self, rows) -> None:
        """Raise DimensionMismatch unless there are at most as many
        regressors as rows and each splits the columns into equal blocks
        that hold their supports."""
        n, cols = self.w.shape
        if len(rows) > n:
            raise DimensionMismatch(f"{len(rows)} regressors for {n} learner rows")
        for row in rows:
            if not row or cols % len(row):
                raise DimensionMismatch(f"{len(row)} blocks do not split {cols} columns")
            width = cols // len(row)
            for start, values in row:
                if start < 0 or start + len(values) > width:
                    raise DimensionMismatch(
                        f"support of {len(values)} values at {start} overruns a block of {width}")

    def resize(self, rows: int, cols: int) -> None:
        self._bind(_resized(self.w, np.zeros((rows, cols))))

    def settings(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.params}}

    def row_state(self, i: int) -> dict:
        return {**self.settings(), "w": self.w[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        """Restore row ``i`` from :meth:`row_state` output; the caller
        checks that the state's settings are this learner's."""
        w = np.asarray(state["w"], dtype=float)
        if w.shape != self.w.shape[1:]:
            raise DimensionMismatch(
                f"row {i} has weights of shape {w.shape}, the learner needs {self.w.shape[1:]}"
            )
        self.w[i] = w


class _Projection(_RowBlock):
    """KWH and the adaptive learner: each row moves along its regressor
    by ``error / gain``, where the gain grows with the squared norm
    (:meth:`_gain`); a row whose gain is at or below ``EPS_REG`` is
    skipped with ``skip`` at the head of its reason.

    After the shape check, :meth:`_project` takes each row in one loop:
    its squared norm, summed as :meth:`predict` sums the prediction (left
    to right from zero over one block, ``math.fsum`` of the block sums
    over several), its gain, its error against ``pred``
    (:meth:`predict` runs only when the caller passes none) and the
    update of its fired weights.
    """

    def _project(self, rows, y: float, pred) -> list:
        """The step: add ``error / gain * value`` to each fired weight of
        each row whose gain is above ``EPS_REG``; return the other rows as
        skipped."""
        self._check(rows)
        if pred is None:
            pred = self.predict(rows)
        y = float(y)
        skipped = []
        w = self._flat
        cols = self.w.shape[1]
        for i, row in enumerate(rows):
            if len(row) == 1:
                # fsum of one block's sum returns it: a sum from zero is never -0.0
                sq_norm = 0.0
                for v in row[0][1]:
                    sq_norm += v * v
            else:
                sq_norm = math.fsum([support_dot(values, 0, values) for _, values in row])
            gain = self._gain(i, sq_norm)
            if gain <= EPS_REG:
                skipped.append((i, f"{self.skip} {gain} below {EPS_REG}"))
                continue
            rate = (y - pred[i]) / gain
            width = cols // len(row)
            offset = i * cols
            for start, values in row:
                c = offset + start
                for v in values:
                    w[c] += rate * v
                    c += 1
                offset += width
        return skipped


# Below this many columns a row folds every gain at once (see
# pending_rank). Keeping gains pending adds a fixed cost of about ten
# numpy calls per step, which the saved pass over P repays from about
# 100 columns on (the width sweep of scripts/bench.py).
WIDE_ROW = 100
# how many gains a wide row keeps before it folds them into P
WIDE_RANK = 32


def pending_rank(cols: int) -> int:
    """The number of gains a row of ``cols`` columns folds into its
    covariance at once: 1 (a rank-1 downdate every step) below
    ``WIDE_ROW`` columns, ``WIDE_RANK`` from there on."""
    return 1 if cols < WIDE_ROW else WIDE_RANK


class RlsLearner(_RowBlock):
    """Recursive least squares with exponential forgetting.

    ``alpha`` in (0, 1] is the forgetting factor; alpha = 1 recovers
    ordinary recursive least squares. Each row's covariance starts as
    ``p0 * I`` (diffuse prior). The textbook step moves the weights by
    ``P phi * error / denom`` with ``denom = alpha + phi'P phi`` and
    downdates ``P <- (P - b b') / alpha`` with ``b = P phi / sqrt(denom)``.

    Downdates are deferred. Row ``i`` keeps up to ``R =
    pending_rank(cols)`` gains pending, ``j = pending[i]`` of them, and
    its covariance is ``(P[i] - U U') / alpha^j`` for the (cols, j) block
    ``U`` of its pending gains. A step gets ``s = P phi - U(U'phi)``,
    which is ``alpha^j`` times the covariance's ``P phi``, and ``D =
    alpha^(j+1) + phi's``, which is ``alpha^j * denom``. The weights move
    by ``s * error / D``, the same move, and ``u = s / sqrt(D) =
    alpha^(j/2) b`` becomes the row's next pending gain. When the row
    holds R gains it folds them: ``P[i] -= U U'``, then ``P[i] /=
    alpha^R``. That is one pass over ``P`` per R steps, where a downdate
    every step takes two passes over ``P`` through an (m, m) temporary,
    and the correction costs O(R (L + m)) for L support columns. Narrow
    rows take R = 1 and fold every step; at j = 0 every expression above
    is the textbook one, and a rank-1 fold is ``b b'`` entry by entry,
    so narrow rows keep the textbook step's bits. The rows of a step
    share one gather and sum; rows that hold equally many pending gains
    (every row at R = 1, the one row of stacked training) take their
    correction and store as one block, others row by row.

    Each row's covariance and its pending gains sit side by side in one
    (rows, cols, cols + E) block ``A``: ``P`` is its view ``A[:, :,
    :cols]`` and gain ``t`` is column ``cols + t``, with ``E = R`` on
    rows that keep gains pending and ``E = 0`` at R = 1, where ``P`` is
    all of ``A``. ``U`` is the (rows, E, cols) view of the gain columns,
    one gain per row of it. A step gathers the support rows of ``A[:, :,
    :cols + j]`` for the most gains ``j`` its rows hold, multiplies them
    by ``phi`` and sums them, which gives ``P phi`` and ``U'phi``
    together; a row holding fewer gains does not read the sums of its
    stale columns. The sum adds the rows ``phi_c * A[c]`` over the row's
    support columns ``c`` (block offset plus start) left to right from
    zero (``P`` is symmetric, so its rows are its columns), and ``phi's``
    is a left-to-right sum too. A column where a row's regressor is zero
    adds exact zeros, which leave a left-to-right sum as it is, so each
    row gets the bits of a sum over every column. ``U(U'phi)`` runs over
    the row's own gains, so every sum of a row depends on that row's
    state only, and a batched row computes what a one-row learner
    computes.

    ``P`` stays exactly symmetric, so it is never re-symmetrized. numpy
    computes ``U U'`` with BLAS ``syrk``, which computes one triangle and
    copies it into the other, so the product is exactly symmetric. A
    single gain folds as its broadcast outer product, whose entries
    ``u_i * u_j`` and ``u_j * u_i`` are one product each, and IEEE
    multiplication commutes. Subtracting either product and dividing by
    ``alpha^R`` change ``P_ij`` and ``P_ji`` by the same bits.
    ``resize`` only adds or drops matching rows and columns, and
    ``load_row`` rejects a ``P`` that is not finite and exactly
    symmetric.

    ``row_state``, ``resize`` and ``load_row`` fold first: they read and
    write ``P`` with no gain pending, so a saved row and the live row
    continue bit for bit. A row that was never saved folds on its own
    schedule and differs from a saved twin by rounding.
    :meth:`covariance_diagonal` reads the covariance without folding.

    ``denom`` is positive while the covariance is positive definite.
    When a row's ``denom`` is not positive and finite (the covariance
    lost definiteness to rounding, or wound up to overflow), ``step``
    raises NumericalDivergence naming the row before any weight,
    covariance or pending gain moves, so the square root never turns it
    into nan.
    """

    kind = "rls"
    params = ("alpha", "p0")

    def __init__(self, weights, alpha: float = 1.0, p0: float = 1e4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if p0 <= 0.0:
            raise ValueError(f"p0 must be positive, got {p0}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self._bind_prior(*self.w.shape)

    def _bind_prior(self, rows: int, cols: int) -> None:
        """Bind a block ``A`` sized for the current width whose rows
        hold ``p0 * I`` and no pending gain."""
        self.rank = pending_rank(cols)
        width = cols + (self.rank if self.rank > 1 else 0)
        A = np.zeros((rows, cols, width))
        A.reshape(rows, -1)[:, :: width + 1] = self.p0  # the diagonals of P
        self.A = A
        self.P = A[:, :, :cols]
        self.U = A[:, :, cols:].transpose(0, 2, 1)
        self.pending = [0] * rows

    def _blocks(self, k: int) -> list:
        """The first ``k`` rows as ``(rows, pending count)`` pairs: one
        slice when they hold equally many pending gains, else one per row."""
        counts = self.pending[:k]
        j = counts[0] if counts else 0
        if counts.count(j) == k:
            return [(slice(0, k), j)]
        return [(slice(i, i + 1), j) for i, j in enumerate(counts)]

    def _fold(self, part: slice, gains: np.ndarray) -> None:
        """Fold ``gains``, a (rows, cols, g) block of gain columns, into
        the rows ``part`` of ``P``; the caller resets their pending counts."""
        P = self.P[part]
        if gains.shape[2] == 1:
            # one gain's product is its outer product, which the broadcast
            # product gives without BLAS's triangle copy
            P -= gains * gains.transpose(0, 2, 1)
        else:
            P -= np.matmul(gains, gains.transpose(0, 2, 1))
        if self.alpha != 1.0:
            P /= self.alpha ** gains.shape[2]

    def _fold_pending(self, rows: range) -> None:
        """Fold the pending gains of each of ``rows`` into ``P``."""
        cols = self.w.shape[1]
        for i in rows:
            if self.pending[i]:
                self._fold(slice(i, i + 1), self.A[i : i + 1, :, cols : cols + self.pending[i]])
                self.pending[i] = 0

    def covariance_diagonal(self) -> np.ndarray:
        """Each row's covariance diagonal, ``(diag P[i] - the sum of
        its pending gains squared) / alpha^j``, as a new (rows, cols)
        array. No gain is folded and no state moves."""
        d = self.P.diagonal(axis1=1, axis2=2).copy()
        for i, j in enumerate(self.pending):
            if j:
                U = self.U[i, :j]
                d[i] = (d[i] - np.add.reduce(U * U, axis=0)) / self.alpha ** j
        return d

    def _support(self, rows) -> tuple:
        """The rows' support columns and values as two (k, L) arrays,
        L >= 1; a row firing fewer than L columns is padded with zero
        values at its first column (0 when it fires none)."""
        cols = self.w.shape[1]
        C, V, sizes = [], [], []
        for row in rows:
            width = cols // len(row)
            offset = 0
            begin = len(V)
            for start, values in row:
                start += offset
                C += range(start, start + len(values))
                V += values
                offset += width
            sizes.append(len(V) - begin)
        longest = max(sizes, default=0) or 1
        if sizes.count(longest) != len(sizes):
            padded_C, padded_V = [], []
            end = 0
            for size in sizes:
                end += size
                pad = longest - size
                padded_C += C[end - size : end] + [C[end - size] if size else 0] * pad
                padded_V += V[end - size : end] + [0.0] * pad
            C, V = padded_C, padded_V
        return (np.array(C, dtype=np.intp).reshape(len(rows), longest),
                np.array(V).reshape(len(rows), longest))

    def _sums(self, at: np.ndarray, C: np.ndarray, V: np.ndarray, j: int) -> np.ndarray:
        """Each of the rows ``at``'s ``P phi`` and the ``U'phi`` of its
        first ``j`` gain columns side by side, a (k, cols + j) array, for
        the supports ``C``, ``V`` (see :meth:`_support`)."""
        # one gather of the support rows of P and of their gain columns; a
        # reduce over the middle axis adds whole rows in order from zero
        # (at cols = 1 with no gain pending there is one term at most)
        G = self.A[at, C, : self.w.shape[1] + j]
        G *= V[:, :, None]
        return np.add.reduce(G, axis=1, initial=0.0)

    def step(self, rows, y: float, pred=None) -> list:
        self._check(rows)
        k = len(rows)
        if pred is None:
            pred = self.predict(rows)
        error = float(y) - np.array(pred, dtype=float)
        C, V = self._support(rows)
        at = np.arange(k)[:, None]
        blocks = self._blocks(k)
        cols = self.w.shape[1]
        sums = self._sums(at, C, V, max(self.pending[:k], default=0))
        s = sums[:, :cols]
        for part, j in blocks:
            if j:
                # less the pending gains' share U(U'phi)
                s[part] -= np.matmul(self.A[part, :, cols : cols + j],
                                     sums[part, cols : cols + j, None])[:, :, 0]
        scale = (self.alpha ** (blocks[0][1] + 1) if len(blocks) == 1
                 else np.array([self.alpha ** (j + 1) for j in self.pending[:k]]))
        D = np.add.accumulate(V * s[at, C], axis=1)[:, -1] + scale
        for i, d in enumerate(D.tolist()):
            if not 0.0 < d < math.inf:
                denom = d / self.alpha ** self.pending[i]
                raise NumericalDivergence(
                    f"RLS row {i}: alpha + phi'P phi = {denom} is not positive and finite")
        self.w[:k] += s * (error / D)[:, None]
        u = s / np.sqrt(D)[:, None]
        if self.rank == 1:
            # each gain folds alone: the rank-1 downdate b b'
            self._fold(slice(0, k), u[:, :, None])
            return []
        for part, j in blocks:
            self.A[part, :, cols + j] = u[part]
            if j + 1 == self.rank:
                self._fold(part, self.A[part, :, cols:])
            self.pending[part] = [(j + 1) % self.rank] * len(u[part])
        return []

    def resize(self, rows: int, cols: int) -> None:
        self._fold_pending(range(len(self.w)))
        P = self.P
        super().resize(rows, cols)
        self._bind_prior(rows, cols)
        _resized(P, self.P)

    def row_state(self, i: int) -> dict:
        self._fold_pending(range(i, i + 1))
        return {**super().row_state(i), "P": self.P[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        """Restore row ``i``; its pending gains are dropped, as a fold
        before the new covariance overwrites it would leave them."""
        P = np.asarray(state["P"], dtype=float)
        cols = self.w.shape[1]
        if P.shape != (cols, cols):
            raise DimensionMismatch(f"covariance must have shape ({cols}, {cols}), got {P.shape}")
        if not (np.isfinite(P).all() and np.array_equal(P, P.T)):
            # every saved P is symmetric (see the class docstring)
            raise DimensionMismatch("covariance must be finite and exactly symmetric")
        super().load_row(i, state)
        self.P[i] = P
        self.pending[i] = 0


class KwhLearner(_Projection):
    """Normalized gradient step: project onto the newest sample's hyperplane."""

    kind = "kwh"
    skip = "ZeroRegressor: squared regressor norm"

    def _gain(self, i: int, sq_norm: float) -> float:
        return sq_norm

    def step(self, rows, y: float, pred=None) -> list:
        return self._project(rows, y, pred)


class AdaptiveLearner(_Projection):
    """Projection with a leaky accumulator gain per row.

    The gain update runs first: r <- alpha * r + |phi|^2, and the new r
    divides the innovation. With alpha = 0 every step reduces to the
    normalized projection; from r = 0 (where every row starts) the first
    step does too, whatever alpha is. Larger alpha smooths the gain and
    filters noise at the cost of slower tracking.
    """

    kind = "adaptive"
    params = ("alpha",)
    skip = "ZeroGain: gain accumulator"

    def __init__(self, weights, alpha: float = 0.9) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self._bind_r(np.zeros(len(self.w)))

    def _bind_r(self, r: np.ndarray) -> None:
        self.r = r
        self._r = memoryview(r)  # items as Python floats

    def _gain(self, i: int, sq_norm: float) -> float:
        r = self._r
        r[i] = gain = self.alpha * r[i] + sq_norm
        return gain

    def step(self, rows, y: float, pred=None) -> list:
        return self._project(rows, y, pred)

    def resize(self, rows: int, cols: int) -> None:
        super().resize(rows, cols)
        self._bind_r(_resized(self.r, np.zeros(rows)))

    def row_state(self, i: int) -> dict:
        return {**self.settings(), "r": float(self.r[i]), "w": self.w[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        r = float(state["r"])
        super().load_row(i, state)
        self.r[i] = r


LEARNERS = {cls.kind: cls for cls in (RlsLearner, KwhLearner, AdaptiveLearner)}


def make_learner(kind: str, weights, alpha: float = 1.0, p0: float = 1e4):
    """Build a learner over the (rows, cols) block ``weights``, which
    every step updates in place; each kind takes the settings it uses."""
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}")
    cls = LEARNERS[kind]
    given = {"alpha": alpha, "p0": p0}
    return cls(weights, **{name: given[name] for name in cls.params})
