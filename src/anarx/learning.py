"""Recursive estimators for linear-in-parameter models, batched by row.

Each learner owns a 2-d weight block ``w`` of shape (rows, cols) and fits
every row as its own linear model against a shared target.
``step(rows, y, pred=None)`` takes one regressor per row for the first
``k = len(rows) <= rows`` rows, predicts each with the row's current
weights (:meth:`predict`), and updates those rows in place; rows
``[k:]`` keep their weights and their state (RLS folds their pending
gains into their covariance, see :class:`RlsLearner`). A caller that already holds
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
computes bit for bit what a one-row learner computes on the same inputs
(an RLS row on a step of every row, see :class:`RlsLearner`), and KWH
and the adaptive learner add ``error / gain * value`` to each fired
weight, the bits a dense update gives it.

``walk(rows, y, pred)`` is each learner's one update loop, and the
step the model takes: ``rows`` is any iterable of regressors, built from
the model's own supports, walked once, and the shapes are not checked.
``step`` is :meth:`_check`, then :meth:`predict` when no ``pred`` is
given, then ``walk``.

``step`` never rebinds ``w`` or the per-row state, so a caller holding
views of them sees every update. ``resize(rows, cols)`` reallocates: it
keeps the overlapping block and gives new coordinates zero weight and
fresh state. ``row_state(i)`` and ``load_row(i, state)`` save and
restore one row's numbers, not the learner's settings (RLS first folds
every row's pending gains into its covariance, see :class:`RlsLearner`).

* :class:`RlsLearner` - exponentially weighted recursive least squares.
* :class:`KwhLearner` - normalized one-step projection; the a-posteriori
  residual on the incoming sample is exactly zero.
* :class:`AdaptiveLearner` - projection with a leaky scalar gain
  accumulator, trading filtering against tracking through ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NumericalDivergence, read_float, read_floats
from .numerics import EPS_REG, support_dot


def packed(P: np.ndarray) -> np.ndarray:
    """The upper triangle of the square ``P``, row by row: each entry of
    a symmetric ``P`` once, as a saved RLS row holds its covariance."""
    return P[np.triu_indices(len(P))]


def _resized(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Copy the overlapping corner of ``old`` into ``new``; return ``new``."""
    corner = tuple(slice(min(a, b)) for a, b in zip(old.shape, new.shape))
    new[corner] = old[corner]
    return new


class _RowBlock:
    """The weight block the learners share, and its bookkeeping.

    ``params`` names the constructor settings a learner kind takes
    besides the weights. A saved row holds its numbers only; the model
    that builds the learner saves the settings once.
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

    def _step(self, rows, y: float, pred) -> list:
        """The public ``step``: the shapes checked, the rows predicted when
        ``pred`` is None, then :meth:`walk`."""
        self._check(rows)
        return self.walk(rows, float(y), self.predict(rows) if pred is None else pred)

    def resize(self, rows: int, cols: int) -> None:
        self._bind(_resized(self.w, np.zeros((rows, cols))))

    def row_state(self, i: int) -> dict:
        return {"w": self.w[i].tolist()}

    def load_row(self, i: int, state: dict) -> None:
        """Restore row ``i`` from :meth:`row_state` output of a learner
        of this kind and these settings."""
        w = np.array(read_floats(state["w"], f"row {i} weights"))
        if w.shape != self.w.shape[1:]:
            raise DimensionMismatch(
                f"row {i} has weights of shape {w.shape}, the learner needs {self.w.shape[1:]}"
            )
        self.w[i] = w


class _Projection(_RowBlock):
    """KWH and the adaptive learner: each row moves along its regressor
    by ``error / gain``, where the gain is the squared norm, or for the
    adaptive learner its gain ``r`` after ``r <- alpha * r +`` the
    squared norm; a row whose gain is at or below ``EPS_REG`` is skipped
    with ``skip`` at the head of its reason.

    :meth:`walk` is the one loop: it takes each row once, its squared
    norm, summed as :meth:`predict` sums the prediction (left to right
    from zero over one block, ``math.fsum`` of the block sums over
    several), its gain, its error against ``pred`` and the update of its
    fired weights.
    """

    _r = None  # the adaptive learner's gains; KWH keeps none

    def walk(self, rows, y: float, pred) -> list:
        """Add ``error / gain * value`` to each fired weight of each row of
        the iterable ``rows`` whose gain is above ``EPS_REG``; return the
        others as ``(row, reason)``. Nothing is checked: the rows are
        shaped as ``step`` checks them, and ``y`` is a float."""
        w, r = self._flat, self._r
        cols = self.w.shape[1]
        skipped = []
        for i, row in enumerate(rows):
            if len(row) == 1:
                # fsum of one block's sum returns it: a sum from zero is never -0.0
                gain = 0.0
                for v in row[0][1]:
                    gain += v * v
            else:
                gain = math.fsum([support_dot(values, 0, values) for _, values in row])
            if r is not None:
                r[i] = gain = self.alpha * r[i] + gain
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


# how many gains every row keeps pending before all rows fold them into
# P at once (see RlsLearner)
FOLD_RANK = 32


class RlsLearner(_RowBlock):
    """Recursive least squares with exponential forgetting.

    ``alpha`` in (0, 1] is the forgetting factor; alpha = 1 recovers
    ordinary recursive least squares. Each row's covariance starts as
    ``p0 * I`` (diffuse prior). The textbook step moves the weights by
    ``P phi * error / denom`` with ``denom = alpha + phi'P phi`` and
    downdates ``P <- (P - b b') / alpha`` with ``b = P phi / sqrt(denom)``.

    Downdates are deferred, on one schedule for every width and every
    row count. The rows share one count, ``j = pending`` gains held, up
    to ``R = FOLD_RANK``, and row ``i``'s covariance is ``(P[i] - U U') /
    alpha^j`` for the (cols, j) block ``U`` of its pending gains. A step
    gets ``s = P phi - U(U'phi)``, which is ``alpha^j`` times the
    covariance's ``P phi``, and ``D = alpha^(j+1) + phi's``, which is
    ``alpha^j * denom``. The weights move by ``s * error / D``, the same
    move, and ``u = s / sqrt(D) = alpha^(j/2) b`` becomes the row's next
    pending gain. When the rows hold R gains, every row folds them: ``P
    -= U U'``, then ``P /= alpha^R``. That is one pass over ``P`` per R
    steps, where a downdate every step takes two passes over ``P``
    through an (m, m) temporary, and the correction costs O(R (L + m))
    for L support columns. At R = 1 every expression above is the
    textbook one, and the fold ``u u'`` is one product per entry, so the
    step keeps the textbook step's bits.

    One path serves one row and k rows alike: the rows of a step share
    one gather and sum, one correction product and one gain store. The
    per-row scalars ``phi's``, ``D``, ``error / D`` and ``sqrt(D)`` are
    Python floats, formed in one loop over the rows, and one (k, 2)
    array of the last two moves the weights (``s * (error / D)``) and
    forms the gains (``s / sqrt(D)``, a division: ``s * (1 / sqrt(D))``
    rounds differently).

    A step of k < rows rows happens only while lags are observed for the
    first time after construction or a resize (the model's first step
    has none). Such a warm-up step ends by folding every row, rows
    ``[:k]`` their j + 1 gains and rows ``[k:]`` their j, so the rows
    keep one count. On a step of all rows, each row computes bit for bit
    what a one-row learner holding the same count computes; after a
    warm-up step each row holds what that learner holds once it folds.

    Each row's covariance and its gains sit side by side in one (rows,
    cols, cols + R) block ``A``: ``P`` is its view ``A[:, :, :cols]`` and
    gain ``t`` is column ``cols + t``. ``U`` is the (rows, R, cols) view
    of the gain columns, one gain per row of it, and ``_A2`` is the (rows
    * cols, cols + R) view of ``A`` that holds its rows one after another,
    so row ``i``'s column ``c`` is row ``i * cols + c`` of ``_A2``. A step
    gathers the support rows of ``_A2[:, :cols + j]`` with one index,
    multiplies them by ``phi`` and sums them, which gives ``P phi`` and
    ``U'phi`` together. The sum adds the rows ``phi_c * A[c]`` over the
    row's support columns ``c`` (block offset plus start) left to right
    from zero (``P`` is symmetric, so its rows are its columns), and
    ``phi's`` is a left-to-right sum from zero too, to which
    ``alpha^(j+1)`` is added. A column where a row's regressor is zero
    adds exact zeros, which leave a left-to-right sum as it is, so each
    row gets the bits of a sum over every column. ``U(U'phi)`` runs over
    the row's own gains, so every sum of a row depends on that row's
    state only.

    ``P`` stays exactly symmetric, so it is never re-symmetrized. numpy
    computes ``U U'`` with BLAS ``syrk``, which computes one triangle and
    copies it into the other, so the product is exactly symmetric.
    Subtracting it and dividing by a power of ``alpha`` change ``P_ij``
    and ``P_ji`` by the same bits. ``resize`` only adds or drops matching
    rows and columns, and ``load_row`` writes the saved upper triangle
    into both triangles.

    ``row_state``, ``resize`` and ``load_row`` fold every row first: they
    read and write ``P`` with no gain pending, so a saved learner and the
    live one continue bit for bit. :meth:`covariance_diagonal` reads the
    covariance without folding.

    ``denom`` is positive while the covariance is positive definite.
    When a row's ``denom`` is not positive and finite (the covariance
    lost definiteness to rounding, or wound up to overflow), the step
    raises NumericalDivergence naming the row before any weight,
    covariance or pending gain moves, so the square root never turns it
    into nan.
    """

    kind = "rls"
    params = ("alpha", "p0")

    def __init__(self, weights, alpha: float = 1.0, p0: float = 1e4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < p0 < math.inf:
            raise ValueError(f"p0 must be positive and finite, got {p0}")
        super().__init__(weights)
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self._bind_prior(*self.w.shape)

    def _bind_prior(self, rows: int, cols: int) -> None:
        """Bind a block ``A`` sized for the current width whose rows
        hold ``p0 * I`` and no pending gain."""
        width = cols + FOLD_RANK
        A = np.zeros((rows, cols, width))
        A.reshape(rows, -1)[:, :: width + 1] = self.p0  # the diagonals of P
        self.A = A
        self._A2 = A.reshape(rows * cols, width)
        self.P = A[:, :, :cols]
        self.U = A[:, :, cols:].transpose(0, 2, 1)
        self.pending = 0

    def _fold(self, part: slice, g: int) -> None:
        """Fold the first ``g`` gains of the rows ``part`` into ``P``."""
        if g:
            cols = self.w.shape[1]
            gains = self.A[part, :, cols : cols + g]
            P = self.P[part]
            P -= np.matmul(gains, gains.transpose(0, 2, 1))
            if self.alpha != 1.0:
                P /= self.alpha ** g

    def _fold_pending(self) -> None:
        """Fold every row's pending gains into ``P``."""
        self._fold(slice(None), self.pending)
        self.pending = 0

    def covariance_diagonal(self) -> np.ndarray:
        """Each row's covariance diagonal, ``(diag P[i] - the sum of
        its pending gains squared) / alpha^j``, as a new (rows, cols)
        array. No gain is folded and no state moves."""
        U = self.U[:, : self.pending]
        return ((self.P.diagonal(axis1=1, axis2=2) - np.add.reduce(U * U, axis=1))
                / self.alpha ** self.pending)

    def _support(self, rows) -> tuple:
        """The rows' support columns and values as two (k, L) arrays,
        L >= 1. A column is a row of the 2-d view ``_A2`` of ``A``: row
        ``i``'s column ``c`` is ``i * cols + c``. A row firing fewer than L
        columns is padded with zero values at its first column (column 0
        when it fires none)."""
        cols = self.w.shape[1]
        C, V, sizes = [], [], []
        for i, row in enumerate(rows):
            width = cols // len(row)
            offset = i * cols
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
            for i, size in enumerate(sizes):
                end += size
                pad = longest - size
                padded_C += C[end - size : end] + [C[end - size] if size else i * cols] * pad
                padded_V += V[end - size : end] + [0.0] * pad
            C, V = padded_C, padded_V
        return (np.array(C, dtype=np.intp).reshape(len(sizes), longest),
                np.array(V).reshape(len(sizes), longest))

    def _gather(self, C: np.ndarray, V: np.ndarray, j: int) -> np.ndarray:
        """Each row's ``P phi`` and the ``U'phi`` of its first ``j`` gain
        columns side by side, a (k, cols + j) array, for the supports
        ``C``, ``V`` (see :meth:`_support`)."""
        # one gather of the support rows of P and of their gain columns; a
        # reduce over the middle axis adds whole rows in order from zero
        # (at cols = 1 with no gain pending there is one term at most)
        G = self._A2[C, : self.w.shape[1] + j]
        G *= V[:, :, None]
        return np.add.reduce(G, axis=1, initial=0.0)

    def walk(self, rows, y: float, pred) -> list:
        """Update the rows of the iterable ``rows``, which :meth:`_support`
        walks once, against their predictions ``pred``. Nothing is
        checked: the rows are shaped as ``step`` checks them, and ``y`` is
        a float."""
        cols = self.w.shape[1]
        j = self.pending
        C, V = self._support(rows)
        k = len(C)
        sums = self._gather(C, V, j)
        s = sums[:, :cols]
        # less the pending gains' share U(U'phi), which at j = 0 is +0.0
        # and so moves no bit
        s -= np.matmul(self.A[:k, :, cols : cols + j], sums[:, cols:, None])[:, :, 0]
        # D, the rate and sqrt(D) of each row on Python floats
        base = self.alpha ** (j + 1)  # D is alpha^(j+1) + phi's
        scalars = []
        for i, (values, s_at) in enumerate(zip(V.tolist(), s.ravel()[C].tolist())):
            d = 0.0
            for v, x in zip(values, s_at):
                d += v * x
            d += base
            if not 0.0 < d < math.inf:
                raise NumericalDivergence(f"RLS row {i}: alpha + phi'P phi = "
                                          f"{d / self.alpha ** j} is not positive and finite")
            scalars += ((y - pred[i]) / d, math.sqrt(d))
        f = np.array(scalars).reshape(k, 2)
        self.w[:k] += s * f[:, :1]
        self.A[:k, :, cols + j] = s / f[:, 1:]
        self.pending = j + 1
        if k < len(self.w):
            # a warm-up step: rows [k:] took no gain, and every row folds
            # so that the rows keep one count
            self._fold(slice(k), j + 1)
            self._fold(slice(k, None), j)
            self.pending = 0
        elif self.pending == FOLD_RANK:
            self._fold_pending()
        return []

    def step(self, rows, y: float, pred=None) -> list:
        return self._step(rows, y, pred)

    def resize(self, rows: int, cols: int) -> None:
        self._fold_pending()
        P = self.P
        super().resize(rows, cols)
        self._bind_prior(rows, cols)
        _resized(P, self.P)

    def row_state(self, i: int) -> dict:
        """Row ``i``'s weights and its covariance :func:`packed`. Every
        row folds its pending gains first, off the ``FOLD_RANK`` schedule,
        which rounds differently from the fold the schedule would have
        made: the live learner and its saved copy go on bit for bit
        alike, but not as a learner that was never saved."""
        self._fold_pending()
        return {**super().row_state(i), "P": packed(self.P[i]).tolist()}

    def load_row(self, i: int, state: dict) -> None:
        """Restore row ``i``: every row folds its pending gains, then row
        ``i``'s weights and covariance are overwritten, the saved
        triangle (see :func:`packed`) going into both triangles of ``P``."""
        saved = np.array(read_floats(state["P"], f"row {i} covariance"))
        upper = np.triu_indices(self.w.shape[1])
        if len(saved) != len(upper[0]):
            raise DimensionMismatch(f"covariance must be the {len(upper[0])} entries of a packed "
                                    f"triangle, got {len(saved)}")
        super().load_row(i, state)
        self._fold_pending()
        self.P[i][upper] = saved
        self.P[i][upper[::-1]] = saved


class KwhLearner(_Projection):
    """Normalized gradient step: project onto the newest sample's hyperplane."""

    kind = "kwh"
    skip = "ZeroRegressor: squared regressor norm"

    def step(self, rows, y: float, pred=None) -> list:
        return self._step(rows, y, pred)


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

    def step(self, rows, y: float, pred=None) -> list:
        return self._step(rows, y, pred)

    def resize(self, rows: int, cols: int) -> None:
        super().resize(rows, cols)
        self._bind_r(_resized(self.r, np.zeros(rows)))

    def row_state(self, i: int) -> dict:
        return {**super().row_state(i), "r": float(self.r[i])}

    def load_row(self, i: int, state: dict) -> None:
        r = read_float(state["r"], f"row {i} gain")
        if r < 0.0:
            raise ValueError(f"row {i} has gain {r}, which must be nonnegative")
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
