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
fresh state. ``state_dict()`` and ``load_state(state)`` save and restore
the whole block's numbers, not the learner's settings, each as a list
of rows. A save moves no state, and a loaded learner continues bit for
bit as the saved one. The static ``check_state(state, shape)`` checks
the lengths of a saved block's rows before a learner is built for it.

* :class:`RlsLearner` - exponentially weighted recursive least squares.
* :class:`KwhLearner` - normalized one-step projection; the a-posteriori
  residual on the incoming sample is exactly zero.
* :class:`AdaptiveLearner` - projection with a leaky scalar gain
  accumulator, trading filtering against tracking through ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (CorruptSnapshot, DimensionMismatch, NumericalDivergence, read_count,
                     read_floats)
from .numerics import EPS_REG, support_dot


def packed(P: np.ndarray) -> np.ndarray:
    """The upper triangle of the square ``P``, or of each square of a
    stack, row by row: each entry of a symmetric ``P`` once, as a saved
    RLS row holds its covariance."""
    return P[(..., *np.triu_indices(P.shape[-1]))]


def _check_rows(rows, what: str, shape: tuple) -> None:
    """Raise unless the saved list of rows ``rows`` is ``shape[0]`` lists
    of ``shape[1]`` items: CorruptSnapshot (:func:`read_floats`) if a row
    is not a list of numbers, DimensionMismatch otherwise. The rows are
    read only when their lengths differ, so a saved block is checked
    against a shape before anything of that shape is built."""
    if len(rows) != shape[0] or any(type(row) is not list or len(row) != shape[1] for row in rows):
        for i, row in enumerate(rows):
            read_floats(row, f"row {i} {what}")
        raise DimensionMismatch(f"{what} must be {shape[0]} rows of {shape[1]} numbers")


def _read_block(rows, what: str, shape: tuple) -> np.ndarray:
    """The saved list of rows ``rows`` as an array of ``shape``, each row
    read by :func:`read_floats`. Raises as :func:`_check_rows` for
    another shape."""
    _check_rows(rows, what, shape)
    return np.array([read_floats(row, f"row {i} {what}") for i, row in enumerate(rows)])


def _resized(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Copy the overlapping corner of ``old`` into ``new``; return ``new``."""
    corner = tuple(slice(min(a, b)) for a, b in zip(old.shape, new.shape))
    new[corner] = old[corner]
    return new


class _RowBlock:
    """The weight block the learners share, and its bookkeeping.

    ``params`` names the constructor settings a learner kind takes
    besides the weights. A saved block holds its numbers only; the model
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

    def state_dict(self) -> dict:
        return {"w": self.w.tolist()}

    @staticmethod
    def check_state(state: dict, shape: tuple) -> None:
        """Raise unless the rows of the saved block ``state`` have the
        lengths that a learner of this kind and ``shape`` saves. Only
        lengths are compared, so the model calls it before it builds the
        learner. A projection learner saves its weights, whose shape the
        model checks, and at most one gain per row: nothing to check."""

    def load_state(self, state: dict) -> None:
        """Restore the block from :meth:`state_dict` output of a learner
        of this kind, these settings and this shape."""
        self.w[:] = _read_block(state["w"], "weights", self.w.shape)


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
    rows and columns, and ``load_state`` writes the saved upper triangle
    into both triangles.

    ``resize`` folds every row first. :meth:`state_dict` and
    :meth:`covariance_diagonal` read ``P`` and the pending gains as they
    are, and ``load_state`` writes both back, so a save moves nothing
    and a loaded learner continues bit for bit as the live one.

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

    def state_dict(self) -> dict:
        """The weights, each row's covariance :func:`packed`, each row's
        pending gains ``U`` one after another, and their one count. No
        gain is folded: ``P`` stays exactly symmetric while gains are
        pending, so its triangle holds all of it."""
        j = self.pending
        return {**super().state_dict(), "P": packed(self.P).tolist(),
                "U": self.U[:, :j].reshape(len(self.w), -1).tolist(), "pending": j}

    @staticmethod
    def check_state(state: dict, shape: tuple) -> int:
        """The pending gain count of the saved block ``state`` of a (rows,
        cols) learner. Raises CorruptSnapshot for a count at or above
        ``FOLD_RANK``, and as :func:`_check_rows` unless the packed ``P``
        and the gains ``U`` are rows of the lengths that shape saves. The
        model calls it before it builds the learner, whose block ``A`` is
        quadratic in cols, so a forged weight width beside a short ``P``
        allocates nothing."""
        rows, cols = shape
        j = read_count(state["pending"], "pending gain count", 0)
        if j >= FOLD_RANK:
            raise CorruptSnapshot(f"pending gain count {j} is not below {FOLD_RANK}")
        _check_rows(state["P"], "covariance", (rows, cols * (cols + 1) // 2))
        _check_rows(state["U"], "pending gains", (rows, j * cols))
        return j

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output: each saved triangle goes into
        both triangles of its row's ``P``, and the pending gains beside
        it. A state that :meth:`check_state` rejects raises."""
        rows, cols = self.w.shape
        j = self.check_state(state, self.w.shape)
        upper = np.triu_indices(cols)
        P = _read_block(state["P"], "covariance", (rows, len(upper[0])))
        U = _read_block(state["U"], "pending gains", (rows, j * cols))
        super().load_state(state)
        self.P[(..., *upper)] = P
        self.P[(..., *upper[::-1])] = P
        self.U[:, :j] = U.reshape(rows, j, cols)
        self.pending = j


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

    def state_dict(self) -> dict:
        return {**super().state_dict(), "r": self.r.tolist()}

    def load_state(self, state: dict) -> None:
        r = read_floats(state["r"], "gains")
        if len(r) != len(self.r):
            raise DimensionMismatch(f"{len(r)} gains for {len(self.r)} learner rows")
        if min(r) < 0.0:
            raise ValueError(f"gain {min(r)} must be nonnegative")
        super().load_state(state)
        self.r[:] = r


LEARNERS = {cls.kind: cls for cls in (RlsLearner, KwhLearner, AdaptiveLearner)}


def learner_class(kind: str) -> type:
    """The learner class of ``kind``; ValueError for an unknown kind."""
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}")
    return LEARNERS[kind]


def make_learner(kind: str, weights, alpha: float = 1.0, p0: float = 1e4):
    """Build a learner over the (rows, cols) block ``weights``, which
    every step updates in place; each kind takes the settings it uses."""
    cls = learner_class(kind)
    given = {"alpha": alpha, "p0": p0}
    return cls(weights, **{name: given[name] for name in cls.params})
