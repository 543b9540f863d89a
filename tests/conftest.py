"""Shared independent oracles and planted-data builders.

Everything here is deliberately written without calling the package's
own evaluation paths, so tests compare two separately coded routes. The
two adapters between the dense and the support form (:func:`basis`,
:func:`supports`) are the exception: they only move values around.
"""

import contextlib
import csv
import math
import os

import numpy as np
import pytest

from anarx import KnotGrid, NeoFuzzyNode, eval_bspline, learning
from anarx.errors import EmptySeries, ParseError
from anarx.pipeline import SeriesFrame


def reference_load_csv(path, column=None):
    """``load_csv`` one cell at a time: every row with a cell other than
    whitespace is kept with its file line (the reader's ``line_num``
    after the row), and the rows are parsed in order, the first bad one
    raising."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptySeries(f"{path}: no data rows")
    first = rows[0][1]

    start = 0
    if isinstance(column, str):
        header = [cell.strip() for cell in first]
        if column not in header:
            raise ParseError(f"{path}: column {column!r} not found in header {header}")
        idx = header.index(column)
        start = 1
        name, label = column, repr(column)
    else:
        idx = 0 if column is None else int(column)
        name, label = None, idx
        try:
            float(first[idx])
        except (ValueError, IndexError):
            header = [cell.strip() for cell in first]
            name = header[idx] if -len(header) <= idx < len(header) else None
            start = 1

    values = []
    for line, row in rows[start:]:
        if not -len(row) <= idx < len(row):
            raise ParseError(f"{path}: row {line} has no column {label}")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell {cell!r} at row {line}") from None
        if not math.isfinite(v):
            raise ParseError(f"{path}: non-finite value at row {line}")
        values.append(v)
    if len(values) < 2:
        raise EmptySeries(f"{path}: fewer than 2 data rows")
    return SeriesFrame(np.asarray(values), name=name or os.path.splitext(os.path.basename(str(path)))[0])


def naive_bspline(x, k, i, t):
    """Textbook two-term recursion for one basis function.

    ``k`` is the degree (order - 1); 0/0 terms drop out. Matches the
    half-open convention except at the right boundary, which callers
    handle by nudging x.
    """
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * naive_bspline(x, k - 1, i, t)
    c2 = 0.0
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * naive_bspline(x, k - 1, i + 1, t)
    return c1 + c2


def naive_basis_vector(grid, u):
    """All h basis values through the naive recursion."""
    u = min(max(u, grid.lo), grid.hi)
    if u == grid.hi:
        # left-limit convention at the right boundary
        u = grid.hi - 1e-12 * max(1.0, abs(grid.hi))
    t = grid.knots
    return np.array([naive_bspline(u, grid.q - 1, i, t) for i in range(grid.h)])


def basis(grid, u):
    """All h basis values at ``u``: ``eval_bspline``'s support scattered
    into a zero row."""
    start, values = eval_bspline(grid, u)
    out = np.zeros(grid.h)
    out[start : start + len(values)] = values
    return out


def supports(Phi):
    """Learner rows for a dense (k, cols) regressor block: each row is one
    block, its support running from its first to its last nonzero column
    (empty for a zero row)."""
    rows = []
    for phi in np.asarray(Phi, dtype=float):
        nz = np.flatnonzero(phi)
        start, stop = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        rows.append([(start, phi[start:stop].tolist())])
    return rows


@contextlib.contextmanager
def fold_rank(rank):
    """Every RLS learner built inside keeps up to ``rank`` gains pending
    before it folds; at rank 1 each step folds its gain, the textbook
    rank-1 downdate bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "FOLD_RANK", rank)
        yield


def triangular_hats(peaks, u):
    """Independent closed-form evaluator for order-2 (hat) bases."""
    peaks = np.asarray(peaks, dtype=float)
    u = min(max(u, peaks[0]), peaks[-1])
    out = np.zeros(peaks.size)
    for i, p in enumerate(peaks):
        if i > 0 and peaks[i - 1] <= u <= p:
            out[i] = (u - peaks[i - 1]) / (p - peaks[i - 1])
        elif i + 1 < peaks.size and p <= u <= peaks[i + 1]:
            out[i] = max(out[i], (peaks[i + 1] - u) / (peaks[i + 1] - p))
        elif u == p:
            out[i] = 1.0
    return out


def ols_fit(X, y, ridge=0.0):
    """Normal-equations least squares, the reference for RLS."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    G = X.T @ X + ridge * np.eye(X.shape[1])
    return np.linalg.solve(G, X.T @ y)


def batch_optimum(R):
    """Closed-form minimizer of c'Rc over sum(c) = 1, the reference for
    the online combiner: ``c = R^-1 1 / s`` with ``s = 1'R^-1 1``, and
    the multiplier ``lam = -2 / s`` of the stationarity condition
    2Rc + lam 1 = 0. The optimum's value c'Rc is 1 / s."""
    x = np.linalg.solve(np.asarray(R, dtype=float), np.ones(len(R)))
    s = float(x.sum())
    return x / s, -2.0 / s


def assert_one_weight_block(model):
    """The pool's invariant: ``W`` is the learner's weight block seen as
    one row per node, and the model output is the ``fsum`` of standalone
    nodes on those rows, each fed the value its lag observed."""
    assert np.shares_memory(model.W, model.learner.w)
    assert model.W.shape == (model.n, model.node.dim)
    node = type(model.node)
    observed = min(model.n, len(model.delay_y))
    assert model.forward() == math.fsum(
        node(model.node.grid, model.W[l]).forward(model.delay_y[l]) for l in range(observed))


def unpacked(triangle) -> list:
    """The whole symmetric matrix, as lists, of the upper triangle an
    RLS row state holds (``learning.packed``)."""
    m = int(round((math.sqrt(8 * len(triangle) + 1) - 1) / 2))
    P = np.zeros((m, m))
    P[np.triu_indices(m)] = triangle
    return (P + np.triu(P, 1).T).tolist()


# one h = 4 synapse per lag node
PLANTED_W = {
    1: np.array([0.01, 0.985, 0.4975, 0.01]),
    2: np.array([0.001, 0.006, 0.001, 0.004]),
}


def planted_nodes():
    grid = KnotGrid(0.0, 1.0, 4, 2)
    return NeoFuzzyNode(grid, PLANTED_W[1]), NeoFuzzyNode(grid, PLANTED_W[2])


def planted_nar_series(length):
    """Chaotic realization of the planted two-node pool, NAR wiring.

    Seeded with exact 0.0 and 1.0 so a min-max fit over any training
    prefix that includes them is the identity and the fresh model's grid
    coincides with the planted one.
    """
    n1, n2 = planted_nodes()
    values = [0.0, 1.0]
    for _ in range(length - 2):
        y = n1.forward(values[-1]) + n2.forward(values[-2])
        values.append(y)
    arr = np.asarray(values)
    assert arr[2:].min() > 0.0 and arr[2:].max() < 1.0
    return SeriesFrame(arr, name="planted_nar")


@pytest.fixture(scope="session")
def planted_series():
    return planted_nar_series(6000)
