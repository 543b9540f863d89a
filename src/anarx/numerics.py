"""Summation order of the streaming math, and its bit contract.

A neo-fuzzy node's B-spline memberships have compact support: a value
fires only q of a grid's h functions, so the step works on supports. A
support is ``(start, values)``: the first fired column and the fired
membership values as Python floats, zero everywhere else. B-spline
supports hold q values; a Wang-Mendel support holds all h, from column 0.

Every sum over one support runs left to right from zero on Python floats
(:func:`support_dot`): a node forecast, and in independent training a
learner row's squared norm. A Python float operation is the IEEE
binary64 operation numpy applies per element, so with two fired values
(q = 2, every shipped config) the result is bit for bit numpy's pairwise
sum over the dense h-wide row: each partial sum of a row with two
nonzero terms a and b is 0, a, b or a + b, whatever the order. For
q >= 3 and for Wang-Mendel the left-to-right order is the contract.

A row that spans several supports (the one row of stacked training)
reduces its dense row, the supports scattered into zeros (:func:`dense`),
with numpy's pairwise sum over the contiguous row: its prediction and
its squared norm. That sum depends only on the values and the row
length, not on pointer alignment as BLAS dot/gemv kernels do, so a
reallocated weight block predicts the same bits. RLS sums ``P phi`` and
``phi'P phi`` left to right over the support columns.

The combiner's sums over the n node forecasts use ``math.fsum`` of the
same products (correctly rounded, so a zero-weight node joining moves
nothing), and every expression keeps its operand order.
"""

from __future__ import annotations

import math

import numpy as np

# Guard for data-dependent divisors (squared norms, scalar gains,
# step-size denominators).
EPS_REG = 1e-12


def support_dot(w, start: int, values) -> float:
    """``w[start + j] * values[j]`` summed over j, left to right from zero."""
    acc = 0.0
    for v in values:
        acc += w[start] * v
        start += 1
    return acc


def dense(blocks, cols: int) -> np.ndarray:
    """The row of ``cols`` columns that ``len(blocks)`` equal-width blocks
    make, each given by its support ``(start, values)``."""
    row = np.zeros(cols)
    items = memoryview(row)  # a few item writes beat a slice from a list
    width = cols // len(blocks)
    offset = 0
    for start, values in blocks:
        c = offset + start
        for v in values:
            items[c] = v
            c += 1
        offset += width
    return row


def exact_sum(values) -> float:
    """Correctly rounded sum; invariant to appending zero terms.

    Aggregations over the node pool must not move by an ulp when a
    zero-weight node joins, which pairwise summation does not guarantee
    (its association depends on the length).
    """
    return math.fsum(values)
