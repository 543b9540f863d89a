"""Summation order of the streaming math, and its bit contract.

A neo-fuzzy node's B-spline memberships have compact support: a value
fires only q of a grid's h functions, so the step works on supports. A
support is ``(start, values)``: the first fired column and the fired
membership values as Python floats, zero everywhere else. A B-spline
support holds q values, and an unseen lag's support ``(0, ())`` none.

There is one summation order. Every sum over one support runs left to
right from zero on Python floats (:func:`support_dot`): a node forecast,
and the share of a learner row's prediction and squared norm that one
block holds. A sum over several supports, the model output over its
node forecasts and a learner row over its blocks (the one row of stacked
training), adds their support sums with ``math.fsum``. That sum is
correctly rounded, so it does not depend on the number of terms or
their order, and a zero-weight node that joins the pool moves no bit of
it. A row of one block is its support sum as it is: ``fsum`` of one
term returns that term, except that it turns -0.0 into 0.0, and a sum
from zero never is -0.0. The stacked row's prediction is therefore the
model output, bit for bit.

A Python float operation is the IEEE binary64 operation numpy applies
per element, so with two fired values (q = 2, every shipped config) a
support sum is bit for bit numpy's pairwise sum over the dense h-wide
row: each partial sum of a row with two nonzero terms a and b is 0, a,
b or a + b, whatever the order.

RLS gathers the support rows of its covariance and pending gains with
one index and sums ``P phi`` and ``U'phi`` in one reduce, from zero,
left to right over the support columns of the whole row. ``phi'P phi``
and the step's other per-row scalars are Python floats, and
``phi'P phi`` is a left-to-right sum from zero, as a support sum is.
Its two BLAS products, the correction ``U(U'phi)`` and the fold ``U U'``
(see :class:`~anarx.learning.RlsLearner`), each take the rows of a step
in one call (the warm-up fold in two), which numpy runs as one product
per row. A row's product takes a shape set by the row's width and the
learner's one pending count alone, so each row gets the bits a one-row
learner holding that count gets, and their bits did not depend on the
arrays' memory offset at any of 400 random shapes and 8 offsets. The
combiner's sums over the n node forecasts use ``math.fsum`` of the same
products, and every expression keeps its operand order.
"""

from __future__ import annotations

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
