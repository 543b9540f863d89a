"""Alignment-stable contractions for the streaming math.

BLAS dot/gemv kernels choose vectorization strategies from pointer
alignment, so the same values in a differently allocated array can give
answers that differ in the last ulp. Snapshots promise bit-identical
predictions after a round-trip, and structure changes reallocate weight
storage, so every hot-path contraction over weights goes through
elementwise multiply plus a numpy sum whose result depends only on
operand values and lengths: the pairwise sum over a contiguous last
axis, or, in the RLS step, a left-to-right sum over the regressor's
support.

The per-step work on a handful of scalars runs on Python floats instead:
the B-spline recurrence of one value (``membership.eval_bspline``) and
the combiner's sums and updates over the n node forecasts. A Python
float operation is the IEEE binary64 operation numpy applies element by
element, and ``math.fsum`` of the same products is the same correctly
rounded sum, so as long as every expression keeps its operand order the
bits are those of the numpy form.
"""

from __future__ import annotations

import math

import numpy as np

# Guard for data-dependent divisors (squared norms, scalar gains,
# step-size denominators).
EPS_REG = 1e-12


def vdot(a, b) -> float:
    """Bit-reproducible inner product of two 1-d float arrays."""
    return float(np.multiply(a, b).sum())


def exact_sum(values) -> float:
    """Correctly rounded sum; invariant to appending zero terms.

    Aggregations over the node pool must not move by an ulp when a
    zero-weight node joins, which pairwise summation does not guarantee
    (its association depends on the length).
    """
    return math.fsum(values)

