"""Compensated summation of float arrays.

Array statistics (Mertens sums, V(x;h), moment sums) are reduced here so that
rounding stays below the analytic error terms we report; scalar streams call
math.fsum directly.  Arrays are reduced chunk-wise with fsum over chunk
partials, which keeps the error within a few ulps while staying fast, and
gives a deterministic, fixed association order.
"""

from __future__ import annotations

import math

import numpy as np

# chunk size for array reductions; fixed, so the partials (and hence the
# rounded result) depend on the array alone
CHUNK = 1 << 16


def csum(arr: np.ndarray) -> float:
    """Compensated sum of a 1-D float array with a fixed reduction order."""
    a = np.asarray(arr, dtype=float).ravel()
    # fsum reads the doubles straight from the buffer; fsum of one partial is
    # that partial, and of none is 0.0
    return math.fsum(math.fsum(memoryview(a[i : i + CHUNK]))
                     for i in range(0, a.size, CHUNK))
