"""Compensated summation of float arrays.

Array statistics (Mertens sums, V(x;h), moment sums) are reduced here so that
rounding stays below the analytic error terms we report; scalar streams call
math.fsum directly.  Arrays are reduced chunk-wise with fsum over chunk
partials, which keeps the error within a few ulps while staying fast, and
gives a deterministic, fixed association order independent of threading.
"""

from __future__ import annotations

import math

import numpy as np

# chunk size for array reductions; fixed so that parallel callers always
# produce the same partials in the same order
CHUNK = 1 << 16


def csum(arr: np.ndarray) -> float:
    """Compensated sum of a 1-D float array with a fixed reduction order."""
    a = np.asarray(arr, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    if a.size <= CHUNK:
        return math.fsum(a.tolist())
    partials = [math.fsum(a[i : i + CHUNK].tolist()) for i in range(0, a.size, CHUNK)]
    return math.fsum(partials)
