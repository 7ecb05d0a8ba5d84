"""Compensated summation helpers.

Every real-valued accumulation in gramlab routes through these functions so
that rounding stays below the analytic error terms we report.  Scalar streams
use math.fsum (exactly rounded); arrays are reduced chunk-wise with fsum over
chunk partials, which keeps the error within a few ulps while staying fast,
and gives a deterministic, fixed association order independent of threading.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# chunk size for array reductions; fixed so that parallel callers always
# produce the same partials in the same order
CHUNK = 1 << 16


def fsum(values: Iterable[float]) -> float:
    """Exactly rounded sum of a scalar stream."""
    return math.fsum(values)


def csum(arr: np.ndarray) -> float:
    """Compensated sum of a 1-D float array with a fixed reduction order."""
    a = np.asarray(arr, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    if a.size <= CHUNK:
        return math.fsum(a.tolist())
    partials = [math.fsum(a[i : i + CHUNK].tolist()) for i in range(0, a.size, CHUNK)]
    return math.fsum(partials)
