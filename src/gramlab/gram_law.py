"""Classification of Gram intervals and zero-to-Gram offsets.

Works entirely from a certified ZeroTable: interval occupancy, the strict /
exact-one / odd-count flavors of Gram's law, the offset Delta_n of each zero
ordinate from its namesake interval, occupancy histograms nu_k, and the exact
integer identities tying them to S at Gram points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UncertifiedRange
from .zeros import ZeroTable, near


@dataclass(frozen=True)
class IntervalRecord:
    n: int
    zero_count: int
    r: int
    sgl: bool
    gl: bool
    wgl: bool
    ambiguous: bool


@dataclass(frozen=True)
class DeltaRecord:
    zero_index: int
    gram_index: int
    delta: int


@dataclass(frozen=True)
class NuHistogram:
    upper_index: int
    counts: dict[int, int]
    s_at_end: int

    def identity_weighted(self) -> bool:
        """sum_k k nu_k == N + S(t_N + 0) exactly.

        sum_k nu_k == N holds by construction, and nu_0 == sum_{k>=2} (k-1) nu_k
        - S(t_N+0) is this identity less that one, so this is the one to check.
        """
        weighted = sum(k * v for k, v in self.counts.items())
        return weighted == self.upper_index + self.s_at_end


def _edges(table: ZeroTable, n_lo: int, n_hi: int) -> np.ndarray:
    """N(t_n + 0) for n = n_lo-1..n_hi, read from S(t_n + 0) = N(t_n + 0) - n:
    zeros of G_n are zeros[edges[i]:edges[i+1]]."""
    if not (1 <= n_lo <= n_hi):
        raise PreconditionError("interval range must satisfy 1 <= n_lo <= n_hi")
    table.require_gram_index(n_hi)
    edges = np.arange(n_lo - 1, n_hi + 1)       # in place: no second temporary
    edges += table.s_gram[n_lo - 1 : n_hi + 1]
    return edges


def interval_counts(table: ZeroTable, n_lo: int, n_hi: int) -> np.ndarray:
    """Zero ordinate count of each G_n = (t_{n-1}, t_n], n_lo..n_hi."""
    return np.diff(_edges(table, n_lo, n_hi)).astype(np.int64)


def classify_intervals(table: ZeroTable, n_lo: int, n_hi: int) -> list[IntervalRecord]:
    """One record per interval, flags per the three Gram's-law definitions."""
    edges = _edges(table, n_lo, n_hi)
    counts = np.diff(edges)
    at = near(table.zeros, table.gram[n_lo - 1 : n_hi + 1])   # n = n_lo-1..n_hi
    amb = at[:-1] | at[1:]     # a zero of G_n can only be near t_{n-1} or t_n
    recs = []
    for i, n in enumerate(range(n_lo, n_hi + 1)):
        c = int(counts[i])
        first = int(edges[i]) + 1      # 1-based index of first zero inside
        # strict law: the namesake zero index n falls inside G_n
        sgl = c > 0 and first <= n <= first + c - 1
        recs.append(IntervalRecord(
            n=n, zero_count=c, r=c - 1, sgl=sgl, gl=c == 1, wgl=c % 2 == 1,
            ambiguous=bool(amb[i])))
    return recs


def delta_n(table: ZeroTable, zero_index: int) -> DeltaRecord:
    """Offset Delta_n = m - n where t_{m-1} < gamma_n <= t_m."""
    delta = int(delta_array(table, zero_index, zero_index)[0])
    return DeltaRecord(zero_index=zero_index, gram_index=zero_index + delta, delta=delta)


def delta_array(table: ZeroTable, n_lo: int, n_hi: int) -> np.ndarray:
    """Delta_n for zero indices n_lo..n_hi; no zero lies above the last Gram point."""
    if not (1 <= n_lo <= n_hi):
        raise PreconditionError("zero index range must satisfy 1 <= n_lo <= n_hi")
    if n_hi > table.zeros.size:
        raise UncertifiedRange(
            f"zero index {n_hi} beyond the {table.zeros.size} zeros of the table")
    # the enclosing Gram index m of each zero becomes Delta_n = m - n in place,
    # beside one temporary: the arange of the n
    delta = np.searchsorted(table.gram, table.zeros[n_lo - 1 : n_hi], side="left")
    delta -= np.arange(n_lo, n_hi + 1, dtype=delta.dtype)
    return delta.astype(np.int64, copy=False)


def gsp_flags(table: ZeroTable, n_lo: int, n_hi: int) -> list[bool]:
    """True where the ordinate sits in its namesake interval (Delta_n = 0)."""
    return [bool(d == 0) for d in delta_array(table, n_lo, n_hi)]


def nu_histogram(table: ZeroTable, N: int) -> NuHistogram:
    """Occupancy histogram of G_1..G_N with its weighted identity asserted."""
    counts = interval_counts(table, 1, N)
    ks, freq = np.unique(counts, return_counts=True)
    hist = NuHistogram(
        upper_index=N,
        counts={int(k): int(v) for k, v in zip(ks, freq)},
        s_at_end=table.s_at_gram(N),
    )
    if not hist.identity_weighted():
        raise UncertifiedRange(f"nu identities failed at N={N}; table inconsistent")
    return hist


def offset_ladder_check_range(table: ZeroTable, n_lo: int, n_hi: int) -> bool:
    """Vectorized ladder check over a whole interval range.

    Equivalent to offset_ladder_check at every n: each zero inside G_n must
    have enclosing Gram index exactly n.
    """
    edges = _edges(table, n_lo, n_hi)
    lo, hi = int(edges[0]), int(edges[-1])
    if lo == hi:
        return True
    m = np.searchsorted(table.gram, table.zeros[lo:hi], side="left")
    owner = np.repeat(np.arange(n_lo, n_hi + 1), np.diff(edges))
    return bool(np.array_equal(m, owner))


def offset_ladder_check(table: ZeroTable, n: int) -> bool:
    """Exact ladder of offsets inside one interval.

    If G_n holds zeros with indices s..s+r, then Delta_{s+j} = r - j - S(t_n+0)
    for j = 0..r, which holds exactly when each of them has enclosing Gram
    index n; empty intervals (r = -1) pass vacuously.
    """
    return offset_ladder_check_range(table, n, n)
