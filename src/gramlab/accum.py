"""Correctly rounded summation of float arrays.

Array statistics (Mertens sums, V(x;h), moment sums) are reduced here so that
rounding stays below the analytic error terms we report; scalar streams call
math.fsum directly.  An array is cut into chunks of CHUNK elements; each
chunk's sum is rounded correctly (to nearest, ties to even), and the chunk
partials are then added with math.fsum.  The result depends on the array
alone, and equals math.fsum(math.fsum(chunk) for chunk in chunks) bit for bit.
An iterable of arrays is cut where their concatenation would be cut, a chunk
that spans blocks gathered in one buffer, so a stream of blocks (the primes
<= 1e8 as the sieve yields them) sums to the concatenation's bits without
being held whole.

`partials` returns each term's chunk partials themselves, and `csums` is
math.fsum of them: one summation path.  Since a partial is the correctly
rounded sum of its chunk, it is a deterministic value of the data alone and
can be stored and re-checked bit for bit, as the prime sums do (`primes`).

A chunk is summed exactly in numpy by error-free extraction (Rump, Ogita and
Oishi, "Accurate floating-point summation part I: faithful rounding", SIAM J.
Sci. Comput. 31, 2008).  With sigma a power of two above 2n max|r| for n
values r, each q = (r + sigma) - sigma is a multiple of 2^-53 sigma, r - q is
exact, and every partial sum of the q is a multiple of 2^-53 sigma below
sigma, so sum(q) is exact in any order.  The remainders r - q shrink by 2^35
a pass, and the loop ends when they are all zero; on the subnormal grid every
step is exact.  The chunk's sum is then math.fsum of the exact pass sums.
Non-finite entries and magnitudes near overflow go to math.fsum itself, so
NaN, infinities and overflow behave as fsum does.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

# chunk size for array reductions; fixed, so the partials (and hence the
# rounded result) depend on the array alone
CHUNK = 1 << 16
_SPREAD = CHUNK.bit_length()       # 2**_SPREAD >= 2 * CHUNK
_HUGE = 2.0 ** (1022 - _SPREAD)    # below this, r + sigma cannot overflow


def _chunk_sum(c: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Correctly rounded sum of at most CHUNK float64 values; q and r are work
    buffers of c's size."""
    lo, hi = c.min(), c.max()
    if not (-_HUGE < lo and hi < _HUGE):       # NaN, an infinity, or near overflow
        return math.fsum(memoryview(c))
    parts = []          # exact sums whose total is the chunk's exact sum
    rest, top = c, max(-lo, hi)
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + _SPREAD)   # > 2 CHUNK |rest|
        np.add(rest, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        rest = np.subtract(rest, q, out=r)
        top = max(-r.min(), r.max())
    return math.fsum(parts)


def _chunks(arr) -> Iterator[np.ndarray]:
    """arr, an array or an iterable of arrays, as chunks of CHUNK values cut
    where they cut the concatenation; a chunk that spans blocks is gathered in
    one float64 buffer, which the next such chunk overwrites, and a chunk
    inside one block is a view of it in the block's dtype."""
    buf, fill = np.empty(CHUNK), 0     # buf[:fill] is the chunk in progress
    for block in [arr] if isinstance(arr, np.ndarray) else arr:
        b = np.asarray(block).ravel()
        i = 0
        if fill:
            i = min(CHUNK - fill, b.size)
            buf[fill : fill + i] = b[:i]
            fill += i
            if fill < CHUNK:
                continue
            yield buf
        whole = i + (b.size - i) // CHUNK * CHUNK
        for j in range(i, whole, CHUNK):
            yield b[j : j + CHUNK]
        fill = b.size - whole
        buf[:fill] = b[whole:]
    if fill:
        yield buf[:fill]


def partials(arr, *terms, prep=None) -> list[list[float]]:
    """For each elementwise term, the correctly rounded sum of term(a) over
    each chunk a of arr as float64, in chunk order.

    arr is an array or an iterable of arrays, cut as their concatenation.
    The terms are evaluated one CHUNK at a time, so no full-length temporary
    is made; each term maps a float64 chunk to an array of its size.  With
    prep, each term takes prep(chunk) instead, made once per chunk, so the
    terms can share work such as a logarithm.
    """
    out = [[] for _ in terms]
    work = None
    for c in _chunks(arr):
        c = c.astype(float, copy=False)
        if work is None:        # every chunk but the last holds CHUNK values
            work = np.empty((2, c.size))
        q, r = work[:, : c.size]
        arg = c if prep is None else prep(c)
        for acc, term in zip(out, terms):
            acc.append(_chunk_sum(term(arg), q, r))
    return out


def csums(arr, *terms, prep=None) -> tuple[float, ...]:
    """csum(term(a)) for each elementwise term, a = arr as float64: math.fsum
    of the term's `partials` (arr, terms and prep as there)."""
    # fsum of one partial is that partial, and of none is 0.0
    return tuple(math.fsum(acc) for acc in partials(arr, *terms, prep=prep))


def csum(arr) -> float:
    """Sum of a float array (or of an iterable of arrays, concatenated):
    correctly rounded chunks, then fsum of the partials."""
    return csums(arr, lambda c: c)[0]
