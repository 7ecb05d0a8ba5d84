"""Correctly rounded summation of float arrays.

Array statistics (Mertens sums, V(x;h), moment sums) are reduced here so that
rounding stays below the analytic error terms we report; scalar streams call
math.fsum directly.  Every sum is the correctly rounded sum of its terms (to
nearest, ties to even), equal to math.fsum over the whole array bit for bit,
so it depends on the values alone and not on how they are cut.  An iterable
of arrays sums as their concatenation, one block at a time, so a stream of
blocks (the primes <= 1e8 as the sieve yields them) is never held whole.

`partials` returns each term's exact parts per block of the stream, `total`
is math.fsum over all of a term's parts, and `csum` is the total of the
identity term: one summation path.  A block's parts are a deterministic
function of the block alone, so they can be stored and re-checked bit for
bit, as the prime sums do (`primes`).

A block is summed CHUNK values at a time, exactly, in numpy by error-free
extraction (Rump, Ogita and Oishi, "Accurate floating-point summation part I:
faithful rounding", SIAM J. Sci. Comput. 31, 2008).  With sigma a power of two
above 2n max|r| for n values r, each q = (r + sigma) - sigma is a multiple of
2^-53 sigma, r - q is exact, and every partial sum of the q is a multiple of
2^-53 sigma below sigma, so sum(q) is exact in any order.  The remainders
r - q shrink by 2^36 a pass, and the loop ends when they are all zero; on the
subnormal grid every step is exact.  The exact pass sums are the chunk's
parts, and math.fsum of exact parts is their correctly rounded total
(Shewchuk, Discrete Comput. Geom. 18, 1997).  A chunk holding a non-finite
entry or a magnitude near overflow gives its values themselves as parts, so
NaN, infinities and overflow behave as fsum does.

The memory held at once is kept small: CHUNK is 2^15, 256 KB per buffer,
and a stream frees each block before it makes the next.  Sums do not depend
on CHUNK; the stored parts do, so a sidecar written with another CHUNK fails
its sample check and is recomputed once.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

# values summed per numpy pass; bounds the work buffers and the temporaries
# of each term
CHUNK = 1 << 15
_SPREAD = CHUNK.bit_length()       # 2**_SPREAD >= 2 * CHUNK
_HUGE = 2.0 ** (1022 - _SPREAD)    # below this, r + sigma cannot overflow


def _chunk_sum(c: np.ndarray, q: np.ndarray, r: np.ndarray) -> list[float]:
    """Exact parts of the sum of at most CHUNK float64 values, or the values
    themselves where math.fsum must see them; q and r are work buffers of c's
    size."""
    lo, hi = c.min(), c.max()
    if not (-_HUGE < lo and hi < _HUGE):       # NaN, an infinity, or near overflow
        return c.tolist()
    parts = []
    rest, top = c, max(-lo, hi)
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + _SPREAD)   # > 2 CHUNK |rest|
        np.add(rest, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        rest = np.subtract(rest, q, out=r)
        top = max(-r.min(), r.max())
    return parts


def partials(arr, *terms, prep=None) -> list[list[list[float]]]:
    """For each elementwise term, the exact parts of the sum of term(a) over
    each block a of arr as float64, in block order: math.fsum of one block's
    parts is the correctly rounded sum of its terms, and `total` of a term's
    parts is that of the term over all of arr.

    arr is an array, one block, or an iterable of arrays.  The terms are
    evaluated one CHUNK of a block at a time, so no full-length temporary is
    made; each term maps a float64 chunk to an array of its size.  With prep,
    each term takes prep(chunk) instead, made once per chunk, so the terms can
    share work such as a logarithm.
    """
    work = np.empty((2, CHUNK))

    def block_parts(block) -> list[list[float]]:
        b = np.asarray(block).ravel()
        parts = [[] for _ in terms]
        for i in range(0, b.size, CHUNK):
            c = b[i : i + CHUNK].astype(float, copy=False)
            q, r = work[:, : c.size]
            arg = c if prep is None else prep(c)
            for acc, term in zip(parts, terms):
                acc += _chunk_sum(term(arg), q, r)
        return parts

    out = [[] for _ in terms]
    # map holds no block past its parts: a stream frees each block, and its
    # chunks, before it makes the next
    for parts in map(block_parts, [arr] if isinstance(arr, np.ndarray) else arr):
        for acc, p in zip(out, parts):
            acc.append(p)
    return out


def total(parts: list[list[float]]) -> float:
    """The correctly rounded sum of one term's `partials`: math.fsum of all
    its parts, 0.0 if there are none."""
    return math.fsum(chain.from_iterable(parts))


def csum(arr) -> float:
    """Correctly rounded sum of a float array (or of an iterable of arrays,
    concatenated): math.fsum of its values, in numpy."""
    return total(partials(arr, lambda c: c)[0])
