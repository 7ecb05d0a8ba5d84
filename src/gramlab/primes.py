"""Prime sieve and the prime-sum statistics used by the S(t) analysis.

Provides Mertens-type sums, the oscillatory prime approximant
V_y(t) = (1/pi) sum_{p<y} sin(t ln p)/sqrt(p), the logarithmic mean
V(x;h) = sum_{p<=x} sin^2(h ln p / 2)/p, residual moments of
R(t) = S(t) + V(t) at Gram points, and a brute-force check of the
diagonal prime-pair identity.  `prime_sums` takes the Mertens sums and V(x;h)
at several h from one sieve of x, as `verify-paper` needs them at x = 1e8.

The term sin^2(y) / p of V(x;h), y = h ln p / 2, is taken from one tangent,
as t^2 / ((1 + t^2) p) with t = tan(y) (`_vxh_term`): numpy's float64 tan
has a SIMD loop and its float64 sin has none (numpy 2.4 on x86-64), so the
term costs about half of sin(y) ** 2 / p, with the same temporaries.
Against 30- and 40-digit mpmath at the same binary64 y and p it is within
4 ulp, the sin form within 3.  Each sum is correctly rounded over these
terms, so it holds the bits of this form: V(1e6, 0.2) is 1 ulp above the sin
form's, while V(1e7, h) and V(1e8, h) at h = 0.2 and 0.39 are unchanged.

The primes <= x come as one stream of ascending blocks from a segmented
sieve (`_prime_blocks`).  A sieve segment is _SEGMENT numbers, marked in a
mask of its odd numbers only: 1 MB, which stays in L2 while every base prime
strikes it.  The sums take the blocks as they come, each term correctly rounded
over all of them (`accum.partials`), so they never hold all
5,761,455 primes <= 1e8; `sieve_primes` gathers the stream into one array
for callers that want it.  No primes are stored.

A sum over x >= SUMS_CACHE_THRESHOLD with a cache directory keeps the exact
parts of its terms' sums over each block of the stream (`accum.partials`) in
a sidecar, the checked directory primes_<x:012d>/ of `store.write_checked`:
parts.json holds them as float.hex by block, keyed by term ("ln p / p",
"1 / p", and "sin^2(h ln p / 2) / p, h = " + h.hex() for each h), under a
manifest of the limit and _SEGMENT, from which each block's bounds follow
(`_bounds`).  A warm call whose terms are all stored re-sieves block 0, every
_SUMS_SAMPLE_STRIDE-th block and the last (7 of the 49 blocks at 1e8); their
parts must equal the stored parts bit for bit, and the result is then
math.fsum of all stored parts, the bits of a full computation.  A damaged
sidecar raises ChecksumMismatch.  One with no manifest (a write cut short),
of another limit or _SEGMENT, or whose sample is not reproduced is
recomputed in full and rewritten; a call with a term it lacks sums all its
terms in one full stream and keeps the stored terms only if that stream
reproduces their parts.  A change to an unsampled block alone, under a fresh
checksum, is not detected; the one-file primes_<x:012d>.sums.json of
earlier versions is never read.

`save_prime_cache` and `load_prime_cache` write and read a binary file of
primes (8-byte magic "GRAMLAB\\0", one version byte, then the primes as
little-endian uint64), and `verify_spot_range` re-sieves a range of a
`PrimeTable`.  No sum uses them; `bench/tracer.py` names them.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .accum import CHUNK, csum, partials, total
from .errors import ChecksumMismatch, PreconditionError, ResourceError, VersionMismatch
from .moments import EPSILON_DEFAULT, MomentReport, _require_range, moment_constants
from .store import read_checked, write_checked, write_replacing
from .zeros import ZeroTable

SIEVE_CEILING = 10**8
SUMS_CACHE_THRESHOLD = 10**7
H_CEILING = 0.4  # admissible shift ceiling for V(x;h)
# the largest float64 step of a phase t ln p that V_y(t) accepts, in radians
VY_PHASE_STEP = 1e-6
_SEGMENT = 1 << 21  # numbers per sieve segment
_SUMS_SAMPLE_STRIDE = 8  # a warm sum re-sieves block 0, every 8th block and the last
_PARTS = "parts.json"    # the file of a sidecar's parts

_MAGIC = b"GRAMLAB\0"
_VERSION = 1


@dataclass(frozen=True)
class PrimeTable:
    limit: int
    primes: np.ndarray  # ascending uint64


@dataclass(frozen=True)
class VxhResult:
    x: float
    h: float
    value: float
    main: float
    deviation: float


@dataclass(frozen=True)
class DiagonalCheck:
    k: int
    y: float
    lhs: float
    sigma1: float
    sigma2: float
    theta: float
    ok: bool


# ---------------------------------------------------------------------------
# sieve

def _base_primes(root: int) -> np.ndarray:
    """Primes <= root by a plain sieve; the base for _sieve_block."""
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, int(math.isqrt(root)) + 1):
        if small[p]:
            small[p * p :: p] = False
    return np.nonzero(small)[0].astype(np.uint64)


def _sieve_block(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi).  The mask holds
    the odd numbers only, first + 2k at index k: each odd base prime p strikes
    every p-th entry, from its first odd multiple at or past both p^2 and lo."""
    first = lo | 1
    mask = np.ones(max(0, (hi - first + 1) // 2), dtype=bool)
    if first == 1:
        mask[:1] = False
    # the odd base primes that strike, and their first odd multiples, at once
    p = base[(base > 2) & (base * base < hi)].astype(np.int64)
    start = np.maximum(p * p, -(-lo // p) * p)
    start += p * (1 - start % 2)
    for step, k in zip(p.tolist(), ((start - first) // 2).tolist()):
        mask[k::step] = False
    found = np.flatnonzero(mask)
    found *= 2
    found += first
    if lo <= 2 < hi:
        found = np.concatenate(([2], found))
    return found.view(np.uint64)        # non-negative int64: the same bits


def _bounds(limit: int) -> list[tuple[int, int]]:
    """The ranges [lo, hi) of the blocks of _prime_blocks(limit): the base
    primes <= sqrt(limit), then one segment of _SEGMENT numbers per block."""
    root = math.isqrt(limit)
    return [(0, root + 1), *((lo, min(lo + _SEGMENT, limit + 1))
                             for lo in range(root + 1, limit + 1, _SEGMENT))]


def _require_sieve_limit(limit: float) -> None:
    """ResourceError past SIEVE_CEILING, NaN and infinities too, before int()."""
    if not limit <= SIEVE_CEILING:
        raise ResourceError(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")


def _largest_prime_below(y: float) -> int:
    """The largest prime p < y, for 2 < y <= SIEVE_CEILING, from a sieve of the
    256 integers below y: no gap between primes below 1e8 is wider than 220,
    the one after 47326693."""
    hi = math.ceil(y)                   # p < y for an integer p is p < ceil(y)
    return int(_sieve_block(max(hi - 256, 0), hi, _base_primes(math.isqrt(hi)))[-1])


def _prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit as a stream of ascending uint64 blocks over
    _bounds(limit), the one source of primes: the base primes, then a
    segmented sieve (Bays and Hudson 1977)."""
    _require_sieve_limit(limit)
    limit = max(int(limit), 0)
    base = _base_primes(math.isqrt(limit))
    return chain([base], (_sieve_block(lo, hi, base) for lo, hi in _bounds(limit)[1:]))


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit in one array, filled from _prime_blocks."""
    blocks = _prime_blocks(limit)
    limit = int(limit)
    # one buffer, by pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld
    # 1962): each block is copied once, and the unfilled tail stays untouched
    n = max(limit, 2)
    primes = np.empty(int(1.25506 * n / math.log(n)) + 1, dtype=np.uint64)
    count = 0
    for block in blocks:
        primes[count : count + block.size] = block
        count += block.size
    return PrimeTable(limit=limit, primes=primes[:count])


def save_prime_cache(path: str | Path, table: PrimeTable) -> None:
    """Write table's primes as a prime file at `path`, through a temporary
    file renamed into place."""
    write_replacing(Path(path), [_MAGIC, bytes([_VERSION]),
                                 table.primes.astype("<u8", copy=False).tobytes()])


def load_prime_cache(path: str | Path) -> Iterator[np.ndarray]:
    """The primes of a prime file as blocks of CHUNK primes.

    The header and the payload's size are checked on the call, before any
    block is read; each block must then ascend strictly from the last prime
    of the block before it, else ChecksumMismatch names the byte offset.
    """
    with open(path, "rb") as fh:
        head = fh.read(9)
        if len(head) < 9:
            raise ChecksumMismatch(f"{path}: truncated header of {len(head)} bytes")
        if head[:8] != _MAGIC:
            raise ChecksumMismatch(f"{path}: bad magic header")
        if head[8] != _VERSION:
            raise VersionMismatch(f"{path}: unsupported sieve cache version {head[8]}")
        size = os.fstat(fh.fileno()).st_size - 9
    if size % 8:
        raise ChecksumMismatch(f"{path}: truncated payload of {size} bytes")
    return _read_blocks(path, size // 8)


def _read_blocks(path, count: int) -> Iterator[np.ndarray]:
    """The count primes after a checked cache header, CHUNK at a time."""
    with open(path, "rb") as fh:
        fh.seek(9)
        prev = 0
        for start in range(0, count, CHUNK):
            block = np.fromfile(fh, dtype="<u8", count=min(CHUNK, count - start))
            if block.size < min(CHUNK, count - start):
                raise ChecksumMismatch(f"{path}: payload ends after {start + block.size} primes")
            steps = block[1:] <= block[:-1]
            if block[0] <= prev or steps.any():
                i = 0 if block[0] <= prev else 1 + int(np.argmax(steps))
                raise ChecksumMismatch(f"{path}: primes out of order at byte {9 + 8 * (start + i)}")
            prev = block[-1]
            yield block


def verify_spot_range(table: PrimeTable, lo: int, hi: int) -> bool:
    """Re-sieve [lo, hi] independently and compare against the table."""
    lo, hi = max(lo, 2), min(hi, table.limit)
    fresh = _sieve_block(lo, hi + 1, _base_primes(int(math.isqrt(hi))))
    i = np.searchsorted(table.primes, np.uint64(lo))
    j = np.searchsorted(table.primes, np.uint64(hi), side="right")
    mine = table.primes[i:j]
    return fresh.size == mine.size and bool(np.all(fresh == mine))


# ---------------------------------------------------------------------------
# prime sums

_MERTENS_TERMS = {"ln p / p": lambda c: c[1] / c[0], "1 / p": lambda c: 1.0 / c[0]}


def _vxh_term(h: float) -> tuple[str, Callable]:
    """The named term sin^2(h ln p / 2) / p of V(x;h), for _prime_csums, as
    t^2 / ((1 + t^2) p) with t = tan(h ln p / 2) (module docstring): every
    step after the first in place, beside one temporary."""
    def term(c):
        t = 0.5 * h * c[1]
        np.tan(t, out=t)
        t *= t
        d = t + 1.0
        d *= c[0]
        t /= d
        return t

    return f"sin^2(h ln p / 2) / p, h = {float(h).hex()}", term


def _prime_partials(blocks: Iterable[np.ndarray], terms) -> list[list[list[float]]]:
    """accum.partials over a stream of prime blocks of each term of (p, ln p),
    ln p taken once per chunk."""
    return partials(blocks, *terms, prep=lambda p: (p, np.log(p)))


def _hex(parts: Iterable[list[float]]) -> list[list[str]]:
    """Parts by block as float.hex: their bits, as the sidecar stores them."""
    return [[v.hex() for v in block] for block in parts]


def _load_sums(sdir: Path, limit: int, blocks: int) -> dict[str, list[list[float]]]:
    """The stored parts of the sidecar sdir as floats by term: none if it has
    no manifest or another limit or _SEGMENT; ChecksumMismatch if damaged."""
    if not (sdir / "manifest.json").exists():
        return {}
    try:
        with read_checked(sdir, (_PARTS,), limit=limit, segment=_SEGMENT) as (_, (fh,)):
            stored = {name: [[float.fromhex(v) for v in block] for block in values]
                      for name, values in json.load(fh).items()}
        if any(len(v) != blocks for v in stored.values()):
            raise ValueError(f"parts not of {blocks} blocks")
    except VersionMismatch:
        return {}
    except (ValueError, TypeError, AttributeError) as exc:
        raise ChecksumMismatch(f"{sdir / _PARTS}: damaged prime-sum partials ({exc})") from None
    return stored


def _prime_csums(x: float, cache_dir: str | Path | None, terms: dict[str, Callable]
                 ) -> dict[str, float]:
    """The correctly rounded sum over the primes p <= x of each named term of
    (p, ln p), the `total` of its `partials`; with a cache directory, through
    the parts of a sidecar (module docstring)."""
    blocks = _prime_blocks(x)           # checks the ceiling before int() or any file
    limit = int(x)
    if cache_dir is None or limit < SUMS_CACHE_THRESHOLD:
        return dict(zip(terms, map(total, _prime_partials(blocks, terms.values()))))
    sdir = Path(cache_dir) / f"primes_{limit:012d}"
    bounds = _bounds(limit)
    stored = _load_sums(sdir, limit, len(bounds))
    if stored.keys() >= terms.keys():
        sample = sorted({*range(0, len(bounds), _SUMS_SAMPLE_STRIDE), len(bounds) - 1})
        base = _base_primes(math.isqrt(limit))
        got = _prime_partials((_sieve_block(*bounds[i], base) for i in sample), terms.values())
        if all(_hex(g) == _hex(stored[name][i] for i in sample) for name, g in zip(terms, got)):
            return {name: total(stored[name]) for name in terms}
    full = dict(zip(terms, _prime_partials(blocks, terms.values())))
    if any(_hex(full[name]) != _hex(stored[name]) for name in terms.keys() & stored.keys()):
        stored = {}             # not these primes' sums: rewrite
    parts = {name: _hex(values) for name, values in {**stored, **full}.items()}
    write_checked(sdir, {_PARTS: [(json.dumps(parts, indent=1) + "\n").encode()]},
                  limit=limit, segment=_SEGMENT)
    return {name: total(values) for name, values in full.items()}


def _require_vxh(x: float, h: float) -> None:
    if not x >= 2:
        raise PreconditionError("v_xh requires x >= 2")
    if not (0.0 < h < H_CEILING):
        raise PreconditionError(f"require 0 < h < {H_CEILING}")
    if not h * math.log(x) > 2.0:
        raise PreconditionError("require h ln x > 2")


def _vxh_result(x: float, h: float, value: float) -> VxhResult:
    main = 0.5 * math.log(h * math.log(x))
    return VxhResult(x=float(x), h=float(h), value=value, main=main,
                     deviation=abs(value - main))


def mertens_sums(x: float, cache_dir: str | Path | None = None) -> tuple[float, float]:
    """(sum_{p<=x} ln p / p, sum_{p<=x} 1/p), each sum correctly rounded."""
    return prime_sums(x, (), cache_dir)[0]


def prime_sums(x: float, hs: tuple[float, ...] = (), cache_dir: str | Path | None = None
               ) -> tuple[tuple[float, float], tuple[VxhResult, ...]]:
    """(mertens_sums(x), v_xh(x, h) for each h of hs), bit for bit, from one
    sieve of x and one ln p per chunk."""
    if not x >= 2:
        raise PreconditionError("mertens_sums requires x >= 2")
    for h in hs:
        _require_vxh(x, h)
    vxh = [_vxh_term(h) for h in hs]
    sums = _prime_csums(x, cache_dir, {**_MERTENS_TERMS, **dict(vxh)})
    lp, rp = (sums[name] for name in _MERTENS_TERMS)
    return (lp, rp), tuple(_vxh_result(x, h, sums[name]) for h, (name, _) in zip(hs, vxh))


def _v_sum(ts, y: float) -> np.ndarray:
    """(1/pi) sum_{p<y} sin(t ln p)/sqrt(p) for scalar or array t."""
    if y <= 2:
        return np.zeros(np.shape(ts))
    primes = sieve_primes(y).primes     # the primes <= int(y): every p < y
    p = primes[primes < y].astype(float)   # holds 2, since y > 2
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    lnp = np.log(p)
    w = 1.0 / np.sqrt(p)
    out = np.empty(ts_arr.shape)
    chunk = max(1, (1 << 22) // p.size)
    for i in range(0, ts_arr.size, chunk):
        seg = ts_arr[i : i + chunk]
        out[i : i + chunk] = np.sin(seg[:, None] * lnp[None, :]) @ w
    out /= math.pi
    return out if np.ndim(ts) else float(out[0])


def v_y(t: float, y: float) -> float:
    """V_y(t) with the strict cutoff p < y.

    PreconditionError where one float64 step of the phase t ln p, for the
    largest prime p < y, exceeds VY_PHASE_STEP: there the phases, and so the
    value, are noise.
    """
    if not math.isfinite(t):
        raise PreconditionError("v_y requires a finite t")
    if not y >= 2:
        raise PreconditionError("v_y requires y >= 2")
    _require_sieve_limit(y)
    if y > 2:                           # checked before the primes below y are sieved
        p = _largest_prime_below(y)
        if (step := float(np.spacing(abs(t) * math.log(p)))) > VY_PHASE_STEP:
            raise PreconditionError(
                f"v_y requires one float64 step of t ln p to be at most {VY_PHASE_STEP:g} "
                f"for p = {p}, the largest prime below y; it is {step:.3g}")
    return float(_v_sum(float(t), y))


def v_xh(x: float, h: float, cache_dir: str | Path | None = None) -> VxhResult:
    """V(x;h) = sum_{p<=x} sin^2(h ln p / 2) / p and its deviation from
    (1/2) ln(h ln x)."""
    _require_vxh(x, h)
    name, term = _vxh_term(h)
    return _vxh_result(x, h, _prime_csums(x, cache_dir, {name: term})[name])


def residual_moments(table: ZeroTable, N: int, M: int, k: int,
                     epsilon: float = EPSILON_DEFAULT, y: float | None = None) -> MomentReport:
    """Sum of R(t_n+0)^(2k) over N < n <= N+M, R = S + V_y, against the
    (very loose) moment bound (A e^-4 k)^(2k) M.

    In the admissible regime y = x^(1/4k) with x = t_N^(0.1 eps); that regime
    requires ln x >= 192 k, far beyond desk scale, so the sum is always
    exploratory: it takes an explicit y (or the degenerate derived one), and
    the report notes the fact.
    """
    if k < 1:
        raise PreconditionError("residual_moments requires k >= 1")
    a_const, _, _ = moment_constants(epsilon)
    _require_range(N, M, k=k)
    notes = ("exploratory: admissible regime ln x >= 192 k unreachable at desk scale",)
    table.require_gram_index(N + M)
    if y is None:
        y = (float(table.gram[N]) ** (0.1 * epsilon)) ** (1.0 / (4.0 * k))
    ts = table.gram[N + 1 : N + M + 1]
    s_vals = table.s_gram[N + 1 : N + M + 1].astype(float)
    v_vals = _v_sum(ts, y)
    r_vals = s_vals + v_vals
    total = csum(r_vals ** (2 * k))
    log10_bound = 2 * k * math.log10(a_const * math.exp(-4.0) * k) + math.log10(M)
    return MomentReport.bounded(total, log10_bound, notes)


# ---------------------------------------------------------------------------
# diagonal prime-pair identity

_DIAGONAL_Y_CEILING_K2 = 1000.0


def diagonal_identity_check(k: int, y: float,
                            a: dict[int, complex] | None = None) -> DiagonalCheck:
    """Brute-force both sides of the diagonal identity over primes <= y.

    k = 1: the left side is sigma1 by definition (theta_1 = 0).
    k = 2: the normalized residue (lhs - 2 sigma1^2) / (2 * 4 * sigma2)
           must lie in [-1, 0].
    """
    if k not in (1, 2):
        raise PreconditionError("diagonal_identity_check supports k = 1 or 2")
    if k == 1 and not y >= 2:
        raise PreconditionError("require y >= 2")
    if k == 2 and not y > math.e ** 3:
        # the theta-window derivation needs y > e^3; the k = 1 case is exact
        # for any cutoff
        raise PreconditionError("require y > e^3 for k = 2")
    if k == 2 and y > _DIAGONAL_Y_CEILING_K2:
        raise ResourceError(f"k = 2 brute force capped at y <= {_DIAGONAL_Y_CEILING_K2}")
    primes = sieve_primes(y).primes.tolist()
    coeff = {p: (a.get(p, 0j) if a is not None else 1.0 + 0j) for p in primes}
    mags = [abs(coeff[p]) ** 2 for p in primes]
    sigma1 = math.fsum(m / p for m, p in zip(mags, primes))
    sigma2 = math.fsum((m / p) ** 2 for m, p in zip(mags, primes))
    if k == 1:
        return DiagonalCheck(k=1, y=y, lhs=sigma1, sigma1=sigma1, sigma2=sigma2,
                             theta=0.0, ok=True)
    prods: dict[int, complex] = {}
    for p1 in primes:
        for p2 in primes:
            v = p1 * p2
            prods[v] = prods.get(v, 0j) + coeff[p1] * coeff[p2] / math.sqrt(v)
    lhs = math.fsum(abs(z) ** 2 for z in prods.values())
    denom = 2.0 * 4.0 * sigma2
    theta = (lhs - 2.0 * sigma1 ** 2) / denom if denom else 0.0
    ok = (-1.0 - 1e-12) <= theta <= 1e-12 if denom else lhs == 0.0
    return DiagonalCheck(k=2, y=y, lhs=lhs, sigma1=sigma1, sigma2=sigma2,
                         theta=theta, ok=ok)
