"""Prime sieve and the prime-sum statistics used by the S(t) analysis.

Provides Mertens-type sums, the oscillatory prime approximant
V_y(t) = (1/pi) sum_{p<y} sin(t ln p)/sqrt(p), the logarithmic mean
V(x;h) = sum_{p<=x} sin^2(h ln p / 2)/p, residual moments of
R(t) = S(t) + V(t) at Gram points, and a brute-force check of the
diagonal prime-pair identity.  `prime_sums` takes the Mertens sums and V(x;h)
at several h from one sieve of x, as `verify-paper` needs them at x = 1e8.

The primes <= x come as one stream of ascending blocks (`_prime_blocks`):
from a segmented sieve, or from the sieve cache a CHUNK at a time.  A sieve
segment is _SEGMENT numbers, marked in a mask of its odd numbers only: 1 MB,
which stays in L2 while every base prime strikes it.  The sums
take the blocks as they come, summed chunk by chunk as their concatenation
would be (`accum.partials`), so they never hold all 5,761,455 primes <= 1e8;
`sieve_primes` gathers the stream into one array for callers that want it.

Sieve cache file layout: 8-byte magic "GRAMLAB\\0", one version byte,
then the primes as little-endian uint64.  A cold stream writes it as it
sieves, to a temporary file renamed into place after the last block.

A sum over a cached sieve keeps its chunk partials (`accum.partials`) in a
sidecar beside the cache, primes_<x:012d>.sums.json: a JSON object with the
limit, CHUNK, the prime count and the last prime of the cache it was summed
from, the partials as float.hex keyed by term ("ln p / p", "1 / p", and
"sin^2(h ln p / 2) / p, h = " + h.hex() for each h), and a 64-bit BLAKE2b
checksum over the rest (as JSON with sorted keys).  It is written through a
temporary file renamed into place, after the stream has ended and the sieve
cache is in place.  A warm call whose terms are all in the sidecar still
streams the cache once with every check above, re-sums its terms at chunk 0,
every _SUMS_SAMPLE_STRIDE-th chunk and the last (12 of the 88 chunks at
1e8), and requires those to equal the stored partials bit for bit; the
result is then math.fsum of the stored partials, the bits of a full
computation.  A damaged sidecar (bad JSON, a checksum that does not match, a
wrong number of partials) raises ChecksumMismatch.  A sidecar whose sample
the current code does not reproduce, or whose count or last prime is not the
cache's, is recomputed in full and rewritten once; a call with a term it
lacks sums all of its terms in one full stream and adds the new ones.  A
change to an unsampled partial alone, written under a fresh checksum, is not
detected.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accum import CHUNK, csum, partials
from .errors import ChecksumMismatch, PreconditionError, ResourceError, VersionMismatch
from .moments import EPSILON_DEFAULT, MomentConfig, MomentReport
from .store import _write_replacing
from .zeros import ZeroTable

SIEVE_CEILING = 10**8
SIEVE_CACHE_THRESHOLD = 10**7
H_CEILING = 0.4  # admissible shift ceiling for V(x;h)
_SEGMENT = 1 << 21  # numbers per sieve segment
_SUMS_SAMPLE_STRIDE = 8  # a warm sum re-sums chunk 0, every 8th chunk and the last

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
    for p in base.tolist():
        if p * p >= hi:
            break
        if p == 2:
            continue
        start = max(p * p, (lo + p - 1) // p * p)
        start += p * (start % 2 == 0)
        mask[(start - first) // 2 :: p] = False
    found = np.flatnonzero(mask)
    found *= 2
    found += first
    if lo <= 2 < hi:
        found = np.concatenate(([2], found))
    return found.view(np.uint64)        # non-negative int64: the same bits


def _sieve_stream(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit by a segmented sieve: the base primes <= sqrt(limit),
    then one block per segment of _SEGMENT numbers (Bays and Hudson 1977)."""
    root = math.isqrt(limit)
    base = _base_primes(root)
    yield base
    for lo in range(root + 1, limit + 1, _SEGMENT):
        yield _sieve_block(lo, min(lo + _SEGMENT, limit + 1), base)


def _prime_blocks(limit: int, cache_dir: str | Path | None = None) -> Iterator[np.ndarray]:
    """The primes <= limit as a stream of ascending uint64 blocks, the one
    source of primes.  Limits from SIEVE_CACHE_THRESHOLD up, with a cache
    directory, read the sieve cache when it exists (checked before the first
    block: its header here, its tail by re-sieving past its last prime, its
    order as it is read) and otherwise write it as the sieve goes."""
    if limit > SIEVE_CEILING:
        raise ResourceError(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")
    limit = int(limit)
    path = _cache_path(limit, cache_dir)
    if path is None:
        return _sieve_stream(max(limit, 0))
    if not path.exists():
        return _written(_sieve_stream(limit), path)
    blocks = load_prime_cache(path)
    # a payload cut at a whole prime still loads: re-sieve past its end
    last = _cache_extent(path)[1]
    tail = PrimeTable(limit=limit, primes=np.array([last], dtype=np.uint64))
    if last > limit or not verify_spot_range(tail, last + 1, limit):
        raise ChecksumMismatch(f"{path}: primes missing after {last}")
    return blocks


def _cache_path(limit: int, cache_dir: str | Path | None) -> Path | None:
    """The sieve cache file of limit, or None where the primes are not cached."""
    if cache_dir is None or limit < SIEVE_CACHE_THRESHOLD:
        return None
    return Path(cache_dir) / f"primes_{limit:012d}.bin"


def _cache_extent(path: Path) -> tuple[int, int]:
    """(prime count, last prime) of a sieve cache with a checked header and
    payload size, read from its size and final 8 bytes; last is 1 if empty."""
    size = path.stat().st_size
    last = int(np.fromfile(path, dtype="<u8", count=1, offset=size - 8)[0]) if size > 9 else 1
    return (size - 9) // 8, last


def sieve_primes(limit: int, cache_dir: str | Path | None = None) -> PrimeTable:
    """All primes <= limit in one array, filled from _prime_blocks."""
    blocks = _prime_blocks(limit, cache_dir)
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


def _written(blocks: Iterable[np.ndarray], path: Path) -> Iterator[np.ndarray]:
    """blocks, each appended to the sieve cache at `path` as it passes.

    They go to a temporary file beside `path`, renamed into place after the
    last block, so a crash never leaves a truncated cache at `path`; an error
    or a stream closed early also removes the temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(bytes([_VERSION]))
            for block in blocks:
                block.astype("<u8", copy=False).tofile(fh)
                yield block
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_prime_cache(path: str | Path, table: PrimeTable) -> None:
    """Write table's primes as the sieve cache at `path`, through a temporary
    file renamed into place."""
    for _ in _written([table.primes], Path(path)):
        pass


def load_prime_cache(path: str | Path) -> Iterator[np.ndarray]:
    """The primes of a sieve cache file as blocks of CHUNK primes.

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
    """The named term sin^2(h ln p / 2) / p of V(x;h), for _prime_csums."""
    return (f"sin^2(h ln p / 2) / p, h = {float(h).hex()}",
            lambda c: np.sin(0.5 * h * c[1]) ** 2 / c[0])


def _prime_partials(blocks: Iterator[np.ndarray], terms, keep=None) -> list[list[float | None]]:
    """accum.partials over a stream of prime blocks of each term of (p, ln p),
    ln p taken once per chunk; the stream is closed however the sums end."""
    with closing(blocks):
        return partials(blocks, *terms, prep=lambda p: (p, np.log(p)), keep=keep)


def _same_bits(got: list[float | None], stored: list[float]) -> bool:
    """Whether every partial of got that was summed has stored's bits."""
    return len(got) == len(stored) and all(
        g is None or g.hex() == s.hex() for g, s in zip(got, stored))


def _sums_digest(body: dict) -> str:
    return hashlib.blake2b(json.dumps(body, sort_keys=True).encode(), digest_size=8).hexdigest()


def _load_sums(spath: Path, head: dict) -> dict[str, list[float]]:
    """The partials of the sidecar at spath by term: {} if there is none or
    its head (limit, chunk, count, last) is not head; ChecksumMismatch,
    naming the file, if it is damaged."""
    if not spath.exists():
        return {}
    try:
        body = json.loads(spath.read_text(encoding="utf-8"))
        if body.pop("checksum") != _sums_digest(body):
            raise ValueError("checksum does not match")
        n = -(-body["count"] // CHUNK)
        sums = {name: [float.fromhex(v) for v in values]
                for name, values in body["partials"].items()}
        if any(len(values) != n for values in sums.values()):
            raise ValueError(f"partials not {n} per term")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ChecksumMismatch(f"{spath}: damaged prime-sum partials ({exc})") from None
    return sums if {k: body.get(k) for k in head} == head else {}


def _save_sums(spath: Path, head: dict, sums: dict[str, list[float]]) -> None:
    """Write the sidecar at spath through a temporary file renamed into place."""
    body = {**head, "partials": {name: [v.hex() for v in values]
                                 for name, values in sums.items()}}
    body["checksum"] = _sums_digest(body)
    _write_replacing(spath, (json.dumps(body, indent=1) + "\n").encode())


def _sums_head(path: Path, limit: int) -> dict:
    """What a sidecar must hold to belong to the sieve cache at path."""
    count, last = _cache_extent(path)
    return {"limit": limit, "chunk": CHUNK, "count": count, "last": last}


def _prime_csums(x: float, cache_dir: str | Path | None, terms: dict[str, Callable]
                 ) -> dict[str, float]:
    """csums over the primes p <= x of each named term of (p, ln p); over a
    cached sieve, through the partials of its sidecar (module docstring)."""
    limit = int(x)
    path = _cache_path(limit, cache_dir)
    warm = path is not None and path.exists()
    blocks = _prime_blocks(limit, cache_dir)    # checks a cache's header and tail
    if path is None:
        return dict(zip(terms, map(math.fsum, _prime_partials(blocks, terms.values()))))
    spath = path.with_name(path.stem + ".sums.json")
    stored = _load_sums(spath, _sums_head(path, limit)) if warm else {}
    if stored.keys() >= terms.keys():
        n = len(stored[next(iter(terms))])      # chunks: checked against the count
        sample = _prime_partials(blocks, terms.values(),
                                 keep=lambda i: i % _SUMS_SAMPLE_STRIDE == 0 or i == n - 1)
        if all(_same_bits(got, stored[name]) for name, got in zip(terms, sample)):
            return {name: math.fsum(stored[name]) for name in terms}
        stored = {}             # summed by other code: recompute and rewrite
        blocks = _prime_blocks(limit, cache_dir)
    full = dict(zip(terms, _prime_partials(blocks, terms.values())))
    if not all(_same_bits(full[name], stored[name]) for name in terms.keys() & stored.keys()):
        stored = {}
    _save_sums(spath, _sums_head(path, limit), {**stored, **full})
    return {name: math.fsum(values) for name, values in full.items()}


def _require_vxh(x: float, h: float) -> None:
    if not (0.0 < h < H_CEILING):
        raise PreconditionError(f"require 0 < h < {H_CEILING}")
    if not h * math.log(x) > 2.0:
        raise PreconditionError("require h ln x > 2")


def _vxh_result(x: float, h: float, value: float) -> VxhResult:
    main = 0.5 * math.log(h * math.log(x))
    return VxhResult(x=float(x), h=float(h), value=value, main=main,
                     deviation=abs(value - main))


def mertens_sums(x: int, cache_dir: str | Path | None = None) -> tuple[float, float]:
    """(sum_{p<=x} ln p / p, sum_{p<=x} 1/p), each sum correctly rounded by chunk."""
    return prime_sums(x, (), cache_dir)[0]


def prime_sums(x: int, hs: tuple[float, ...] = (), cache_dir: str | Path | None = None
               ) -> tuple[tuple[float, float], tuple[VxhResult, ...]]:
    """(mertens_sums(x), v_xh(x, h) for each h of hs), bit for bit, from one
    sieve of x and one ln p per chunk."""
    if x < 2:
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
    primes = sieve_primes(int(math.ceil(y))).primes
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
    """V_y(t) with the strict cutoff p < y."""
    if y < 2:
        raise PreconditionError("v_y requires y >= 2")
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
    cfg = MomentConfig(N=N, M=M, m=0, k=k, epsilon=epsilon)
    notes = ("exploratory: admissible regime ln x >= 192 k unreachable at desk scale",)
    if y is None:
        y = cfg.y
    table.require_gram_index(N + M)
    ts = table.gram[N + 1 : N + M + 1]
    s_vals = table.s_gram[N + 1 : N + M + 1].astype(float)
    v_vals = _v_sum(ts, y)
    r_vals = s_vals + v_vals
    total = csum(r_vals ** (2 * k))
    log10_bound = 2 * k * math.log10(cfg.A * math.exp(-4.0) * k) + math.log10(M)
    return MomentReport.bounded(cfg, total, log10_bound, notes)


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
    if k == 1 and y < 2:
        raise PreconditionError("require y >= 2")
    if k == 2 and not y > math.e ** 3:
        # the theta-window derivation needs y > e^3; the k = 1 case is exact
        # for any cutoff
        raise PreconditionError("require y > e^3 for k = 2")
    if k == 2 and y > _DIAGONAL_Y_CEILING_K2:
        raise ResourceError(f"k = 2 brute force capped at y <= {_DIAGONAL_Y_CEILING_K2}")
    primes = sieve_primes(int(y)).primes.tolist()
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
