"""Locating and certifying zeros of Z(t), and S(t) at Gram points.

Strategy: evaluate Z at every Gram point of the target range, split the range
into blocks bounded by "regular" Gram points (where (-1)^(n-1) Z(t_n) > 0),
and search each block for exactly as many sign changes as it has intervals,
densifying every unmet block in lockstep (one Z call per depth, at the new
midpoints only, up to 64x per interval) until the quota is met.  Regular
endpoints only make S(t_n) even there, not zero, so a met quota is the Rosser
rule and the located count is a lower bound on N(t).  A table ends at its
certified anchor: the last regular Gram point below any block whose quota
cannot be met.  The brackets are then sharpened in lockstep by false position
with Anderson-Bjorck scaling and a minimum step, from the Z values the scan
left at their ends: one Z call per pass, on the brackets still wider than
1e-9, each retiring as it gets there.  A build streams these stages over
runs of `zeta.LOCAL_BRACKETS` Gram points, each with one evaluator: the
caller's z_eval, or `zeta.hardy_z_local`, a Taylor expansion of the
Riemann-Siegel main sum about every Gram point of the run whose one cos+sin
pass per Gram point also gives Z there.  The next run starts at the last
anchor the previous one certified, so a block open at a run's end is carried.
A build holds its output arrays (the Gram points, Z there, and the zeros,
which each run writes into one array) and one run: a run's evaluator, with its
moments, is dropped before the next run's is made, and the Gram solve and
the table constructor work in fixed blocks, so the working set does not grow
with the range.

The trailing edge of a scan stops at the last regular Gram point, so tables
are built with headroom past the index range the caller needs; that policy
lives in `certified_table` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError, UncertifiedRange
from .theta_gram import gram_points, theta
from . import zeta

# zeros and Gram points closer than this are flagged ambiguous
AMBIGUITY_TOL = 1e-9
# final bracket half-width
BRACKET_HALF_WIDTH = 1e-9
DEPTH_CAP = 6  # up to 2^6 = 64 segments per Gram interval
# a bound on the Z calls per run of a build, not the typical count (at most
# 21 a run for build(100030)): the Gram call, one per densification depth, and
# at least 32 refinement passes, as halving alone takes G_1, the widest
# bracket, to 2e-9 in 32.  Refinement takes what densification left.
Z_CALLS = 1 + DEPTH_CAP + 32
# refinement retires a bracket this narrow; its midpoint is the zero
REFINE_WIDTH = 1e-9
# least distance of a secant point from a bracket end: a bracket whose end sits
# on the root is left under REFINE_WIDTH by the next pass
REFINE_STEP = 0.45e-9


@dataclass(frozen=True)
class CriticalZero:
    index: int
    t: float
    bracket_width: float
    certified: bool
    ambiguous: bool = False


@dataclass(frozen=True)
class CountResult:
    t: float
    n_of_t: int
    s_of_t: float
    certified: bool
    at_zero: bool = False


@dataclass
class ScanDiagnostics:
    blocks: int = 0
    densified_blocks: int = 0
    max_depth: int = 0
    failed_blocks: list = field(default_factory=list)
    densify_active: list = field(default_factory=list)  # rows per densification depth
    refine_active: list = field(default_factory=list)   # rows per refinement pass
    refine_heights: list = field(default_factory=list)  # heights per refinement pass


# entries per block of the table constructor's passes
_BLOCK = 8192


def near(points: np.ndarray, ts) -> np.ndarray:
    """True where an entry of the ascending `points` lies within AMBIGUITY_TOL of ts."""
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    hit = np.zeros(flat.size, dtype=bool)
    if not points.size:
        return hit.reshape(ts.shape)
    # the neighbours of each t: points[i] above (the last point past the end)
    # and points[i - 1] below; per block, one index and one difference buffer
    # serve both
    for s in range(0, flat.size, _BLOCK):
        t, out = flat[s : s + _BLOCK], hit[s : s + _BLOCK]
        i = np.searchsorted(points, t)
        np.minimum(i, points.size - 1, out=i)
        d = points.take(i)
        np.less(np.abs(np.subtract(d, t, out=d), out=d), AMBIGUITY_TOL, out=out)
        i -= 1
        np.maximum(i, 0, out=i)
        points.take(i, out=d)
        out |= np.abs(np.subtract(d, t, out=d), out=d) < AMBIGUITY_TOL
    return hit.reshape(ts.shape)


class ZeroTable:
    """Gram points 0..certified_n, their Z values, and the zeros below the last.

    The last Gram point is a regular anchor through which the zero count is
    certified; no zero lies above it.
    """

    def __init__(self, gram, zeros, z_gram, diagnostics=None):
        """Gram points, zeros and Z at the Gram points, built or loaded.  Every
        zero takes the uniform certified half-width: each final bracket fits
        inside [t - 1e-9, t + 1e-9], so built and loaded tables report the
        same bytes.  The flags and S at the Gram points are made a block of
        entries at a time, with no whole-range temporary."""
        gram, zeros = np.asarray(gram, dtype=float), np.asarray(zeros, dtype=float)
        self.gram = gram                  # t_n, index = n
        self.z_gram = z_gram              # Z(t_n)
        self.zeros = zeros                # ascending ordinates, 1-based count
        self.bracket_half = np.broadcast_to(BRACKET_HALF_WIDTH, zeros.size)
        self.diagnostics = diagnostics or ScanDiagnostics()
        self.zero_ambiguous = near(gram, zeros)
        # S(t_n + 0) = N(t_n + 0) - n, a block of counts at a time
        self.s_gram = np.empty(gram.size, dtype=np.int64)
        for s in range(0, gram.size, _BLOCK):
            e = min(s + _BLOCK, gram.size)
            np.subtract(np.searchsorted(zeros, gram[s:e], side="right"),
                        np.arange(s, e), out=self.s_gram[s:e])

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, n_max: int,
              z_eval: Callable[[np.ndarray], np.ndarray] | None = None) -> "ZeroTable":
        if n_max < 1:
            raise DomainError("n_max must be >= 1")
        gram = gram_points(n_max)
        zg = np.empty(gram.size)
        # a met block holds as many zeros as Gram intervals: the zeros a build
        # locates between t_0 and its anchor a are a of them
        zeros = np.empty(gram.size - 1)
        diag = ScanDiagnostics()
        a = known = 0           # the run's first Gram index; Gram points with Z so far
        while known < gram.size:
            b = min(known + zeta.LOCAL_BRACKETS, gram.size)
            run_eval = z_eval or zeta.hardy_z_local(gram[a:b])
            zg[known:b] = z_eval(gram[known:b]) if z_eval else run_eval.at_centres[known - a:]
            known = b
            # (-1)^(n-1) Z(t_n) > 0
            regular = np.where(np.arange(a, b) % 2 == 1, zg[a:b], -zg[a:b]) > 0.0
            if not regular[0]:
                raise UncertifiedRange("no regular anchor at the base of the range")
            anchors = a + np.nonzero(regular)[0]
            lo, hi, z_lo, z_hi, top, depths = _scan(gram, zg, anchors, run_eval, diag)
            _refine(lo, hi, z_lo, z_hi, run_eval, Z_CALLS - 1 - depths, diag)
            zeros[a:top] = 0.5 * (lo + hi)
            a = top
            # the next run's evaluator is built after this one is dropped
            del run_eval, lo, hi, z_lo, z_hi
            if a < anchors[-1]:
                break                   # a block that cannot meet its quota
        return cls(gram[: a + 1], zeros[:a], zg[: a + 1], diag)

    # -- queries -----------------------------------------------------------

    def z_values(self) -> np.ndarray:
        """Z at every Gram point."""
        return self.z_gram

    @property
    def certified_n(self) -> int:
        """The last Gram index, through which the table is certified."""
        return self.gram.size - 1

    @property
    def t_certified(self) -> float:
        return float(self.gram[-1])

    def require_gram_index(self, n: int) -> None:
        """UncertifiedRange if Gram index n lies past the table."""
        if n > self.certified_n:
            raise UncertifiedRange(
                f"gram index {n} beyond certified index {self.certified_n}")

    def _require_certified_t(self, t: float) -> None:
        if t > self.t_certified + 1e-12:
            raise UncertifiedRange(
                f"t = {t} beyond certified height {self.t_certified}")

    def count_zeros(self, t: float) -> CountResult:
        """N(t+0) and S(t+0) from the certified zero list."""
        if not t > 7.0:
            raise PreconditionError("count_zeros requires t > 7")
        self._require_certified_t(t)
        n_of_t = int(np.searchsorted(self.zeros, t, side="right"))
        s_of_t = n_of_t - theta(t).value / math.pi - 1.0
        return CountResult(t=float(t), n_of_t=n_of_t, s_of_t=s_of_t,
                           certified=True, at_zero=bool(near(self.zeros, t)))

    def s_at_gram(self, n: int) -> int:
        """S(t_n + 0) = N(t_n + 0) - n, an exact integer."""
        if n < 0:
            raise PreconditionError("s_at_gram requires n >= 0")
        self.require_gram_index(n)
        return int(self.s_gram[n])

    def find_zeros(self, t_lo: float, t_hi: float) -> list[CriticalZero]:
        if not (7.0 < t_lo < t_hi):
            raise PreconditionError("find_zeros requires 7 < t_lo < t_hi")
        self._require_certified_t(t_hi)
        i = int(np.searchsorted(self.zeros, t_lo, side="right"))
        j = int(np.searchsorted(self.zeros, t_hi, side="right"))
        return [self.zero(k) for k in range(i + 1, j + 1)]

    def completeness_certificate(self, t_lo: float, t_hi: float):
        """True iff located sign changes match N(t_hi+0) - N(t_lo+0)."""
        if not (7.0 < t_lo < t_hi):
            raise PreconditionError("completeness_certificate requires 7 < t_lo < t_hi")
        if t_hi > self.t_certified + 1e-12:
            return False, {"reason": "beyond certified height",
                           "t_certified": self.t_certified,
                           "failed_blocks": list(self.diagnostics.failed_blocks)}
        located = int(np.searchsorted(self.zeros, t_hi, side="right")
                      - np.searchsorted(self.zeros, t_lo, side="right"))
        delta_n = self.count_zeros(t_hi).n_of_t - self.count_zeros(t_lo).n_of_t
        ok = located == delta_n
        return ok, {"located": located, "count_difference": delta_n}

    def zero(self, index: int) -> CriticalZero:
        """Zero by 1-based global index."""
        if not (1 <= index <= self.zeros.size):
            raise UncertifiedRange(f"zero index {index} outside certified table")
        k = index - 1
        return CriticalZero(index=index, t=float(self.zeros[k]),
                            bracket_width=float(self.bracket_half[k]),
                            certified=True, ambiguous=bool(self.zero_ambiguous[k]))


def _scan(gram, zg, anchors, z_eval, diag):
    """Sign-change brackets of the blocks between anchors, densified in lockstep.

    Every Gram interval of an open block is a row of Z values and their signs,
    2^d + 1 wide at depth d.  Each depth calls z_eval once, at the odd columns
    only: the even columns are the previous grid bit for bit, and the Gram
    points carry `zg`.  A block retires once its flips reach its quota; flips
    never drop under subdivision, so an overshoot can only fail.  Returns
    (lo, hi, Z at lo, Z at hi, anchor, depths), cut at the Gram index
    `anchor`: the lower end of the first block unmet at DEPTH_CAP, or the last
    anchor; depths counts the z_eval calls.  Z at hi is never an exact zero:
    one would carry lo's sign.  Runs scanned one after another add into diag.
    """
    quota = np.diff(anchors)
    rows = np.arange(anchors[0], anchors[-1])       # left Gram index per row
    block = np.repeat(np.arange(quota.size), quota)
    signs = np.sign(zg[anchors[0] : anchors[-1] + 1]).astype(np.int8)
    for i in np.nonzero(signs == 0)[0]:             # never the first: it is regular
        signs[i] = signs[i - 1]                     # an exact zero takes its left sign
    grid = np.stack([signs[:-1], signs[1:]], axis=1)
    zgrid = np.stack([zg[rows], zg[rows + 1]], axis=1)
    met_at = np.full(quota.size, -1)
    found = []
    for depth in range(DEPTH_CAP + 1):
        ts = np.linspace(gram[rows], gram[rows + 1], (1 << depth) + 1, axis=1)
        if depth:
            if depth > len(diag.densify_active):
                diag.densify_active.append(0)
            diag.densify_active[depth - 1] += int(rows.size)
            z = z_eval(ts[:, 1::2].ravel()).reshape(rows.size, -1)
            s = np.sign(z)
            finer = np.empty(ts.shape, dtype=np.int8)
            finer[:, ::2] = grid
            # an exact zero carries its left neighbour's sign, as at Gram points
            finer[:, 1::2] = np.where(s == 0, grid[:, :-1], s)
            zfiner = np.empty(ts.shape)
            zfiner[:, ::2] = zgrid
            zfiner[:, 1::2] = z
            grid, zgrid = finer, zfiner
        r, c = np.nonzero(grid[:, :-1] != grid[:, 1:])
        flips = np.bincount(block[r], minlength=quota.size)
        met = flips == quota
        met_at[met] = depth
        take = met[block[r]]
        r, c = r[take], c[take]
        found.append((ts[r, c], ts[r, c + 1], zgrid[r, c], zgrid[r, c + 1]))
        open_rows = flips[block] < quota[block]
        rows, block = rows[open_rows], block[open_rows]
        grid, zgrid = grid[open_rows], zgrid[open_rows]
        if not rows.size:
            break
    unmet = np.nonzero(met_at < 0)[0]
    cut = int(unmet[0]) if unmet.size else quota.size
    if unmet.size:
        diag.failed_blocks.append((int(anchors[cut]), int(anchors[cut + 1])))
    diag.blocks += min(cut + 1, quota.size)
    diag.densified_blocks += int(np.count_nonzero(met_at[:cut] > 0))
    diag.max_depth = max(diag.max_depth, int(met_at[:cut].max(initial=0)))
    lo, hi, z_lo, z_hi = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(lo)
    order = order[lo[order] < gram[anchors[cut]]]
    return lo[order], hi[order], z_lo[order], z_hi[order], int(anchors[cut]), depth


def _ab_scale(f_kept, f_replaced, fx, where):
    """Scale f_kept by m = 1 - fx/f_replaced where `where`, or by 1/2 where m <= 0.1."""
    m = fx[where]
    with np.errstate(divide="ignore", invalid="ignore"):
        m /= f_replaced[where]
    np.subtract(1.0, m, out=m)
    m[~(m > 0.1)] = 0.5
    f_kept[where] *= m


def _secant_points(a, b, fa, fb, out):
    """Secant points of the brackets [a, b], at least REFINE_STEP inside, into `out`.

    The midpoint stands in where the secant point is not finite.
    """
    w = b - a
    np.subtract(fa, fb, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, out, out=out)
    out *= fa                                   # the secant point less a
    wild = ~np.isfinite(out)
    out[wild] = 0.5 * w[wild]
    np.maximum(out, REFINE_STEP, out=out)
    w -= REFINE_STEP
    np.minimum(out, w, out=out)
    out += a


def _refine(lo, hi, z_lo, z_hi, z_eval, passes, diag):
    """Lockstep Anderson-Bjorck refinement of brackets [lo, hi] to width REFINE_WIDTH.

    Each of at most `passes` passes calls z_eval once, on the rows still wider
    than REFINE_WIDTH, at the secant point x of the working ends.  x is moved
    at least REFINE_STEP inside the bracket, so an end that sits on the root
    closes its bracket on the next pass; the midpoint stands in for an x that
    is not finite.  An end that x has not replaced on two passes running has
    its Z value scaled by m = 1 - f(x)/f(replaced end), or by 1/2 where
    m <= 0.1 (Anderson & Bjorck 1973), so both ends move.  An exact zero
    counts as the sign opposite lo, which keeps it inside.  A row that
    bisection alone could only just take to REFINE_WIDTH in the passes left
    is also evaluated at its midpoint, in the same call, and keeps the part of
    its bracket that holds the sign change, so its width at least halves: a
    bracket ends at most max(REFINE_WIDTH, width / 2^passes) wide, and no row
    gives up the secant step.  Narrows lo and hi in place; the working state
    is compacted in place to the unfinished rows after every pass.  Each
    pass adds its rows and heights into diag by pass index, so runs of
    brackets refined one after another keep one tally.
    """
    row = np.nonzero(hi - lo > REFINE_WIDTH)[0]
    a, b, fa, fb = lo[row], hi[row], z_lo[row], z_hi[row]
    s = -np.sign(fb).astype(np.int8)            # sign of Z at lo
    last = np.zeros(row.size, dtype=np.int8)    # end x replaced last pass: +1 a, -1 b
    for k, passes_left in enumerate(range(passes, 0, -1)):
        if not row.size:
            break
        n = row.size
        if k == len(diag.refine_active):
            diag.refine_active.append(0)
            diag.refine_heights.append(0)
        diag.refine_active[k] += n
        pair = np.nonzero(b - a > REFINE_WIDTH * 2.0 ** (passes_left - 1))[0]
        ts = np.empty(n + pair.size)            # the secant points, then the midpoints
        x = ts[:n]
        _secant_points(a, b, fa, fb, x)
        mid = 0.5 * (a[pair] + b[pair])
        fresh = mid != x[pair]                  # unpaired where x is the midpoint
        pair = pair[fresh]
        ts = ts[:n + pair.size]
        ts[n:] = mid[fresh]
        mid = ts[n:]
        diag.refine_heights[k] += int(ts.size)
        fx = z_eval(ts)
        fx, fm = fx[:n], fx[n:]
        left = np.sign(fx) == s                 # x replaces the lo end
        right = ~left
        _ab_scale(fb, fa, fx, left & (last == 1))   # an end kept on two passes running
        _ab_scale(fa, fb, fx, right & (last == -1))
        np.copyto(a, x, where=left)
        np.copyto(fa, fx, where=left)
        np.copyto(b, x, where=right)
        np.copyto(fb, fx, where=right)
        np.copyto(last, 1, where=left)
        np.copyto(last, -1, where=right)
        # a paired row's midpoint then narrows what x left, if it lies inside
        inside = (a[pair] < mid) & (mid < b[pair])
        pair, mid, fm = pair[inside], mid[inside], fm[inside]
        up = np.sign(fm) == s[pair]             # the midpoint replaces the lo end
        a[pair[up]], fa[pair[up]] = mid[up], fm[up]
        b[pair[~up]], fb[pair[~up]] = mid[~up], fm[~up]
        done = b - a <= REFINE_WIDTH
        lo[row[done]], hi[row[done]] = a[done], b[done]
        keep = np.nonzero(~done)[0]             # compacted in place
        for v in (row, a, b, fa, fb, s, last):
            v[:keep.size] = v[keep]
        row, a, b, fa, fb, s, last = (v[:keep.size]
                                      for v in (row, a, b, fa, fb, s, last))
    lo[row], hi[row] = a, b


# ---------------------------------------------------------------------------
# the one table provider, and module-level queries over it

HEADROOM = 40  # Gram points built past the caller's need
# the largest Gram index a table is built for, twice the 1e6 stretch:
# build(3e5) peaks at 90 MB, so build(2e6) needs roughly 0.4 GB
GRAM_CEILING = 2 * 10**6


def require_under_ceiling(n_needed: float) -> None:
    """ResourceError if a table through Gram index n_needed is past GRAM_CEILING."""
    if n_needed > GRAM_CEILING:
        raise ResourceError(f"gram index {n_needed} exceeds ceiling {GRAM_CEILING}")


def certified_table(n_needed: int) -> ZeroTable:
    """Table certified through Gram index n_needed, ending at its certified anchor.

    Builds n_needed + HEADROOM points once.  ResourceError, before building,
    if n_needed exceeds GRAM_CEILING.  UncertifiedRange if the anchor
    falls short of n_needed: a block below n_needed cannot meet its
    quota, or no regular Gram point lies in the headroom.
    """
    require_under_ceiling(n_needed)
    table = ZeroTable.build(n_needed + HEADROOM)
    if table.certified_n < n_needed:
        failed = table.diagnostics.failed_blocks
        why = (f"Gram block {failed[0]} cannot meet its quota" if failed
               else f"no regular Gram point in the {HEADROOM} points past it")
        raise UncertifiedRange(f"gram index {n_needed} not certified: {why}")
    return table


def gram_index_for_height(t: float) -> int:
    """A Gram index whose point lies past height t.

    ResourceError past GRAM_CEILING, checked before rounding: theta is inf
    near the largest float.
    """
    n = theta(max(t, 10.0)).value / math.pi + 1.0
    require_under_ceiling(n)
    return int(math.ceil(n)) + 3


def find_zeros(t_lo: float, t_hi: float) -> list[CriticalZero]:
    return certified_table(gram_index_for_height(t_hi)).find_zeros(t_lo, t_hi)


def count_zeros(t: float) -> CountResult:
    return certified_table(gram_index_for_height(t)).count_zeros(t)


def s_at_gram(n: int) -> int:
    return certified_table(n).s_at_gram(n)


def completeness_certificate(t_lo: float, t_hi: float):
    return certified_table(gram_index_for_height(t_hi)).completeness_certificate(t_lo, t_hi)
