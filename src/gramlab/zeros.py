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
runs of `zeta.LOCAL_BRACKETS` Gram points, each with one evaluator,
`zeta.hardy_z_local`: a Taylor expansion of the Riemann-Siegel main sum about
every Gram point of the run, whose one pass of prime phases through
`zeta._sincos` per Gram point also gives Z there.  The next run starts at the
last anchor the previous one certified, so a block open at a run's end is
carried.
A build cuts its runs into P contiguous parts, P = min(usable CPUs, runs),
and one function, `_part`, builds each: part p starts at split[p], where the
one-part build starts a run, from that run's anchor, and its first run takes
Z over its whole window.  This process builds part 0, and a `Part` each later
part, which returns its window: Z from its first anchor through its last, and
the zeros between.  As Z at a Gram point depends on the point alone and a
run's evaluator on its window alone, the table is bit for bit the one-part
build's, whether the `Part`s fork or, where they may not, run here in turn.
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
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError, UncertifiedRange
from .theta_gram import T_MIN, gram_points, theta
from . import zeta

# zeros and Gram points closer than this are flagged ambiguous
AMBIGUITY_TOL = 1e-9
# final bracket half-width
BRACKET_HALF_WIDTH = 1e-9
DEPTH_CAP = 6  # up to 2^6 = 64 segments per Gram interval
# the evaluator calls a run of a build may make, a bound, not the typical
# count (at most 20 a run for build(100030)): one per densification depth,
# and the rest are refinement passes, at least 32, as halving alone takes G_1,
# the widest bracket, to 2e-9 in 32
Z_CALLS = DEPTH_CAP + 32
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
    ambiguous: bool = False


@dataclass(frozen=True)
class CountResult:
    t: float
    n_of_t: int
    s_of_t: float
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

    def add(self, other: "ScanDiagnostics") -> None:
        """Tally another part's runs into this one, as if scanned after it."""
        self.blocks += other.blocks
        self.densified_blocks += other.densified_blocks
        self.max_depth = max(self.max_depth, other.max_depth)
        self.failed_blocks += other.failed_blocks
        for mine, theirs in ((self.densify_active, other.densify_active),
                             (self.refine_active, other.refine_active),
                             (self.refine_heights, other.refine_heights)):
            mine += [0] * (len(theirs) - len(mine))
            for i, v in enumerate(theirs):
                mine[i] += v


# entries per block of the table constructor's passes
_BLOCK = 8192


def near(points: np.ndarray, ts) -> np.ndarray:
    """True where an entry of the ascending `points` lies within AMBIGUITY_TOL of ts."""
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    hit = np.zeros(flat.size, dtype=bool)
    if not points.size:
        return hit.reshape(ts.shape)
    # per block, the neighbours of each t: points[i] above (the last point
    # past the end) and points[i - 1] below
    for s in range(0, flat.size, _BLOCK):
        t = flat[s : s + _BLOCK]
        i = np.searchsorted(points, t)
        above, below = points[np.minimum(i, points.size - 1)], points[np.maximum(i - 1, 0)]
        hit[s : s + _BLOCK] = np.minimum(abs(above - t), abs(below - t)) < AMBIGUITY_TOL
    return hit.reshape(ts.shape)


def gram_regular(n_lo: int, z: np.ndarray) -> np.ndarray:
    """True where Gram point n = n_lo + i is regular, (-1)^(n-1) Z(t_n) > 0, Z(t_n) = z[i]."""
    return np.where(np.arange(n_lo, n_lo + z.size) % 2 == 1, z, -z) > 0.0


def require_heights(t_lo: float, t_hi: float) -> None:
    """PreconditionError unless 7 < t_lo < t_hi < inf: the heights a zero query takes."""
    if not (T_MIN < t_lo < t_hi):
        raise PreconditionError("require 7 < t_lo < t_hi")
    if t_hi == math.inf:
        raise PreconditionError("require a finite t_hi")


class ZeroTable:
    """Gram points 0..certified_n, their Z values, and the zeros below the last.

    The last Gram point is a regular anchor through which the zero count is
    certified; no zero lies above it.  A query flags as ambiguous only the
    zeros it returns: those within AMBIGUITY_TOL of a Gram point.
    """

    def __init__(self, gram, zeros, z_gram, diagnostics=None):
        """Gram points, zeros and Z at the Gram points, built or loaded.  Every
        zero takes the uniform certified half-width: each final bracket fits
        inside [t - 1e-9, t + 1e-9], so built and loaded tables report the
        same bytes.  S at the Gram points is made a block of entries at a time,
        with no whole-range temporary."""
        gram, zeros = np.asarray(gram, dtype=float), np.asarray(zeros, dtype=float)
        self.gram = gram                  # t_n, index = n
        self.z_gram = z_gram              # Z(t_n)
        self.zeros = zeros                # ascending ordinates, 1-based count
        self.diagnostics = diagnostics or ScanDiagnostics()
        # S(t_n + 0) = N(t_n + 0) - n, a block of counts at a time
        self.s_gram = np.empty(gram.size, dtype=np.int64)
        for s in range(0, gram.size, _BLOCK):
            e = min(s + _BLOCK, gram.size)
            np.subtract(self.n_at(gram[s:e]), np.arange(s, e), out=self.s_gram[s:e])

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, n_max: int) -> "ZeroTable":
        if n_max < 1:
            raise DomainError("n_max must be >= 1")
        gram = gram_points(n_max)
        step = zeta.LOCAL_BRACKETS
        runs = -(-gram.size // step)
        parts = min(_usable_cpus(), runs)
        split = [step * (runs * p // parts) for p in range(parts)] + [gram.size]
        # a met block holds one zero per Gram interval: a build to anchor a has a
        zg, zeros = np.empty(gram.size), np.empty(gram.size - 1)
        a, diag = _build_parts(gram, zg, zeros, split)
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

    def n_at(self, ts):
        """N(t + 0) at heights ts: the zeros of the list at or below each."""
        return np.searchsorted(self.zeros, ts, side="right")

    def _beyond_certified(self, t: float) -> bool:
        return t > self.t_certified + 1e-12

    def _require_certified_t(self, t: float) -> None:
        if self._beyond_certified(t):
            raise UncertifiedRange(
                f"t = {t} beyond certified height {self.t_certified}")

    def count_zeros(self, t: float) -> CountResult:
        """N(t+0) and S(t+0) from the certified zero list."""
        if not t > T_MIN:
            raise PreconditionError("count_zeros requires t > 7")
        self._require_certified_t(t)
        n_of_t = int(self.n_at(t))
        s_of_t = n_of_t - theta(t).value / math.pi - 1.0
        return CountResult(float(t), n_of_t, s_of_t, at_zero=bool(near(self.zeros, t)))

    def s_at_gram(self, n: int) -> int:
        """S(t_n + 0) = N(t_n + 0) - n, an exact integer."""
        if n < 0:
            raise PreconditionError("s_at_gram requires n >= 0")
        self.require_gram_index(n)
        return int(self.s_gram[n])

    def find_zeros(self, t_lo: float, t_hi: float) -> list[CriticalZero]:
        require_heights(t_lo, t_hi)
        self._require_certified_t(t_hi)
        i, j = self.n_at([t_lo, t_hi]).tolist()
        return self._zeros(i, j)

    def completeness_certificate(self, t_lo: float, t_hi: float):
        """(ok, details) for the zeros located in (t_lo, t_hi]: complete at or
        below the anchor t_certified, through which the build checked its count."""
        require_heights(t_lo, t_hi)
        if self._beyond_certified(t_hi):
            return False, {"reason": "beyond certified height",
                           "t_certified": self.t_certified,
                           "failed_blocks": list(self.diagnostics.failed_blocks)}
        i, j = self.n_at([t_lo, t_hi]).tolist()
        return True, {"located": j - i, "t_certified": self.t_certified}

    def zero(self, index: int) -> CriticalZero:
        """Zero by 1-based global index."""
        if not (1 <= index <= self.zeros.size):
            raise UncertifiedRange(f"zero index {index} outside certified table")
        return self._zeros(index - 1, index)[0]

    def _zeros(self, i: int, j: int) -> list[CriticalZero]:
        """Zeros i + 1..j by 1-based index, flagged by one near() call."""
        ts = self.zeros[i:j]
        rows = zip(range(i + 1, j + 1), ts.tolist(), near(self.gram, ts).tolist())
        return [CriticalZero(index=k, t=t, bracket_width=BRACKET_HALF_WIDTH, ambiguous=a)
                for k, t, a in rows]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _may_fork() -> bool:
    """Whether a Part may fork: on Linux, with no other Python thread running,
    and where os.fork would not warn; Python 3.12 and later warns with more
    than one OS thread, as once numpy's OpenBLAS has started its pool."""
    return (sys.platform == "linux" and threading.active_count() == 1
            and (sys.version_info < (3, 12) or len(os.listdir("/proc/self/task")) == 1))


class Part:
    """fn(*args) run beside this process, once: in a child forked at once where
    `_may_fork`, else here at the first result().  The child pickles fn's result
    or error whole (else an error naming what did not pickle), then writes it to
    a pipe and ends with os._exit.  result() reaps it by its pid and returns that
    result or raises that error at each call; a payload that does not unpickle is
    a RuntimeError naming the wait status and why.  close() kills and reaps one unreaped."""

    def __init__(self, fn, *args):
        self._call, self._pid = lambda: fn(*args), 0
        if _may_fork():
            r, w = os.pipe()
            try:
                self._pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if not self._pid:
                try:
                    out = self._outcome()
                    try:
                        payload = pickle.dumps(out)
                    except Exception as e:
                        payload = pickle.dumps(RuntimeError(
                            f"a forked part's {type(out).__name__} did not pickle: {e!r}"))
                    with os.fdopen(w, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(w)
            self._pipe = os.fdopen(r, "rb")

    def _outcome(self):
        try:
            return self._call()
        except BaseException as e:
            return e

    def result(self):
        if self._pid:
            payload = self._pipe.read()
            self._pipe.close()
            status = os.waitpid(self._pid, 0)[1]
            self._pid = 0
            try:
                self._out = pickle.loads(payload)
            except Exception as e:
                self._out = RuntimeError(
                    f"a forked part's payload did not unpickle (wait status {status}): {e!r}")
        elif not hasattr(self, "_out"):
            self._out = self._outcome()
        if isinstance(self._out, BaseException):
            raise self._out
        return self._out

    def close(self) -> None:
        if self._pid:
            import signal  # off the CLI's import path
            self._pipe.close()
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0


def _build_parts(gram, zg, zeros, split) -> tuple[int, ScanDiagnostics]:
    """The anchor a table ends at and its diagnostics, its runs built into zg
    and zeros in parts, p from Gram index split[p] up to split[p + 1]: part 0
    here, each later one as a `Part` whose window is written in at the anchor
    the previous part ended on (its first by construction; else numpy raises on
    the lengths), up to the first that cuts at a failed block; the rest go
    unread.  The Riemann-Siegel correction table is made here first, so no
    forked part makes it again."""
    parts = []
    try:
        if split[2:]:
            zeta._rs_table()
        for start, stop in zip(split[1:], split[2:]):
            parts.append(Part(_part, gram, zg, zeros, start, stop))
        a, cut, diag = _part(gram, zg, zeros, 0, split[1])[:3]
        for part in parts:
            if not cut:
                top, cut, part_diag, z, found = part.result()
                zg[a : top + 1], zeros[a:top] = z, found
                a = top
                diag.add(part_diag)
        return a, diag
    finally:
        for part in parts:
            part.close()


def _part(gram, zg, zeros, start, stop):
    """Build the runs of Gram points from start up to stop into zg and zeros,
    a forked part's own copies, from a, the last regular Gram index below
    start (where the one-part build starts the run at start; at Gram index 0,
    start itself), found from hardy_z_local's Z at the Gram points just below
    in a window that widens until it holds one.  Each run takes one evaluator
    over [its anchor, its end) and writes Z at its Gram points (the first run
    over its whole window, a later one past the previous run's end) and its
    zeros.  Returns the last anchor top, whether a block that cannot meet its
    quota cut there, diagnostics, and the window: Z from a through top, and
    the zeros between."""
    a, width = start, 16
    while a == start > 0:
        lo = max(start - width, 0)
        regular = np.nonzero(gram_regular(lo, zeta.hardy_z_local(gram[lo:start]).at_centres))[0]
        if regular.size:
            a = lo + int(regular[-1])
        elif not lo:
            raise UncertifiedRange("no regular anchor at the base of the range")
        width *= 4
    first, diag, cut = a, ScanDiagnostics(), False
    known = a                           # known: Gram points with Z so far
    for s in range(start, stop, zeta.LOCAL_BRACKETS):
        b = min(s + zeta.LOCAL_BRACKETS, stop)
        run_eval = zeta.hardy_z_local(gram[a:b])
        zg[known:b] = run_eval.at_centres[known - a:]
        known = b
        regular = gram_regular(a, zg[a:b])
        if not regular[0]:
            raise UncertifiedRange("no regular anchor at the base of the range")
        anchors = a + np.nonzero(regular)[0]
        lo, hi, z_lo, z_hi, top, depths = _scan(gram, zg, anchors, run_eval, diag)
        _refine(lo, hi, z_lo, z_hi, run_eval, Z_CALLS - depths, diag)
        zeros[a:top] = 0.5 * (lo + hi)
        a = top
        # the next run's evaluator is built after this one is dropped
        del run_eval, lo, hi, z_lo, z_hi
        if cut := a < anchors[-1]:      # a block that cannot meet its quota
            break
    return a, cut, diag, zg[first : a + 1], zeros[first:a]


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
    """f_kept scaled by m = 1 - fx/f_replaced where `where`, or by 1/2 where
    m <= 0.1, and unchanged elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = 1.0 - fx / f_replaced
        m[~(m > 0.1)] = 0.5
        return np.where(where, f_kept * m, f_kept)


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
    is taken by selection, not masked copies, and is compacted to the
    unfinished rows only after a pass in which some row finished.  Each
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
        fb = _ab_scale(fb, fa, fx, left & (last == 1))  # an end kept on two passes running
        fa = _ab_scale(fa, fb, fx, ~left & (last == -1))
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, fx)
        last = np.where(left, np.int8(1), np.int8(-1))
        # a paired row's midpoint then narrows what x left, if it lies inside
        inside = (a[pair] < mid) & (mid < b[pair])
        pair, mid, fm = pair[inside], mid[inside], fm[inside]
        up = np.sign(fm) == s[pair]             # the midpoint replaces the lo end
        a[pair[up]], fa[pair[up]] = mid[up], fm[up]
        b[pair[~up]], fb[pair[~up]] = mid[~up], fm[~up]
        done = b - a <= REFINE_WIDTH
        if done.any():                          # none does in the first passes
            lo[row[done]], hi[row[done]] = a[done], b[done]
            keep = ~done
            row, a, b, fa, fb, s, last = (v[keep] for v in (row, a, b, fa, fb, s, last))
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
    require_heights(t_lo, t_hi)
    return certified_table(gram_index_for_height(t_hi)).find_zeros(t_lo, t_hi)


def count_zeros(t: float) -> CountResult:
    return certified_table(gram_index_for_height(t)).count_zeros(t)


def s_at_gram(n: int) -> int:
    return certified_table(n).s_at_gram(n)


def completeness_certificate(t_lo: float, t_hi: float):
    require_heights(t_lo, t_hi)
    return certified_table(gram_index_for_height(t_hi)).completeness_certificate(t_lo, t_hi)
