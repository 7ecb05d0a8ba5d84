import hashlib
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gramlab import zeros as zr
from gramlab import zeta as zt
from gramlab import cli, store
from gramlab.errors import PreconditionError, ResourceError, UncertifiedRange
from gramlab.zeros import ScanDiagnostics, ZeroTable, _refine, _scan
from gramlab.theta_gram import gram_points, theta
from conftest import AVX2, AVX512_OFF, X86_V4, count_forks, pinned, simd_target

mpmath.mp.dps = 25

# certified ordinates of the first three zeros, frozen from mpmath.zetazero
FIRST_THREE = (14.134725141734694, 21.022039638771554, 25.010857580145688)


@pytest.fixture(scope="module")
def table_built():
    """Freshly built (not loaded) so brackets and diagnostics are live."""
    return ZeroTable.build(160)


def test_first_three_zeros(table_built):
    zs = table_built.find_zeros(8.0, 30.0)
    assert [z.index for z in zs] == [1, 2, 3]
    for z, ref in zip(zs, FIRST_THREE):
        assert abs(z.t - ref) < 1e-7
        assert z.bracket_width <= 1e-9
        assert z.certified


def test_published_proximity_of_first_and_third_zero(table_built):
    zs = table_built.find_zeros(8.0, 30.0)
    assert abs(zs[0].t - 14.135) <= 0.1
    assert abs(zs[2].t - 25.1) <= 0.1


def test_brackets_exhibit_strict_sign_change(table_built):
    for z in table_built.find_zeros(8.0, 200.0):
        lo = zt.hardy_z(z.t - z.bracket_width).z
        hi = zt.hardy_z(z.t + z.bracket_width).z
        assert lo * hi < 0.0


def test_zeros_bracketed_by_euler_maclaurin(table_small):
    """Z by the Euler-Maclaurin evaluation changes sign across every zero's
    published half-width."""
    zs = table_small.zeros
    lo = zt._hardy_z_em(zs - zr.BRACKET_HALF_WIDTH)[0]
    hi = zt._hardy_z_em(zs + zr.BRACKET_HALF_WIDTH)[0]
    assert np.all(lo * hi < 0.0)


@pytest.mark.slow
def test_zeros_below_the_switch_against_zetazero(table_small):
    """Every zero below RS_SWITCH_T lies within REFINE_WIDTH / 2, plus 1e-11
    for the rounding of Z, of mpmath.zetazero at 25 digits."""
    zs = table_small.zeros[table_small.zeros < zt.RS_SWITCH_T]
    for n, t in enumerate(zs, start=1):
        ref = float(mpmath.zetazero(n).imag)
        assert abs(t - ref) <= zr.REFINE_WIDTH / 2 + 1e-11, n


def test_hutchinson_empty_interval(table_built):
    g = table_built.gram
    assert table_built.find_zeros(float(g[126]), float(g[127])) == []


def test_count_zeros_at_30(table_built):
    assert table_built.count_zeros(30.0).n_of_t == 3


def test_count_zeros_riemann_von_mangoldt_identity(table_built):
    for t in (29.5, 100.1, 250.7):
        cr = table_built.count_zeros(t)
        assert cr.n_of_t == pytest.approx(theta(t).value / math.pi + 1.0 + cr.s_of_t,
                                          abs=1e-9)


def test_s_at_gram_values(table_built):
    assert all(table_built.s_at_gram(n) == 0 for n in range(1, 16))
    assert table_built.s_at_gram(127) == -1
    # the exact identity r(128) = 1 with the empty G_127 forces S = 0 here
    assert table_built.s_at_gram(128) == 0


def test_module_level_queries(monkeypatch):
    # each builds its own certified table through the one provider
    assert zr.count_zeros(30.0).n_of_t == 3
    assert zr.s_at_gram(127) == -1
    assert [z.index for z in zr.find_zeros(8.0, 30.0)] == [1, 2, 3]
    # heights outside 7 < t_lo < t_hi are refused before a table is built
    monkeypatch.setattr(ZeroTable, "build", None)
    for query in (zr.find_zeros, zr.completeness_certificate):
        with pytest.raises(PreconditionError, match="require 7 < t_lo < t_hi"):
            query(50.0, 10.0)


def test_s_bounded_by_9_log_t(table_full):
    s = table_full.s_gram
    bound = 9.0 * np.log(table_full.gram)
    assert np.all(np.abs(s) <= bound)


def test_zero_indices_strictly_increasing(table_built):
    assert np.all(np.diff(table_built.zeros) > 0)


def test_find_zeros_preconditions(table_built):
    with pytest.raises(PreconditionError):
        table_built.find_zeros(6.0, 30.0)
    with pytest.raises(PreconditionError):
        table_built.find_zeros(30.0, 20.0)
    with pytest.raises(UncertifiedRange):
        table_built.find_zeros(8.0, 1e7)


def test_completeness_certificate(table_built):
    ok, diag = table_built.completeness_certificate(8.0, 150.0)
    # an independent count: mpmath.nzeros computes N(t) with its own zeta
    assert ok and diag["located"] == mpmath.nzeros(150.0) - mpmath.nzeros(8.0) == 52
    assert diag["t_certified"] == table_built.t_certified
    ok, diag = table_built.completeness_certificate(8.0, 1e7)
    assert not ok and "beyond certified" in diag["reason"]
    with pytest.raises(PreconditionError):
        table_built.completeness_certificate(150.0, 8.0)


def test_zeros_match_independent_solver(table_built):
    with mpmath.workdps(25):
        for idx in (5, 40, 120):
            ref = float(mpmath.zetazero(idx).imag)
            mine = table_built.zero(idx)
            # evaluation error moves the located root by err/|Z'|, far below
            # the 1e-4 match tolerance used for external tables
            assert abs(mine.t - ref) < 5e-6


def test_densification_contract():
    """A zero pair hidden between grid points appears after subdivision."""
    gram = np.array([0.0, 1.0, 2.0])

    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return (ts - 0.40) * (ts - 0.47) + 0.0 * ts

    diag = ScanDiagnostics()
    lo, hi, z_lo, z_hi, certified_n, depths = _scan(gram, f(gram), np.array([0, 2]), f,
                                                    diag)
    assert certified_n == 2 and lo.size == 2
    assert depths == diag.max_depth == len(diag.densify_active) >= 4
    # the end values are Z at the bracket ends, which refinement reuses
    assert np.array_equal(z_lo, f(lo)) and np.array_equal(z_hi, f(hi))
    # a pair closer than the 64x grid stays hidden: quota unmet, no certificate
    def g(ts):
        ts = np.asarray(ts, dtype=float)
        return (ts - 0.400) * (ts - 0.401)

    lo, hi, z_lo, z_hi, certified_n, depths = _scan(gram, g(gram), np.array([0, 2]), g,
                                                    ScanDiagnostics())
    assert certified_n == 0 and lo.size == 0 and depths == zr.DEPTH_CAP


def _refine_one(f, lo, hi, passes=zr.Z_CALLS - 1 - zr.DEPTH_CAP):
    """_refine on the one bracket [lo, hi]: (lo, hi, Z calls) after it.

    The default pass budget is the smallest a build leaves refinement.
    """
    calls = []

    def z(ts):
        calls.append(np.array(ts, dtype=float))
        return f(np.asarray(ts, dtype=float))

    diag = ScanDiagnostics()
    a, b = np.array([lo]), np.array([hi])
    _refine(a, b, f(a), f(b), z, passes, diag)
    heights = np.concatenate(calls) if calls else np.empty(0)
    # never a height twice, nor a bracket end, which the scan evaluated
    assert np.unique(np.append(heights, [lo, hi])).size == heights.size + 2
    assert len(calls) == len(diag.refine_active) <= passes
    assert diag.refine_heights == [c.size for c in calls]
    return float(a[0]), float(b[0]), len(calls)


def test_refine_cos_root():
    lo, hi, passes = _refine_one(np.cos, 1.0, 2.0)
    assert hi - lo <= zr.REFINE_WIDTH
    assert abs(0.5 * (lo + hi) - math.pi / 2) < 1e-9
    assert passes < 10                       # bisection takes 30


def test_refine_convex_stall():
    """Plain false position keeps the left end of t^10 - 1 on [0, 1.5]."""
    def f(ts):
        return ts ** 10 - 1.0

    a, b = 0.0, 1.5
    for _ in range(32):
        x = a - f(a) * (b - a) / (f(b) - f(a))
        a, b = (x, b) if f(x) < 0 else (a, x)
    assert b - a > 0.5
    lo, hi, _ = _refine_one(f, 0.0, 1.5)
    assert hi - lo <= zr.REFINE_WIDTH and lo <= 1.0 <= hi
    # with room to spare, the scaled end values alone converge
    lo, hi, passes = _refine_one(f, 0.0, 1.5, passes=64)
    assert hi - lo <= zr.REFINE_WIDTH and passes < 20
    # short of passes, the midpoints paired with the secant points still finish
    lo, hi, passes = _refine_one(f, 0.0, 1.5, passes=12)
    assert passes <= 12 and hi - lo <= zr.REFINE_WIDTH and lo <= 1.0 <= hi


def test_refine_end_on_the_root():
    """A secant point rounding onto an end that sits on the root still moves inside."""
    lo, hi, passes = _refine_one(np.cos, math.pi / 2, 2.0)
    assert passes <= 2                       # bisection takes about 30
    assert hi - lo <= zr.REFINE_WIDTH and lo <= mpmath.pi / 2 <= hi


def test_refine_one_sided_secant_keeps_the_budget():
    """Every secant point lands left of the root; paired midpoints halve the width."""
    secants = []

    def f(ts):
        secants.append(ts[0])
        return np.exp(700.0 * (ts - 0.7)) - 1.0

    lo, hi, passes = _refine_one(f, 0.0, 1.0, passes=8)
    assert max(secants[2:]) < 0.7            # the first two calls are the ends
    assert passes == 8 and hi - lo <= 1.0 / 2 ** 8 and lo <= 0.7 <= hi


def test_refine_secant_on_the_root():
    """An exact zero at the secant point counts as the sign opposite lo."""
    lo, hi, _ = _refine_one(lambda ts: ts - 1.5, 1.0, 2.0)
    assert hi == 1.5 and 1.5 - zr.REFINE_WIDTH <= lo < 1.5


def test_refine_narrow_bracket_makes_no_call():
    lo, hi, passes = _refine_one(np.cos, 1.5707963264, 1.5707963271)
    assert passes == 0 and (lo, hi) == (1.5707963264, 1.5707963271)


# BLAKE2b-128 of _refine's lo, hi and pass tallies on the synthetic set below,
# taken before its selections, scaling and compaction were rewritten
REFINE_DIGEST = "d2504617a3100237cbd2f0b951cd1e96"


def test_refine_bits_pinned():
    """2,000 brackets of expm1(a(t) sin(pi t)), a(t) in [1, 12]: the convex
    branches stall false position, so Anderson-Bjorck scaling acts, and the
    widest brackets need the paired midpoints of a short pass budget.  No
    rewrite of the refinement loop may move a bit of its output."""
    def f(ts):
        return np.expm1((6.5 + 5.5 * np.sin(ts / 7.0)) * np.sin(np.pi * ts))

    rng = np.random.default_rng(2026)
    roots = np.sort(rng.choice(np.arange(1, 20001), 2000, replace=False)).astype(float)
    lo = roots - rng.uniform(1e-10, 0.45, roots.size)
    hi = roots + rng.uniform(1e-10, 0.45, roots.size)
    diag = ScanDiagnostics()
    _refine(lo, hi, f(lo), f(hi), f, 22, diag)
    assert np.all(hi - lo <= zr.REFINE_WIDTH) and np.all((lo <= roots) & (roots <= hi))
    h = hashlib.blake2b(digest_size=16)
    for array in (lo, hi, np.array(diag.refine_active), np.array(diag.refine_heights)):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    assert h.hexdigest() == REFINE_DIGEST


def test_build_evaluates_each_height_once():
    """One Z call per densification depth and per refinement pass, no height twice."""
    calls = []

    def counter(ts):
        calls.append(np.array(ts, dtype=float))
        return zt.hardy_z_many(ts)

    table = ZeroTable.build(2000, z_eval=counter)
    heights = np.concatenate(calls)
    assert np.unique(heights).size == heights.size
    # one Gram pass, the densification depths, and the refinement passes:
    # refinement may use what densification left of the Z_CALLS budget
    assert len(calls) <= 1 + zr.DEPTH_CAP + 32
    # an injected z_eval refines through itself: the counter sees every height
    assert np.array_equal(table.zeros,
                          ZeroTable.build(2000, z_eval=zt.hardy_z_many).zeros)


def test_build_refinement_counts(monkeypatch):
    """Refinement of build(20000) takes 13 passes and 6.41 heights per zero.

    Each run of Gram points makes one Gram call, its densification depths
    and its refinement passes, in that order, and the passes add up across
    runs.  Counts, not times, so they repeat exactly.  A budget rule that
    traps slow rows into bisection to the last pass (33 passes, 9.31 heights)
    fails it.
    """
    calls, marks = [], []
    refine = zr._refine

    def counter(ts):
        calls.append(np.array(ts, dtype=float))
        return zt.hardy_z_many(ts)

    def marked(*args):
        marks.append(len(calls))
        refine(*args)
        marks.append(len(calls))

    monkeypatch.setattr(zr, "_refine", marked)
    table = ZeroTable.build(20000, z_eval=counter)
    diag = table.diagnostics
    starts = [0] + marks[1::2]                   # each run's Gram call, then the end
    assert starts[-1] == len(calls) and len(starts) > 2
    gram_calls = []
    depth_sums = [0] * len(diag.densify_active)
    pass_sums = [0] * len(diag.refine_heights)
    for start, first, last in zip(starts, marks[::2], marks[1::2]):
        gram_calls.append(calls[start])
        densify, passes = calls[start + 1 : first], calls[first:last]
        assert len(densify) <= zr.DEPTH_CAP
        assert 1 + len(densify) + len(passes) <= zr.Z_CALLS
        for d, c in enumerate(densify):
            depth_sums[d] += c.size
        for k, c in enumerate(passes):
            pass_sums[k] += c.size
    # the Gram calls take every Gram point once, in order
    assert np.array_equal(np.concatenate(gram_calls), gram_points(20000))
    assert depth_sums == [rows << d for d, rows in enumerate(diag.densify_active)]
    assert pass_sums == diag.refine_heights
    assert len(diag.refine_heights) <= 16
    assert sum(diag.refine_heights) / table.zeros.size <= 6.75


@pytest.fixture(scope="module")
def default_and_direct_20000():
    """build(20000) refined by expansion, and by the direct kernel passed in."""
    return ZeroTable.build(20000), ZeroTable.build(20000, z_eval=zt.hardy_z_many)


def test_build_local_refinement_counts(default_and_direct_20000):
    """Diagnostics sum each pass across the runs; the budget holds."""
    table, direct = default_and_direct_20000
    diag = table.diagnostics
    assert len(diag.refine_heights) <= 16
    assert sum(diag.refine_heights) / table.zeros.size <= 6.75
    assert diag.refine_active[0] == direct.diagnostics.refine_active[0]
    assert np.all(np.diff(diag.refine_active) <= 0)


def test_build_local_refinement_keeps_the_zeros(default_and_direct_20000):
    table, direct = default_and_direct_20000
    assert np.array_equal(table.gram, direct.gram)
    assert np.array_equal(table.z_values(), direct.z_values())
    assert np.max(np.abs(table.zeros - direct.zeros)) <= zr.BRACKET_HALF_WIDTH
    # below RS_SWITCH_T both builds take the same path
    low = table.zeros < zt.RS_SWITCH_T
    assert np.array_equal(table.zeros[low], direct.zeros[low])


def test_build_in_short_runs_matches_one_long_run(monkeypatch):
    """Runs of 50 Gram points end inside Rosser blocks, which are carried, not cut."""
    whole = ZeroTable.build(5000)
    monkeypatch.setattr(zt, "LOCAL_BRACKETS", 50)
    runs = ZeroTable.build(5000)
    n = np.arange(49, whole.certified_n, 50)             # each run's last Gram point
    assert np.any((-1) ** (n - 1) * whole.z_gram[n] < 0.0)   # inside a block
    for name in ("gram", "z_gram", "s_gram"):
        assert np.array_equal(getattr(runs, name), getattr(whole, name))
    assert runs.certified_n == whole.certified_n
    assert whole.zeros.size == whole.certified_n   # a built table ends at zero #anchor
    d, w = runs.diagnostics, whole.diagnostics
    assert (d.blocks, d.densified_blocks, d.max_depth, d.densify_active, d.failed_blocks) \
        == (w.blocks, w.densified_blocks, w.max_depth, w.densify_active, [])
    assert np.max(np.abs(runs.zeros - whole.zeros)) <= zr.BRACKET_HALF_WIDTH
    hidden = ZeroTable.build(5000, z_eval=_hide_g128())
    assert hidden.certified_n == 126
    assert hidden.diagnostics.failed_blocks == [(126, 128)]


@pytest.mark.parametrize("cpus, step", [(1, zt.LOCAL_BRACKETS), (2, 50)])
def test_build_makes_no_direct_riemann_siegel_call(monkeypatch, cpus, step):
    """Above RS_SWITCH_T a build takes every Z value from its runs' expansions,
    and a forked part finds its first anchor from an expansion's at_centres: a
    call in a child raises there and reaches the caller."""
    def refusing(ts):
        raise AssertionError(f"hardy_z_many on {np.size(ts)} heights in process {os.getpid()}")

    monkeypatch.setattr(zt, "hardy_z_many", refusing)
    monkeypatch.setattr(zt, "LOCAL_BRACKETS", step)
    forks = count_forks(monkeypatch)
    table = _build_on_cpus(monkeypatch, cpus)
    assert table.certified_n == 5000
    assert len(forks) == cpus - 1


# -- a build in parts: runs of 50 Gram points make build(5000) 101 runs, cut
# into one part per usable CPU

@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(zt, "LOCAL_BRACKETS", 50)


def _build_on_cpus(monkeypatch, cpus, z_eval=None, n_max=5000):
    monkeypatch.setattr(zr, "_usable_cpus", lambda: cpus)
    return ZeroTable.build(n_max, z_eval)


def _assert_same_table(got, want):
    for name in ("gram", "z_gram", "zeros", "s_gram"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.certified_n == want.certified_n
    assert asdict(got.diagnostics) == asdict(want.diagnostics)


def _hide_local(m):
    """zeta.hardy_z_local with G_m's zeros hidden, as _hide_g128 hides them
    from a z_eval: Z keeps its sign at t_(m-1) across G_m, and at_centres,
    Z at the Gram points, is the expansion's own."""
    t_lo, t_hi = gram_points(m, m - 1)
    sign = math.copysign(1.0, zt.hardy_z(float(t_lo)).z)
    local = zt.hardy_z_local

    def hiding(c):
        run = local(c)

        def z(ts):
            out = run(ts)
            inside = (t_lo < ts) & (ts < t_hi)
            out[inside] = sign * np.abs(out[inside])
            return out

        z.at_centres = run.at_centres
        return z

    return hiding


@pytest.fixture(scope="module")
def one_part_5000():
    """build(5000) in runs of 50 Gram points, in one part."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zt, "LOCAL_BRACKETS", 50)
        mp.setattr(zr, "_usable_cpus", lambda: 1)
        return ZeroTable.build(5000)


def test_build_in_parts_is_the_one_part_build(short_runs, monkeypatch, one_part_5000):
    """Every array and every diagnostic of a build in 2, 3 or 4 parts is the
    one-part build's."""
    forks = count_forks(monkeypatch)
    for cpus in (2, 3, 4):
        forks.clear()
        _assert_same_table(_build_on_cpus(monkeypatch, cpus), one_part_5000)
        assert len(forks) == cpus - 1
    assert one_part_5000.certified_n == 5000


@pytest.mark.parametrize("where", ["part 0", "a later part"])
def test_build_in_parts_ends_at_the_first_failed_block(short_runs, monkeypatch, one_part_5000,
                                                       where):
    """A block that cannot meet its quota ends the table where the one-part
    build ends it: in part 0 (G_128) or past split 2500, which two to four
    parts put in a later part."""
    if where == "part 0":
        m = 128
    else:                                       # a Gram interval holding two zeros
        counts = np.diff(one_part_5000.n_at(one_part_5000.gram[2600:]))
        m = 2601 + int(np.nonzero(counts == 2)[0][0])
    monkeypatch.setattr(zt, "hardy_z_local", _hide_local(m))
    one = _build_on_cpus(monkeypatch, 1)
    lo, hi = one.diagnostics.failed_blocks[0]
    assert one.diagnostics.failed_blocks == [(lo, hi)] and one.certified_n == lo < m <= hi
    if m == 128:
        assert (lo, hi) == (126, 128)
    for cpus in (2, 3, 4):
        _assert_same_table(_build_on_cpus(monkeypatch, cpus), one)


def test_build_in_parts_raises_a_later_parts_error(short_runs, monkeypatch):
    """An error in a child's part reaches the caller with its type and
    message; one in a part past a failed block is discarded with it."""
    t_raise = float(gram_points(4000, 4000)[0])
    local = zt.hardy_z_local

    def failing(c):
        if c[-1] > t_raise:
            raise ValueError(f"no expansion past {t_raise} in process {os.getpid()}")
        return local(c)

    monkeypatch.setattr(zt, "hardy_z_local", failing)
    with pytest.raises(ValueError, match=r"^no expansion past [\d.]+ in process \d+$") as err:
        _build_on_cpus(monkeypatch, 2)
    assert err.value.args[0].split()[-1] != str(os.getpid())    # raised in the child
    monkeypatch.setattr(zt, "hardy_z_local", _hide_local(128))     # hides G_128 from `failing`
    table = _build_on_cpus(monkeypatch, 2)
    assert table.certified_n == 126 and table.diagnostics.failed_blocks == [(126, 128)]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_part_0_leaves_no_child(short_runs, monkeypatch, error):
    """Part 0 failing partway, in this process only, ends the build with its
    error; conftest's check then finds no child process left."""
    parent, refine, runs = os.getpid(), zr._refine, []

    def refine_then_fail(*args):
        if os.getpid() == parent:
            runs.append(1)
            if len(runs) == 10:
                raise error("part 0 failed")
        refine(*args)

    monkeypatch.setattr(zr, "_refine", refine_then_fail)
    with pytest.raises(error, match="part 0 failed"):
        _build_on_cpus(monkeypatch, 4)
    assert len(runs) == 10


def test_build_forks_only_for_its_own_evaluator_and_thread(short_runs, monkeypatch):
    """One fork per later part; none for a caller's z_eval, or while another
    Python thread runs."""
    forks = count_forks(monkeypatch)
    for cpus in (1, 2, 3, 4):
        forks.clear()
        _build_on_cpus(monkeypatch, cpus, n_max=1000)
        assert len(forks) == cpus - 1
    forks.clear()
    _build_on_cpus(monkeypatch, 4, z_eval=zt.hardy_z_many, n_max=1000)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        _build_on_cpus(monkeypatch, 4, n_max=1000)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []


def _fails(tag):
    raise LookupError(f"{tag} in process {os.getpid()}")


def test_a_parts_error_reaches_the_caller(monkeypatch):
    """An error raised in a forked Part is raised by its result(), with its type
    and message; in process, where no fork is allowed, fn runs at the first
    result() and no sooner, once."""
    forks = count_forks(monkeypatch)
    part = zr.Part(_fails, "forked")
    assert len(forks) == 1
    with pytest.raises(LookupError, match=r"^forked in process \d+$") as err:
        part.result()
    assert err.value.args[0].split()[-1] != str(os.getpid())
    part.close()                                # reaped already: a no-op
    monkeypatch.setattr(zr, "_may_fork", lambda: False)
    with pytest.raises(LookupError, match=f"^in turn in process {os.getpid()}$"):
        zr.Part(_fails, "in turn").result()
    calls = []
    part = zr.Part(lambda: calls.append(1) or len(calls))
    assert calls == [] and part.result() == part.result() == 1 and len(forks) == 1


@pytest.mark.parametrize("version, tasks, may", [((3, 11, 7), 2, True), ((3, 12, 0), 1, True),
                                                 ((3, 12, 0), 2, False), ((3, 13, 1), 3, False)])
def test_a_part_forks_on_3_12_only_in_a_process_of_one_os_thread(monkeypatch, version,
                                                                 tasks, may):
    """Python 3.12 and later warns on os.fork in a process of more than one OS
    thread, so there no Part forks; numpy's OpenBLAS starts a pool thread on
    import where it has more than one CPU, so in practice nothing forks there."""
    listdir = os.listdir
    with monkeypatch.context() as mp:
        mp.setattr(sys, "version_info", version)
        mp.setattr(os, "listdir", lambda path: list(map(str, range(tasks)))
                   if path == "/proc/self/task" else listdir(path))
        allowed = zr._may_fork()
    assert allowed is may


def test_cold_verify_paper_forks_its_sums_and_a_build_part(monkeypatch, tmp_path, capsys):
    """With 2 usable CPUs, a cold verify-paper forks twice: its prime sums, and
    the later part of a build of 3 runs.  While another Python thread runs it
    forks nothing, takes both in process, and prints the same bytes, the
    checked-in report's, and the same range and sidecar files."""
    monkeypatch.setattr(zt, "LOCAL_BRACKETS", 500)
    monkeypatch.setattr(zr, "_usable_cpus", lambda: 2)
    forks = count_forks(monkeypatch)

    def verify_paper(cache):
        monkeypatch.setattr(sys, "argv", ["gramlab", "--cache-dir", str(cache), "--format",
                                          "json", "verify-paper", "--n-limit", "1200"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        return capsys.readouterr(), exc.value.code

    forked = verify_paper(tmp_path / "forked")
    assert len(forks) == 2
    forks.clear()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        in_process = verify_paper(tmp_path / "in_process")
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
    assert forked == in_process
    pinned_report = (Path(__file__).parent / "data" / "verify_paper_1200.json").read_text()
    assert forked == ((pinned_report, ""), 0)
    files = sorted(p.relative_to(tmp_path / "forked")
                   for p in (tmp_path / "forked").rglob("*") if p.is_file())
    assert [f.name for f in files] == ["manifest.json", "parts.json", "gram.csv",
                                       "manifest.json", "zeros.csv"]
    for f in files:
        got, want = ((tmp_path / run / f).read_text() for run in ("forked", "in_process"))
        if f == Path(cli.RANGE_SUBDIR, "manifest.json"):
            got, want = (re.sub(r'"created": "[^"]*"', "", v) for v in (got, want))
        assert got == want, f


def test_table_ceiling_refuses_before_building(monkeypatch, tmp_path):
    def no_build(cls, n_max, z_eval=None):
        raise AssertionError(f"built {n_max}")

    monkeypatch.setattr(ZeroTable, "build", classmethod(no_build))
    too_big = zr.GRAM_CEILING + 1
    assert zr.GRAM_CEILING >= 10**6 + zr.HEADROOM      # the 1e6 stretch fits
    with pytest.raises(ResourceError, match="ceiling"):
        zr.certified_table(too_big)
    with pytest.raises(ResourceError, match="ceiling"):
        store.cached_table(too_big, tmp_path / "zrange")
    assert not (tmp_path / "zrange").exists()


def _hide_g128(default=zt.hardy_z_many):
    """Z with G_128's two zeros hidden: the block (126, 128) cannot meet its quota."""
    t127, t128 = gram_points(128, 127)

    def hide_g128(ts):
        # Z < 0 at t_126, t_127 and t_128; keep it so across G_128's two zeros
        z = default(ts)
        inside = (t127 < ts) & (ts < t128)
        z[inside] = -np.abs(z[inside])
        return z

    return hide_g128


def test_certified_table_builds_once_and_names_the_failed_block(monkeypatch):
    """A block below the need that cannot meet its quota fails the request."""
    build = ZeroTable.build.__func__
    builds = []

    def capped_build(cls, n_max, z_eval=None):
        builds.append(n_max)
        assert len(builds) == 1, f"rebuilt at {builds}"
        return build(cls, n_max, z_eval or _hide_g128())

    monkeypatch.setattr(ZeroTable, "build", classmethod(capped_build))
    with pytest.raises(UncertifiedRange, match=r"\(126, 128\)"):
        zr.certified_table(200)
    assert builds == [200 + zr.HEADROOM]


@pytest.mark.parametrize("n_max, hide, anchor", [(160, False, 160), (127, False, 126),
                                                (160, True, 126)])
def test_build_ends_at_a_regular_anchor(n_max, hide, anchor):
    """A build keeps no Gram point past its certified anchor, and no zero above it."""
    table = ZeroTable.build(n_max, z_eval=_hide_g128() if hide else None)
    n = table.certified_n
    assert n == anchor == table.gram.size - 1
    assert (-1) ** (n - 1) * table.z_values()[n] > 0.0
    assert table.zeros[-1] < table.gram[-1]
    assert table.diagnostics.failed_blocks == ([(126, 128)] if hide else [])


def test_from_arrays_roundtrip_semantics(table_built):
    clone = ZeroTable(table_built.gram, table_built.zeros, table_built.z_values())
    assert clone.certified_n == table_built.certified_n
    assert np.array_equal(clone.s_gram, table_built.s_gram)
    assert clone.count_zeros(100.0).n_of_t == table_built.count_zeros(100.0).n_of_t


def test_ambiguity_flags_absent_at_this_height(table_built):
    # no zero within 1e-9 of a Gram point in the built range
    assert not zr.near(table_built.gram, table_built.zeros).any()
    assert not any(z.ambiguous for z in table_built.find_zeros(8.0, table_built.t_certified))


def _near_reference(points, ts):
    """zeros.near as one expression over both neighbours."""
    i = np.searchsorted(points, ts)
    below = points[np.maximum(i - 1, 0)]
    above = points[np.minimum(i, points.size - 1)]
    return (np.abs(below - ts) < zr.AMBIGUITY_TOL) | (np.abs(above - ts) < zr.AMBIGUITY_TOL)


def _count_near(monkeypatch) -> list:
    """zeros.near wrapped to record how many heights each call passes it."""
    calls, near = [], zr.near
    monkeypatch.setattr(zr, "near", lambda points, ts: calls.append(np.size(ts)) or near(points, ts))
    return calls


def test_ambiguity_flags_are_made_per_query(table_built, tmp_path, monkeypatch):
    """A built table and a loaded one flag the zeros within AMBIGUITY_TOL of a
    Gram point, by the reference expression; neither a build, a construction
    nor a load runs near() for them, and a query runs it once, on the zeros
    it returns."""
    gram = table_built.gram
    zeros = table_built.zeros.copy()
    planted = np.searchsorted(zeros, gram[[20, 60]])
    zeros[planted] = gram[[20, 60]] + [5e-10, -5e-10]
    calls = _count_near(monkeypatch)
    built = ZeroTable.build(100)
    store.save_range(ZeroTable(gram, zeros, table_built.z_values()), tmp_path / "rng")
    loaded, _ = store.load_range(tmp_path / "rng")
    assert calls == []
    for table in (built, loaded):
        want = _near_reference(table.gram, table.zeros)
        assert table.zero(1).ambiguous == bool(want[0])
        assert [z.ambiguous for z in table.find_zeros(8.0, table.t_certified)] == want.tolist()
    assert calls == [1, built.zeros.size, 1, loaded.zeros.size]
    assert np.nonzero(want)[0].tolist() == planted.tolist()
    assert loaded.zero(int(planted[0]) + 1).ambiguous


def test_a_query_flags_only_the_zeros_it_returns(table_full, monkeypatch):
    """Hutchinson's two zeros in G_135 take one near() call on two heights;
    the table used to flag all of its 100,040 zeros to answer them."""
    calls = _count_near(monkeypatch)
    zs = table_full.find_zeros(float(table_full.gram[134]), float(table_full.gram[135]))
    assert [z.index for z in zs] == [135, 136] and calls == [2]
    assert not any(z.ambiguous for z in zs)


def test_table_construction_is_lean(table_full):
    """S at the Gram points, made a block of counts at a time: the 1e5
    table's construction peaked at 6.2 MB with whole-range temporaries.
    near() agrees with its reference expression."""
    import tracemalloc

    gram, zeros = table_full.gram.copy(), table_full.zeros.copy()
    tracemalloc.start()
    try:
        table = ZeroTable(gram, zeros, table_full.z_values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20
    s_ref = np.searchsorted(zeros, gram, side="right") - np.arange(gram.size)
    assert table.s_gram.dtype == np.int64 and np.array_equal(table.s_gram, s_ref)
    assert np.array_equal(zr.near(gram, zeros), _near_reference(gram, zeros))
    rng = np.random.default_rng(5)
    planted = gram[rng.integers(0, gram.size, 200)] + rng.uniform(-2e-9, 2e-9, 200)
    for ts in (planted, gram[:1] - 1.0, gram[-1:] + 5e-10, gram):
        assert np.array_equal(zr.near(zeros, ts), _near_reference(zeros, ts))
        assert np.array_equal(zr.near(gram, ts), _near_reference(gram, ts))
    assert bool(zr.near(gram, float(gram[7]))) and not zr.near(gram, float(gram[7]) + 2e-9)


# BLAKE2b-128 of the fixture tables' arrays, taken before the Gram solve was
# blocked and the expansion's moments were stored a row per order; zeros and
# z_gram taken again when RS_SWITCH_T moved from 30 to 510, and again when
# every phase in zeta went through _sincos (one zero of table_small moved, by
# 1.1e-13, and two of table_mid, the larger by 4.5e-10).  One set per numpy
# loop target: gram (of table_mid), zeros and z_gram move with it, s_gram and
# the ambiguity flags near(gram, zeros) do not.
TABLE_DIGESTS = {
    "table_small": {
        X86_V4: {"gram": "cc8dcacaef150ba97edc03c9e29e781a",
                 "zeros": "be4ca92903c7eec6536e77587c89b2a7",
                 "z_gram": "16188e736eb501adca46ccea11bdc83b",
                 "s_gram": "993d0e7548e07458b4095230059e933f",
                 "zero_ambiguous": "37e699432a6aeb33d37a14773c27923b"},
        AVX2: {"gram": "cc8dcacaef150ba97edc03c9e29e781a",
               "zeros": "5d57ced1d74387a7fb04f8ae3630f23e",
               "z_gram": "782e61abd7de5b935a2a23b5f48084e0",
               "s_gram": "993d0e7548e07458b4095230059e933f",
               "zero_ambiguous": "37e699432a6aeb33d37a14773c27923b"}},
    "table_mid": {
        X86_V4: {"gram": "5d5d50c046c1816a6eb665a5275719eb",
                 "zeros": "ba7e6f61b1292eb88b441d6c63d2a081",
                 "z_gram": "17c7ee4d354caeb460478c65feec8bb4",
                 "s_gram": "d6b051562e5fef695e1a8c909874eb57",
                 "zero_ambiguous": "0dfcddd703bae85d08b2f749857e5cd8"},
        AVX2: {"gram": "052d1d20f4fb0e173a8e481ad7864ad8",
               "zeros": "88347d844dfa10e1b30b517852f2c47c",
               "z_gram": "d9ee5e717b087a12b96cd622a0a9d7a1",
               "s_gram": "d6b051562e5fef695e1a8c909874eb57",
               "zero_ambiguous": "0dfcddd703bae85d08b2f749857e5cd8"}},
}


@pytest.mark.parametrize("fixture", sorted(TABLE_DIGESTS))
def test_table_bits_pinned(request, fixture):
    """No layout change to the Gram solve, the expansion or the build may move a bit."""
    table = request.getfixturevalue(fixture)
    for name, digest in pinned(TABLE_DIGESTS[fixture]).items():
        array = zr.near(table.gram, table.zeros) if name == "zero_ambiguous" else getattr(table, name)
        array = np.ascontiguousarray(array)
        assert hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest() == digest, name


def test_bit_pins_hold_on_the_avx2_loops(tmp_path):
    """The Gram-point and table pins of the loops an AVX2-only CPU runs, in a
    child process with numpy's AVX-512 loops switched off."""
    if simd_target() != X86_V4:
        pytest.skip(f"numpy runs the {simd_target()} loops here: test_table_bits_pinned "
                    "checks their pins")
    tests = Path(__file__).parent
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "child"),
         f"{tests}/test_theta_gram.py::test_gram_points_bits_pinned",
         f"{tests}/test_zeros.py::test_table_bits_pinned"],
        env={**os.environ, **AVX512_OFF}, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:]
    assert "3 passed" in run.stdout


def test_table_construction_at_1e6_is_flat():
    """ZeroTable(gram, zeros, z) at 1e6 Gram points holds S at the Gram points
    and one block of temporaries: whole-range index and difference buffers
    took about 16 MB more."""
    import tracemalloc

    gram = gram_points(10**6)
    zeros = 0.5 * (gram[:-1] + gram[1:])
    zeros[::1000] = gram[1::1000] + 5e-10             # some flagged
    z = np.zeros_like(gram)
    tracemalloc.start()
    try:
        table = ZeroTable(gram, zeros, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.s_gram.nbytes <= 1.5 * 2**20
    flags = zr.near(gram, zeros)
    assert np.array_equal(flags, _near_reference(gram, zeros))
    assert np.count_nonzero(flags) == 1000
    s_ref = np.searchsorted(zeros, gram, side="right") - np.arange(gram.size)
    assert table.s_gram.dtype == np.int64 and np.array_equal(table.s_gram, s_ref)
