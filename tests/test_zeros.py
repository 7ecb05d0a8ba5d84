import hashlib
import math

import mpmath
import numpy as np
import pytest

from gramlab import zeros as zr
from gramlab import zeta as zt
from gramlab import store
from gramlab.errors import PreconditionError, ResourceError, UncertifiedRange
from gramlab.zeros import ScanDiagnostics, ZeroTable, _refine, _scan
from gramlab.theta_gram import gram_points, theta

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


def test_module_level_queries():
    # each builds its own certified table through the one provider
    assert zr.count_zeros(30.0).n_of_t == 3
    assert zr.s_at_gram(127) == -1
    assert [z.index for z in zr.find_zeros(8.0, 30.0)] == [1, 2, 3]


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
    assert ok and diag["located"] == diag["count_difference"]
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


def test_build_makes_no_direct_riemann_siegel_call(monkeypatch):
    """Above RS_SWITCH_T a build takes every Z value from its runs' expansions."""
    heights = []
    many = zt.hardy_z_many

    def recording(ts):
        heights.append(np.array(ts, dtype=float))
        return many(ts)

    monkeypatch.setattr(zt, "hardy_z_many", recording)
    table = ZeroTable.build(5000)
    assert table.certified_n == 5000
    assert heights == []


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
    assert not table_built.zero_ambiguous.any()


def _near_reference(points, ts):
    """zeros.near as one expression over both neighbours."""
    i = np.searchsorted(points, ts)
    below = points[np.maximum(i - 1, 0)]
    above = points[np.minimum(i, points.size - 1)]
    return (np.abs(below - ts) < zr.AMBIGUITY_TOL) | (np.abs(above - ts) < zr.AMBIGUITY_TOL)


def test_table_construction_is_lean(table_full):
    """S at the Gram points and the ambiguity flags, made with one index and
    one difference buffer: the 1e5 table's construction peaked at 6.2 MB."""
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
    assert np.array_equal(table.zero_ambiguous, _near_reference(gram, zeros))
    rng = np.random.default_rng(5)
    planted = gram[rng.integers(0, gram.size, 200)] + rng.uniform(-2e-9, 2e-9, 200)
    for ts in (planted, gram[:1] - 1.0, gram[-1:] + 5e-10, gram):
        assert np.array_equal(zr.near(zeros, ts), _near_reference(zeros, ts))
        assert np.array_equal(zr.near(gram, ts), _near_reference(gram, ts))
    assert bool(zr.near(gram, float(gram[7]))) and not zr.near(gram, float(gram[7]) + 2e-9)


# BLAKE2b-128 of the fixture tables' arrays, taken before the Gram solve was
# blocked and the expansion's moments were stored a row per order; zeros and
# z_gram taken again when RS_SWITCH_T moved from 30 to 510
TABLE_DIGESTS = {
    "table_small": {"gram": "cc8dcacaef150ba97edc03c9e29e781a",
                    "zeros": "791eb2459a75c205ccb45cdb4a0a44dd",
                    "z_gram": "9a550b1ca5b1b6819651506db6857937",
                    "s_gram": "993d0e7548e07458b4095230059e933f",
                    "zero_ambiguous": "37e699432a6aeb33d37a14773c27923b"},
    "table_mid": {"gram": "5d5d50c046c1816a6eb665a5275719eb",
                  "zeros": "d5cb0b9c8bbace2e38a97b4f95bace02",
                  "z_gram": "89c195ccafc73068c56890fbfdd3c9dc",
                  "s_gram": "d6b051562e5fef695e1a8c909874eb57",
                  "zero_ambiguous": "0dfcddd703bae85d08b2f749857e5cd8"},
}


@pytest.mark.parametrize("fixture", sorted(TABLE_DIGESTS))
def test_table_bits_pinned(request, fixture):
    """No layout change to the Gram solve, the expansion or the build may move a bit."""
    table = request.getfixturevalue(fixture)
    for name, digest in TABLE_DIGESTS[fixture].items():
        array = np.ascontiguousarray(getattr(table, name))
        assert hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest() == digest, name


def test_table_construction_at_1e6_is_flat():
    """ZeroTable(gram, zeros, z) at 1e6 Gram points holds S at the Gram points,
    the flags and one block of temporaries: whole-range index and difference
    buffers took about 16 MB more."""
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
    assert peak - table.s_gram.nbytes - table.zero_ambiguous.nbytes <= 1.5 * 2**20
    assert np.array_equal(table.zero_ambiguous, _near_reference(gram, zeros))
    assert np.count_nonzero(table.zero_ambiguous) == 1000
    s_ref = np.searchsorted(zeros, gram, side="right") - np.arange(gram.size)
    assert table.s_gram.dtype == np.int64 and np.array_equal(table.s_gram, s_ref)
