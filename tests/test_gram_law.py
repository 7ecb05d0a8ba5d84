import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gramlab import gram_law as gl
from gramlab import moments, primes, regression
from gramlab.errors import PreconditionError, UncertifiedRange
from gramlab.zeros import ZeroTable


def test_first_126_intervals_satisfy_both_laws(table_small):
    recs = gl.classify_intervals(table_small, 1, 126)
    assert all(r.sgl and r.gl for r in recs)


def test_g127_fails_both_g128_sgl_only(table_small):
    r127, r128 = gl.classify_intervals(table_small, 127, 128)
    assert r127.zero_count == 0 and not r127.sgl and not r127.gl and not r127.wgl
    assert r128.zero_count == 2 and r128.sgl and not r128.gl and not r128.wgl


def test_second_hutchinson_exception(table_small):
    # t_134 < gamma_135 < gamma_136 < t_135
    g = table_small.gram
    z135 = table_small.find_zeros(float(g[134]), float(g[135]))
    assert [z.index for z in z135] == [135, 136]
    assert gl.delta_n(table_small, 135).delta == 0
    assert gl.delta_n(table_small, 136).delta == -1


def test_g2147_holds_three_zeros(table_mid):
    rec = gl.classify_intervals(table_mid, 2147, 2147)[0]
    assert rec.zero_count == 3 and rec.wgl and not rec.gl
    # the three are the namesake and its neighbors
    edges = np.searchsorted(table_mid.zeros, table_mid.gram[2146:2148], side="right")
    assert list(range(edges[0] + 1, edges[1] + 1)) == [2146, 2147, 2148]


def test_gl_without_sgl_trio(table_mid):
    for n in (3359, 3778, 4542):
        rec = gl.classify_intervals(table_mid, n, n)[0]
        assert rec.gl and not rec.sgl


def test_gl_implies_wgl_and_flag_consistency(table_mid):
    recs = gl.classify_intervals(table_mid, 1, 5000)
    for r in recs:
        assert r.r == r.zero_count - 1
        assert r.wgl == (r.zero_count % 2 == 1)
        assert r.gl == (r.zero_count == 1)
        if r.gl:
            assert r.wgl


@pytest.mark.parametrize("shift, flagged", [(5e-10, [50, 51]), (-5e-10, [50, 51]), (2e-9, [])])
def test_ambiguity_from_a_zero_near_a_gram_point(table_small, shift, flagged):
    """A zero within AMBIGUITY_TOL of t_50, on either side, flags G_50 and G_51,
    the zero itself, and a count taken at t_50."""
    zeros = table_small.zeros.copy()
    planted = int(np.searchsorted(zeros, table_small.gram[50]))
    zeros[planted] = table_small.gram[50] + shift
    table = ZeroTable(table_small.gram, zeros, table_small.z_values())
    assert [r.n for r in gl.classify_intervals(table, 40, 60) if r.ambiguous] == flagged
    assert np.nonzero(table.zero_ambiguous)[0].tolist() == ([planted] if flagged else [])
    assert table.count_zeros(float(table.gram[50])).at_zero == bool(flagged)


def test_delta_examples(table_small):
    assert all(gl.delta_n(table_small, n).delta == 0 for n in range(1, 16))
    assert gl.delta_n(table_small, 127).delta == 1
    assert gl.delta_n(table_small, 128).delta == 0
    assert gl.delta_n(table_small, 136).delta == -1
    rec = gl.delta_n(table_small, 127)
    assert rec.gram_index == 128 and rec.on_line


def test_delta_array_matches_scalar(table_small):
    arr = gl.delta_array(table_small, 1, 500)
    for idx in (1, 17, 127, 128, 444):
        assert arr[idx - 1] == gl.delta_n(table_small, idx).delta


def test_gsp_flags(table_small):
    assert all(gl.gsp_flags(table_small, 1, 15))
    f = gl.gsp_flags(table_small, 127, 128)
    assert f == [False, True]


def test_gsp_fraction_below_one(table_full):
    deltas = gl.delta_array(table_full, 1, 100000)
    frac = float(np.mean(deltas == 0))
    assert 0.0 < frac < 1.0


def test_delta_array_makes_one_temporary(table_full):
    """Beside its 0.8 MB result at 1e5 zeros, delta_array holds one more
    full-length array (the arange of the n) and no copy."""
    import tracemalloc

    tracemalloc.start()
    try:
        deltas = gl.delta_array(table_full, 1, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deltas.dtype == np.int64 and deltas.nbytes == 800_000
    assert peak - deltas.nbytes <= 900_000


def test_offset_second_moment_total_is_the_exact_integer(table_full):
    N = 100000
    total = sum(d * d for d in gl.delta_array(table_full, 1, N).tolist())
    ratio = total / (N * math.log(math.log(N)) / (2 * math.pi ** 2))
    assert regression._offset_rows(table_full)[0] == (0.3 <= ratio <= 2.0,
                                                      f"ratio {ratio:.4f}")


def test_nu_histogram_small(table_small):
    h = gl.nu_histogram(table_small, 15)
    assert h.counts == {1: 15}
    assert h.s_at_end == 0


def test_nu_histogram_identities(table_small):
    for N in (200, 777, 1100):
        h = gl.nu_histogram(table_small, N)
        assert sum(h.counts.values()) == N
        assert sum(k * v for k, v in h.counts.items()) == N + h.s_at_end
        rhs = sum((k - 1) * v for k, v in h.counts.items() if k >= 2)
        assert h.counts.get(0, 0) == rhs - h.s_at_end


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=1100))
def test_nu_identities_property(table_small, N):
    h = gl.nu_histogram(table_small, N)
    assert h.identity_weighted()


def test_broken_nu_identity_fails_its_row_only(table_small, cache_dir, monkeypatch):
    ctx = regression.RegressionContext(table=table_small, n_limit=1200,
                                       cache_dir=str(cache_dir))
    good = regression.run_paper_regression(ctx).rows
    counts = gl.interval_counts

    def broken(table, n_lo, n_hi):
        c = counts(table, n_lo, n_hi)
        c[6::7] = 0                       # every 7th interval loses its zeros
        return c

    monkeypatch.setattr(gl, "interval_counts", broken)
    rows = regression.run_paper_regression(ctx).rows
    assert [r["assertion"] for r in rows] == [r["assertion"] for r in good]
    changed = [(g, r) for g, r in zip(good, rows) if g != r]
    assert [(g["assertion"], g["status"], r["status"], r["detail"]) for g, r in changed] \
        == [("nu_identities", "pass", "fail", "first failure at N = 1000")]


def test_broken_occupancy_fails_empty_count_identity(table_full, cache_dir, monkeypatch):
    # M1 comes from interval occupancy and r(n) from S at Gram points, so
    # occupancy that disagrees with S fails the row
    ctx = regression.RegressionContext(table=table_full, n_limit=11000,
                                       cache_dir=str(cache_dir))
    counts = gl.interval_counts

    def broken(table, n_lo, n_hi):
        c = counts(table, n_lo, n_hi)
        c[6::7] = 0
        return c

    for module in (gl, moments):          # every binding of interval_counts
        monkeypatch.setattr(module, "interval_counts", broken)
    rows = {r["assertion"]: r for r in regression.run_paper_regression(ctx).rows}
    assert rows["empty_count_identity"]["status"] == "fail"


def test_each_row_reads_no_gram_index_past_its_need(table_full, cache_dir):
    """Cut at the Gram index a row needs (1 at least), a table still serves its check."""
    full = regression.RegressionContext(table=table_full, n_limit=100000)
    needs = {row[0]: max(row[3], 1) for row in regression._checks(full, 100000)}
    z = table_full.z_values()
    for n in sorted(set(needs.values()) - {math.inf}):
        cut = ZeroTable(table_full.gram[: n + 1],
                        table_full.zeros[table_full.zeros < table_full.gram[n]], z[: n + 1])
        ctx = regression.RegressionContext(table=cut, n_limit=n, cache_dir=str(cache_dir))
        for name, _, _, _, check in regression._checks(ctx, n):
            if needs[name] == n:
                assert check()[0] in (True, None), name


def test_interval_count_equals_s_difference(table_small):
    counts = gl.interval_counts(table_small, 1, 1100)
    s = table_small.s_gram
    assert np.array_equal(counts, 1 + s[1:1101] - s[0:1100])


def test_offset_ladder(table_small):
    assert gl.offset_ladder_check(table_small, 127)   # empty: vacuous
    assert gl.offset_ladder_check(table_small, 128)   # r = 1 ladder
    assert all(gl.offset_ladder_check(table_small, n) for n in range(1, 301))
    assert gl.offset_ladder_check_range(table_small, 1, 1100)


def test_uncertified_range_raises(table_small):
    top = table_small.certified_n
    with pytest.raises(UncertifiedRange):
        gl.classify_intervals(table_small, 1, top + 10)
    with pytest.raises(UncertifiedRange):
        gl.delta_n(table_small, table_small.zeros.size + 1)
    with pytest.raises(UncertifiedRange):
        gl.nu_histogram(table_small, top + 10)


def _cfg(n):
    """Moments over (n - 11, n]: N + M = n."""
    return moments.MomentConfig(N=n - 11, M=11, m=1, k=1)


# each query, asked to reach Gram index n
_RANGE_QUERIES = {
    "s_at_gram": lambda t, n: t.s_at_gram(n),
    "classify_intervals": lambda t, n: gl.classify_intervals(t, 1, n),
    "interval_counts": lambda t, n: gl.interval_counts(t, n - 5, n),
    "nu_histogram": lambda t, n: gl.nu_histogram(t, n),
    "block": lambda t, n: moments.block_difference_moment(
        t, moments.MomentConfig(N=n - 12, M=11, m=1, k=1)),
    "adjacent": lambda t, n: moments.adjacent_difference_moment(t, _cfg(n)),
    "first": lambda t, n: moments.first_moment(t, n - 11, 11),
    "alternating": lambda t, n: moments.alternating_sum(t, _cfg(n)),
    "titchmarsh": lambda t, n: moments.titchmarsh_correlation(t, n),
    "residual": lambda t, n: primes.residual_moments(t, n - 11, 11, 1, y=10.0),
}


@pytest.mark.parametrize("query", sorted(_RANGE_QUERIES))
def test_range_queries_stop_at_the_last_gram_point(table_small, query):
    ask = _RANGE_QUERIES[query]
    top = table_small.certified_n
    ask(table_small, top)
    with pytest.raises(UncertifiedRange, match=f"gram index {top + 1} beyond"):
        ask(table_small, top + 1)


def test_malformed_ranges_are_preconditions(table_small):
    for lo, hi in ((0, 5), (5, 3)):
        with pytest.raises(PreconditionError):
            gl.classify_intervals(table_small, lo, hi)
        with pytest.raises(PreconditionError):
            gl.delta_array(table_small, lo, hi)
    with pytest.raises(PreconditionError):
        gl.nu_histogram(table_small, 0)
    with pytest.raises(PreconditionError):
        table_small.s_at_gram(-1)
    with pytest.raises(PreconditionError):   # would read S off the end of the table
        moments.first_moment(table_small, -5, 3)


def test_sgl_gl_independence_witnesses(table_mid):
    """All four combinations of (SGL, GL) occur in the certified range."""
    recs = gl.classify_intervals(table_mid, 1, 5000)
    combos = {(r.sgl, r.gl) for r in recs}
    assert combos == {(True, True), (False, False), (True, False), (False, True)}
