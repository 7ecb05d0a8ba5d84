"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
C2's middle-ordinate subcheck is a documented strict xfail: the published
1895 value it pins (20.82) differs from the certified ordinate 21.0220 by
0.20, so the +-0.1 window is unsatisfiable; see the decisions ledger.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gramlab import gram_law as gl
from gramlab import moments as mo
from gramlab import primes as pr
from gramlab import regression
from gramlab.reports import to_csv, to_json
from gramlab.theta_gram import gram_point
from gramlab.zeros import ZeroTable


def _line(cid: str, ok: bool, desc: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid} {tag}: {desc}{suffix}")


def test_c01_gram_points_published_heights():
    targets = {0: 9.6669, 1: 17.8456, 2: 23.1703, 3: 27.6702}
    gram_point(3)  # warm the code path before timing
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        pts = {n: gram_point(n).t for n in targets}
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = all(abs(pts[n] - v) <= 1e-4 for n, v in targets.items())
    ok_time = elapsed < 1e-3
    _line("C1", ok and ok_time, "gram points t_0..t_3 at 4 decimals",
          f"{elapsed * 1e6:.0f} us")
    assert ok
    assert ok_time


def test_c02_first_zeros_range():
    t0 = time.perf_counter()
    table = ZeroTable.build(20)
    zs = table.find_zeros(8.0, 30.0)
    elapsed = time.perf_counter() - t0
    ok = (len(zs) == 3 and abs(zs[0].t - 14.135) <= 0.1
          and abs(zs[2].t - 25.1) <= 0.1 and elapsed < 1.0)
    _line("C2", ok, "three zeros in (8, 30], first and third at published spots",
          f"{elapsed:.2f} s")
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="unattainable as stated: certified gamma_2 = 21.0220, "
                          "0.20 away from the published 1895 estimate 20.82; "
                          "see decisions ledger")
def test_c02_middle_ordinate_published_window():
    table = ZeroTable.build(20)
    zs = table.find_zeros(8.0, 30.0)
    _line("C2b", abs(zs[1].t - 20.82) <= 0.1,
          "middle ordinate within 0.1 of the 1895 estimate (documented xfail)")
    assert abs(zs[1].t - 20.82) <= 0.1


def test_c03_titchmarsh_range_counts():
    t0 = time.perf_counter()
    table = ZeroTable.build(1100)
    n_zeros = table.count_zeros(1468.0).n_of_t
    gram_above_t0 = int(np.sum((table.gram > table.gram[0]) & (table.gram <= 1468.0)))
    z = table.z_values()
    a_vals = np.where(np.arange(table.gram.size) % 2 == 1, z, -z)
    negatives = int(np.sum(a_vals[1:1042] < 0.0))
    elapsed = time.perf_counter() - t0
    ok = (n_zeros == 1042 and gram_above_t0 == 1041
          and float(table.gram[1041]) <= 1468.0 < float(table.gram[1042])
          and negatives == 45 and elapsed < 10.0)
    _line("C3", ok, "(0,1468]: 1042 zeros, 1041 gram points above t_0, 45 negatives",
          f"zeros={n_zeros} gram={gram_above_t0} neg={negatives} {elapsed:.1f} s")
    assert ok


def test_c04_hutchinson_exceptions(table_small):
    t0 = time.perf_counter()
    r127, r128 = gl.classify_intervals(table_small, 127, 128)
    d127 = gl.delta_n(table_small, 127).delta
    d128 = gl.delta_n(table_small, 128).delta
    g = table_small.gram
    z127s = table_small.find_zeros(float(g[126]), float(g[127]))
    z128s = table_small.find_zeros(float(g[127]), float(g[128]))
    pair_128 = [z.index for z in z128s] == [127, 128]
    z135s = table_small.find_zeros(float(g[134]), float(g[135]))
    case_136 = (len(z135s) == 2 and [z.index for z in z135s] == [135, 136]
                and g[134] < z135s[0].t < z135s[1].t < g[135]
                and gl.delta_n(table_small, 136).delta == -1)
    elapsed = time.perf_counter() - t0
    ok = (d127 == 1 and d128 == 0 and not z127s and pair_128
          and not r127.sgl and not r127.gl and r127.zero_count == 0
          and r128.sgl and not r128.gl and r128.zero_count == 2
          and case_136 and elapsed < 5.0)
    _line("C4", ok, "G_127 empty and fails both laws; G_128 holds the pair; "
          "t_134 < gamma_135 < gamma_136 < t_135",
          f"delta127={d127} delta128={d128} {elapsed:.2f} s")
    assert ok


def test_c05_classification_regression():
    t0 = time.perf_counter()
    table = ZeroTable.build(5100)
    recs = gl.classify_intervals(table, 1, 126)
    low_ok = all(r.sgl and r.gl for r in recs)
    trio_ok = all(
        (lambda r: r.gl and not r.sgl)(gl.classify_intervals(table, n, n)[0])
        for n in (3359, 3778, 4542))
    c2147 = gl.classify_intervals(table, 2147, 2147)[0].zero_count
    elapsed = time.perf_counter() - t0
    ok = low_ok and trio_ok and c2147 == 3 and elapsed < 60.0
    _line("C5", ok, "G_1..G_126 both laws; trio GL-not-SGL; G_2147 holds 3",
          f"{elapsed:.1f} s")
    assert ok


def test_c06_z_minimum_through_1e5(table_full):
    t0 = time.perf_counter()
    z = table_full.z_values()
    idx = int(np.abs(z[1:100001]).argmin()) + 1
    zmin = abs(float(z[idx]))
    elapsed = time.perf_counter() - t0
    ok = idx == 97281 and abs(zmin - 1.238e-5) <= 0.01 * 1.238e-5
    _line("C6", ok, "min |Z(t_n)| over n <= 1e5 is 1.238e-5 at n = 97281",
          f"min={zmin:.4e} at n={idx}, {elapsed:.1f} s")
    assert ok
    print("ACCEPTANCE C6 note: stretch target (n <= 1e6, 8.908e-8 at n=368383) "
          "not built; non-gating")


def test_c07_exact_identities(table_full):
    s = table_full.s_gram
    top = 100000
    nu_ok = True
    for N in range(1000, top + 1, 1000):
        h = gl.nu_histogram(table_full, N)
        if not h.identity_weighted():
            nu_ok = False
            break
    ladder_ok = gl.offset_ladder_check_range(table_full, 1, top)
    tele_ok = True
    for N, M in ((0, 15), (100, 500), (10000, 1000), (90000, 9000)):
        counts = gl.interval_counts(table_full, N + 1, N + M)
        if int(np.sum(counts - 1)) != int(s[N + M]) - int(s[N]):
            tele_ok = False
    rng = np.random.default_rng(20260809)
    additivity_ok = True
    for _ in range(10000):
        n = int(rng.integers(1, top - 2))
        m = int(rng.integers(1, top - n))
        lhs = int(s[n + m]) + (n + m) - (int(s[n]) + n)  # N(t_{n+m}+0) - N(t_n+0)
        if lhs != m + int(s[n + m]) - int(s[n]):
            additivity_ok = False
            break
    ok = nu_ok and ladder_ok and tele_ok and additivity_ok
    _line("C7", ok, "occupancy identities, offset ladder, telescoping, "
          "interval additivity: all exact",
          f"nu={nu_ok} ladder={ladder_ok} tele={tele_ok} addy={additivity_ok}")
    assert ok


def test_c08_loose_bounds_hold(table_full):
    eps = 9e-4
    results = []
    for N, M in ((10000, 1000), (50000, 2000)):
        for k in (1, 2, 3):
            results.append(mo.adjacent_difference_moment(
                table_full, N, M, k, eps).bound_satisfied)
        for k in (1, 2, 3, 4):
            results.append(mo.alternating_sum(table_full, N, M, k, eps).bound_satisfied)
        for k in (1, 2):
            results.append(mo.selberg_delta_moment(
                table_full, N, M, k, "odd", epsilon=eps).bound_satisfied)
        for k in (1, 2):
            results.append(pr.residual_moments(
                table_full, N, M, k, epsilon=eps).bound_satisfied)
    ok = all(results)
    _line("C8", ok, "adjacent / alternating / odd-offset / residual bounds "
          f"never violated at eps = {eps}", f"{sum(results)}/{len(results)}")
    assert ok


def test_c09_titchmarsh_correlation(table_full):
    t0 = time.perf_counter()
    rep = mo.titchmarsh_correlation(table_full, 10000)
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= rep.ratio <= 1.2 and rep.sum < 0.0 and elapsed < 30.0
    _line("C9", ok, "correlation ratio against -2(gamma+1)N within [0.8, 1.2]",
          f"ratio={rep.ratio:.4f} {elapsed:.1f} s")
    assert ok


def test_c10_offset_second_moment_band(table_full):
    N = 100000
    deltas = gl.delta_array(table_full, 1, N)
    total = int(np.sum(deltas.astype(np.int64) ** 2))
    ratio = total / (N * math.log(math.log(N)) / (2.0 * math.pi ** 2))
    ok = 0.3 <= ratio <= 2.0
    _line("C10", ok, "sum Delta_n^2 over n <= 1e5 within [0.3, 2.0] of "
          "N lnln N / (2 pi^2)", f"ratio={ratio:.4f}")
    assert ok


def test_c11_prime_sum_grid(tmp_path):
    # a fresh cache dir: the first 1e8 call stores its partials, the rest
    # re-sieve a sample of their blocks
    t0 = time.perf_counter()
    grid_ok = True
    for x in (1e4, 1e6, 1e8):
        for h in (0.05, 0.1, 0.2, 0.39):
            try:
                res = pr.v_xh(x, h, cache_dir=tmp_path)
            except Exception:
                continue  # outside the h ln x > 2 precondition
            if res.deviation > 1.05:
                grid_ok = False
    lemma1_ok = True
    for x in (2, 10, 1000, 10**6, 10**8):
        lp, rp = pr.mertens_sums(x, cache_dir=tmp_path)
        theta = (rp - math.log(math.log(x)) - regression.MERTENS_CONSTANT) \
            * math.log(x) ** 2
        if not (lp < math.log(x) and -0.5 < theta < 1.0):
            lemma1_ok = False
    elapsed = time.perf_counter() - t0
    ok = grid_ok and lemma1_ok and elapsed < 60.0
    _line("C11", ok, "log-mean prime sums within 1.05; Mertens sums in window "
          "through 1e8", f"{elapsed:.1f} s")
    assert ok


def test_c12_determinism(table_small, cache_dir):
    rep1 = regression.run_paper_regression(table_small, 1200, cache_dir=str(cache_dir))
    rep2 = regression.run_paper_regression(table_small, 1200, cache_dir=str(cache_dir))
    ok = (to_csv(rep1) == to_csv(rep2)) and (to_json(rep1) == to_json(rep2))
    _line("C12", ok, "two verification runs render byte-identical reports")
    assert ok
    assert regression.exit_code(rep1) == 0


# stdout of `--format json verify-paper --n-limit 100000` on table_full's
# range, checked in so that every row above n = 1200 (Titchmarsh counts
# through the 1e5 offset statistics and the sums to 1e8) is pinned byte for
# byte, not only its status; the in-process run renders the same bytes
_VERIFY_PAPER_1E5 = Path(__file__).parent / "data" / "verify_paper_1e5.json"


def test_c12_rows_through_1e5_pinned(table_full, cache_dir):
    out = to_json(regression.run_paper_regression(table_full, 100000,
                                                  cache_dir=str(cache_dir)))
    ok = out == _VERIFY_PAPER_1E5.read_text()
    _line("C12", ok, "verification rows through n = 1e5 match the pinned report")
    assert ok
