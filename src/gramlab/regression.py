"""Aggregate verification of published reference values.

Runs every checkable literature assertion this laboratory reproduces (Gram's
1895/1903 values, Hutchinson's exceptions, the Titchmarsh-Comrie counts, the
classification regressions, exact occupancy identities, moment bounds and
bands, prime-sum facts) and emits one pass/fail/skip row per assertion.

Each assertion is one entry of `_checks`.  One rule gates them all: a row runs
when both the certified table and n_limit reach the largest Gram index its
check reads, and is otherwise skipped with reason "insufficient range".
n_limit must be at least 1.  Output is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gram_law, moments, primes
from .reports import Report
from .theta_gram import gram_points, gram_spacing_report, theta, theta_derivative
from .zeros import ZeroTable

# frozen from a 30-digit prime-zeta evaluation; test suite re-derives it
MERTENS_CONSTANT = 0.2614972128476428

GRAM_LOW_POINTS = {0: 9.6669, 1: 17.8456, 2: 23.1703, 3: 27.6702}
FIRST_ORDINATES = {1: 14.135, 2: 20.82, 3: 25.1}
Z_MIN_1E5 = (97281, 1.238e-5)
Z_MIN_1E6 = (368383, 8.908e-8)
# the points of x in (1e4, 1e6, 1e8) by h in (0.05, 0.1, 0.2, 0.39) with h ln x > 2
VXH_GRID = {10**4: (0.39,), 10**6: (0.2, 0.39), 10**8: (0.2, 0.39)}


@dataclass
class RegressionContext:
    table: ZeroTable
    n_limit: int
    epsilon: float = moments.EPSILON_DEFAULT
    cache_dir: str | None = None


def _count(value: int, expected: int) -> tuple[bool, str]:
    return value == expected, f"count {value}"


def _ordinate_1895(tab: ZeroTable, idx: int, val: float) -> tuple[bool | None, str]:
    t = float(tab.zeros[idx - 1])
    if idx == 2:
        return None, (f"historical value superseded: certified ordinate {t:.4f} "
                      "differs by 0.20; see decisions ledger")
    return abs(t - val) <= 0.1, f"computed {t:.4f}"


def _hutchinson_127_128(tab: ZeroTable) -> tuple[bool, str]:
    r127, r128 = gram_law.classify_intervals(tab, 127, 128)
    d = gram_law.delta_n
    return (r127.zero_count == 0 and not r127.sgl and not r127.gl
            and r128.zero_count == 2 and r128.sgl and not r128.gl
            and d(tab, 127).delta == 1 and d(tab, 128).delta == 0
            and tab.s_at_gram(127) == -1), ""


def _hutchinson_136(tab: ZeroTable) -> tuple[bool, str]:
    zs = tab.find_zeros(float(tab.gram[134]), float(tab.gram[135]))
    d = gram_law.delta_n
    return (len(zs) == 2 and d(tab, 135).delta == 0 and d(tab, 136).delta == -1
            and gram_law.interval_counts(tab, 135, 135)[0] == 2), ""


def _z_min(z: np.ndarray, n_max: int, expected: tuple[int, float]) -> tuple[bool, str]:
    idx = int(np.abs(z[1 : n_max + 1]).argmin()) + 1
    zmin = abs(float(z[idx]))
    ok = idx == expected[0] and abs(zmin - expected[1]) <= 0.01 * expected[1]
    return ok, f"min {zmin:.4e} at n = {idx}"


def _nu_identities(tab: ZeroTable, top: int) -> tuple[bool, str]:
    """sum_k k nu_k = sum_{n<=N} c_n = N + S(t_N+0) at every sampled N, with c_n
    the occupancy of G_n; sum_k nu_k = N holds by construction."""
    sampled = np.array(list(range(1000, top + 1, 1000)) or [min(200, top)])
    weighted = np.cumsum(gram_law.interval_counts(tab, 1, top))[sampled - 1]
    bad = np.nonzero(weighted != sampled + tab.s_gram[sampled])[0]
    if bad.size:
        return False, f"first failure at N = {sampled[bad[0]]}"
    return True, f"sampled every 1000 up to {sampled[-1]}"


def _interval_additivity(tab: ZeroTable, top: int) -> tuple[bool, str]:
    rng = np.random.default_rng(20260809)
    s = tab.s_gram
    n0, m0 = rng.integers(1, top - 1, size=(10000, 2)).T
    m0 = m0 % (top - n0) + 1
    counts = np.searchsorted(tab.zeros, tab.gram[: top + 1], side="right")  # N(t_n + 0)
    return np.array_equal(counts[n0 + m0] - counts[n0], m0 + s[n0 + m0] - s[n0]), ""


def _gram_parity(tab: ZeroTable, z: np.ndarray, top: int) -> tuple[bool, str]:
    """(-1)^(n-1) Z(t_n) > 0 exactly when S(t_n+0) is even, for 1 <= n <= top:
    Z changes sign at each zero, and Z(t_0) < 0 with no zero below t_0."""
    n = np.arange(1, top + 1)
    regular = np.where(n % 2 == 1, z[1 : top + 1], -z[1 : top + 1]) > 0.0
    bad = np.nonzero(regular != (tab.s_gram[1 : top + 1] % 2 == 0))[0]
    if bad.size:
        return False, f"{bad.size} Gram points disagree, the first at n = {bad[0] + 1}"
    return True, f"n <= {top}"


def _first_moment(tab: ZeroTable, eps: float) -> tuple[bool, str]:
    fm = moments.first_moment(tab, 10000, 1000, epsilon=eps)
    return fm.sum > 0, f"sum = {fm.sum}, ratio = {fm.ratio:.4f}"


def _empty_count_identity(tab: ZeroTable) -> tuple[bool, str]:
    m1, m2 = moments.empty_and_crowded_counts(tab, 10000, 1000)  # from occupancy
    r = np.diff(tab.s_gram[10000:11001])  # r(n) = S(t_n+0) - S(t_{n-1}+0)
    return m1 == int(np.sum((np.abs(r) - r) // 2)), f"M1 = {m1}, M2 = {m2}"


def _loose_bounds(tab: ZeroTable, eps: float) -> tuple[bool, str]:
    N, M = 10000, 1000
    cfgs = [moments.MomentConfig(N=N, M=M, m=1, k=k, epsilon=eps) for k in (1, 2, 3)]
    ok = [moments.adjacent_difference_moment(tab, cfg).bound_satisfied for cfg in cfgs]
    ok += [moments.alternating_sum(tab, cfg).bound_satisfied for cfg in cfgs]
    ok += [moments.selberg_delta_moment(tab, N, M, k, "odd", epsilon=eps).bound_satisfied
           for k in (1, 2)]
    ok += [primes.residual_moments(tab, N, M, k, epsilon=eps).bound_satisfied
           for k in (1, 2)]
    return all(ok), f"{sum(ok)}/{len(ok)}"


def _offset_rows(tab: ZeroTable) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """The offset_second_moment_band and gsp_fraction_1e5 checks, from one
    Delta_n array for n <= 1e5."""
    N = 100000
    delta = gram_law.delta_array(tab, 1, N)
    total = int(np.dot(delta, delta))
    ratio = total / (N * math.log(math.log(N)) / (2 * math.pi ** 2))
    frac = float(np.mean(delta == 0))
    return ((0.3 <= ratio <= 2.0, f"ratio {ratio:.4f}"),
            (0.0 < frac < 1.0, f"fraction {frac:.4f}"))


def _mertens(x: int, lp: float, rp: float) -> tuple[bool, str]:
    theta_val = (rp - math.log(math.log(x)) - MERTENS_CONSTANT) * math.log(x) ** 2
    return lp < math.log(x) and -0.5 < theta_val < 1.0, f"theta {theta_val:.4f}"


def _vxh_grid(sums) -> tuple[bool, str]:
    """The V(x;h) of VXH_GRID, from sums(x) = primes.prime_sums at x."""
    ok, detail = True, []
    for x in VXH_GRID:
        for res in sums(x)[1]:
            detail.append(f"x={x:g},h={res.h}:dev={res.deviation:.3f}")
            if res.deviation > 1.05:
                ok = False
    return ok, "; ".join(detail)


def _gram_spacing() -> tuple[bool, str]:
    # the literal 3M/(N ln^2 N) form holds only at astronomical N (and then
    # with a pi m factor); check the rigorous mean-value chain bound instead
    ok, detail = True, []
    for N, M, m in ((1000, 100, 1), (10000, 1000, 5), (10**6, 100, 1)):
        dev = gram_spacing_report(N, M, m)
        t_n = float(gram_points(N, N)[0])
        rigor = (math.pi ** 2 * m * (M + m) * theta_derivative(t_n, 2)
                 / theta_derivative(t_n, 1) ** 3)
        detail.append(f"N={N:g}: dev={dev:.3g} <= {rigor:.3g}")
        if dev > rigor:
            ok = False
    return ok, "; ".join(detail)


def _checks(ctx: RegressionContext, top: int) -> list[tuple]:
    """(name, claim, skip claim, Gram index needed, check) per row, in report order.

    A row needs the largest Gram index its check reads; top is the Gram index
    both the table and n_limit reach.  A check returns (ok, detail); ok None
    marks a row that is always skipped.
    """
    tab = ctx.table
    z = tab.z_values()

    @lru_cache(maxsize=None)
    def sums(x: int):
        """Mertens sums and the V(x;h) of the grid at x, one sieve of x per run."""
        return primes.prime_sums(x, VXH_GRID.get(x, ()), ctx.cache_dir)

    offsets = lru_cache(maxsize=None)(lambda: _offset_rows(tab))  # one Delta_n array per run

    eps = ctx.epsilon
    n_1e5 = 100000 if tab.zeros.size >= 100000 else math.inf  # Delta_n needs zeros too
    titch, moment_facts = "Titchmarsh range counts", "moment facts at N=1e4"
    return [
        *((f"gram_point_t{n}", f"t_{n} = {val} to 4 decimals", f"Gram point t_{n}", n,
           lambda n=n, val=val: (abs((t := float(tab.gram[n])) - val) <= 1e-4,
                                 f"computed {t:.6f}"))
          for n, val in GRAM_LOW_POINTS.items()),
        ("theta_vanishes_at_t1", "|theta(17.8456)| < 1e-3", "", 0,
         lambda: (abs(th := theta(17.8456).value) < 1e-3, f"theta = {th:.2e}")),
        ("theta_at_t0", "theta(9.6669) = -pi to 1e-3", "", 0,
         lambda: (abs((th := theta(9.6669).value) + math.pi) < 1e-3, f"theta = {th:.6f}")),
        ("theta_derivative_leading", "theta'(2 pi e) near 1/2", "", 0,
         lambda: (abs((d1 := theta_derivative(2 * math.pi * math.e, 1)) - 0.5) < 1e-3,
                  f"theta' = {d1:.6f}")),
        *((f"gram1895_ordinate_{idx}", f"gamma_{idx} = {val} "
           + ("(1895 computation)" if idx == 2 else "+- 0.1"), f"gamma_{idx}",
           idx,
           lambda idx=idx, val=val: _ordinate_1895(tab, idx, val))
          for idx, val in FIRST_ORDINATES.items()),
        ("a_positive_n1_15", "(-1)^(n-1) Z(t_n) > 0 for n = 1..15", "Z(t_1..t_15)", 15,
         lambda: (all((-1) ** (n - 1) * z[n] > 0 for n in range(1, 16)), "")),
        ("one_zero_per_interval_n1_15", "each of G_1..G_15 holds exactly its own zero",
         "G_1..G_15", 15,
         lambda: (all(r.zero_count == 1 and r.sgl
                      for r in gram_law.classify_intervals(tab, 1, 15)), "")),
        ("zeros_below_1468", "1042 zeros of Z in (0, 1468]", titch, 1042,
         lambda: _count(tab.count_zeros(1468.0).n_of_t, 1042)),
        ("gram_points_below_1468", "1041 Gram points above t_0 in (0, 1468]", titch, 1042,
         lambda: _count(int(np.sum((tab.gram > tab.gram[0]) & (tab.gram <= 1468.0))), 1041)),
        ("negative_a_below_1468", "45 indices with (-1)^(n-1) Z(t_n) < 0", titch, 1041,
         lambda: _count(int(np.sum(z[1:1042:2] < 0.0) + np.sum(z[2:1042:2] > 0.0)), 45)),
        ("hutchinson_127_128", "t_127 < gamma_127 < gamma_128 < t_128 with its flag pattern",
         "first exceptions", 128, lambda: _hutchinson_127_128(tab)),
        ("hutchinson_136", "t_134 < gamma_135 < gamma_136 < t_135", "second exception", 135,
         lambda: _hutchinson_136(tab)),
        ("sgl_gl_through_126", "G_1..G_126 satisfy both SGL and GL", "G_1..G_126", 126,
         lambda: (all(r.sgl and r.gl for r in gram_law.classify_intervals(tab, 1, 126)), "")),
        ("three_zeros_in_g2147", "G_2147 contains exactly three zeros", "G_2147 occupancy",
         2147, lambda: _count(int(gram_law.interval_counts(tab, 2147, 2147)[0]), 3)),
        ("gl_without_sgl_trio", "G_3359, G_3778, G_4542 satisfy GL but not SGL",
         "GL-not-SGL trio", 4542,
         lambda: (all(r.gl and not r.sgl for n in (3359, 3778, 4542)
                      for r in gram_law.classify_intervals(tab, n, n)), "")),
        ("z_min_through_1e5",
         f"min |Z(t_n)| for n <= 1e5 is {Z_MIN_1E5[1]:g} at n = {Z_MIN_1E5[0]}",
         "minimum of |Z(t_n)|, n <= 1e5", 100000, lambda: _z_min(z, 100000, Z_MIN_1E5)),
        ("z_min_through_1e6",
         f"stretch: min |Z(t_n)| for n <= 1e6 is {Z_MIN_1E6[1]:g} at n = {Z_MIN_1E6[0]}",
         "", 0, lambda: (None, "stretch range not built (non-gating)")),
        ("nu_identities", "sum nu_k = N and sum k nu_k = N + S(t_N+0)", "nu identities", 1,
         lambda: _nu_identities(tab, top)),
        ("offset_ladder", "offset ladder exact on every certified interval", "offset ladder", 1,
         lambda: (gram_law.offset_ladder_check_range(tab, 1, top), f"n <= {top}")),
        ("interval_additivity", "zero count over m adjacent intervals "
         "equals m + S difference (10^4 random pairs)", "interval additivity", 3,
         lambda: _interval_additivity(tab, top)),
        ("gram_parity", "(-1)^(n-1) Z(t_n) > 0 exactly when S(t_n+0) is even",
         "gram parity", 1, lambda: _gram_parity(tab, z, top)),
        ("first_moment_positive", "sum |r(n)| strictly positive on (N, N+M]",
         moment_facts, 11000, lambda: _first_moment(tab, eps)),
        ("empty_count_identity", "M1 equals sum (|r|-r)/2 exactly", moment_facts, 11000,
         lambda: _empty_count_identity(tab)),
        ("empty_crowded_positive",
         "both empty and crowded intervals occur (observed near 0.1-0.2)", moment_facts,
         11000, lambda: (min(m := moments.empty_and_crowded_counts(tab, 10000, 1000)) > 0,
                         f"fractions {m[0] / 1000:.4f}, {m[1] / 1000:.4f}")),
        ("loose_bounds_hold",
         "adjacent/alternating/odd-offset/residual moment bounds all hold", moment_facts,
         11000, lambda: _loose_bounds(tab, eps)),
        ("titchmarsh_correlation_1e4",
         "sum Z(t_{n-1}) Z(t_n) / (-2(gamma+1)N) in [0.8, 1.2] at N = 1e4",
         "correlation ratio", 10000,
         lambda: (0.8 <= (tc := moments.titchmarsh_correlation(tab, 10000)).ratio <= 1.2
                  and tc.sum < 0, f"ratio {tc.ratio:.4f}")),
        ("offset_second_moment_band",
         "sum Delta_n^2 over n <= 1e5 within [0.3, 2.0] of N lnln N/(2 pi^2)",
         "offset second moment", n_1e5, lambda: offsets()[0]),
        ("gsp_fraction_1e5", "fraction with Delta_n = 0 reported (< 1)", "GSP fraction",
         n_1e5, lambda: offsets()[1]),
        *((f"mertens_sums_x{x}", "sum ln p/p < ln x and reciprocal sum window at x", "", 0,
           lambda x=x: _mertens(x, *sums(x)[0])) for x in (10, 1000, 10**6, primes.SIEVE_CEILING)),
        ("vxh_grid", "V(x;h) within 1.05 of (1/2) ln(h ln x) on the grid", "", 0,
         lambda: _vxh_grid(sums)),
        ("gram_spacing_bound",
         "spacing deviation within pi^2 m (M+m) theta''(t_N)/theta'(t_N)^3", "", 0,
         _gram_spacing),
        ("diagonal_identity", "k=1 exact; k=2 window theta in [-1, 0]", "", 0,
         lambda: (all([(d1 := primes.diagonal_identity_check(1, 10)).ok,
                       (d2 := primes.diagonal_identity_check(2, 50)).ok]),
                  f"sigma1(10) = {d1.sigma1:.6f}, theta2(50) = {d2.theta:.4f}")),
    ]


def run_paper_regression(ctx: RegressionContext) -> Report:
    rep = Report(kind="paper_regression")
    top = min(ctx.n_limit, ctx.table.certified_n)
    for name, claim, skip_claim, needs, check in _checks(ctx, top):
        if top < needs:
            status, claim, detail = "skip", skip_claim, "insufficient range"
        else:
            ok, detail = check()
            status = "skip" if ok is None else "pass" if ok else "fail"
        rep.add("regression", {"assertion": name},
                assertion=name, claim=claim, status=status, detail=detail)
    return rep


def exit_code(report: Report) -> int:
    return 1 if any(r.get("status") == "fail" for r in report.rows) else 0
