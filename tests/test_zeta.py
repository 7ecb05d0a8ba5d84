import hashlib
import math

import mpmath
import numpy as np
import pytest

import gramlab.theta_gram as th
from gramlab import zeta as zt
from gramlab.errors import DomainError, PrecisionError, PreconditionError

mpmath.mp.dps = 30


def siegelz_oracle(t: float) -> float:
    return float(mpmath.siegelz(t))


def test_z_small_near_first_zero():
    assert abs(zt.hardy_z(14.135).z) < 5e-3


def test_a_positive_for_first_fifteen_gram_points():
    for n in range(1, 16):
        t = th.gram_point(n).t
        assert (-1) ** (n - 1) * zt.hardy_z(t).z > 0.0


def test_error_within_bound_against_oracle():
    # 20 digits give these 120 float64 values bit for bit as 30 do, in less time
    rng = np.random.default_rng(20260809)
    with mpmath.workdps(20):
        for t in rng.uniform(10.0, 5e4, size=120):
            ze = zt.hardy_z(float(t))
            assert abs(ze.z - siegelz_oracle(float(t))) <= ze.err_bound


def test_bound_claim_at_200_and_monotonicity():
    ts = np.geomspace(10.0, 5e4, 400)
    bounds = zt.rs_err_bound(ts)
    assert np.all(np.diff(bounds) <= 0.0)
    assert np.all(bounds > 0.0)
    assert float(zt.rs_err_bound(200.0)) <= 1e-8


def _z_euler_maclaurin(t: float) -> tuple[float, float]:
    """Z(t) and its bound from zeta_euler_maclaurin, rotated by theta."""
    v, bound = zt.zeta_euler_maclaurin(0.5, t, max(1e-11, 1e-13 * t))
    theta_val = th.theta(t).value
    return (complex(math.cos(theta_val), math.sin(theta_val)) * v).real, bound


def test_cross_method_agreement():
    """Riemann-Siegel vs Euler-Maclaurin over the shared range from RS_SWITCH_T.

    There the 4-correction truncation bound is below 1e-9, and the routes
    agree to 1e-8 and within the two reported bounds.  Below RS_SWITCH_T
    hardy_z is the Euler-Maclaurin route itself.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for t in rng.uniform(zt.RS_SWITCH_T, 5e4, size=460):
        zrs = zt.hardy_z(float(t))
        assert zrs.method == "riemann_siegel"
        zem, bound = _z_euler_maclaurin(float(t))
        assert abs(zrs.z - zem) <= zrs.err_bound + bound
        worst = max(worst, abs(zrs.z - zem))
    assert worst < 1e-8


def test_vectorized_matches_scalar():
    """hardy_z_many takes hardy_z's route at every height, bit for bit, across
    both sides of RS_SWITCH_T, in one call over mixed heights."""
    rng = np.random.default_rng(20261019)
    ts = rng.permutation(np.r_[rng.uniform(zt.T_MIN, 10.0, 6), rng.uniform(10.0, 30.0, 10),
                               np.exp(rng.uniform(math.log(30.0), math.log(1e5), 48))])
    zv = zt.hardy_z_many(ts)
    assert np.array_equal(zv, [zt.hardy_z(float(t)).z for t in ts])
    assert {zt.hardy_z(float(t)).method for t in ts} == {"euler_maclaurin", "riemann_siegel"}


def test_domain_errors():
    with pytest.raises(DomainError):
        zt.hardy_z(0.0)
    with pytest.raises(DomainError):
        zt.hardy_z(-3.0)
    # theta's series is not trusted below T_MIN, so neither route is offered
    with pytest.raises(DomainError):
        zt.hardy_z(5.0)
    with pytest.raises(DomainError):
        zt.zeta_half_line(5.0)
    with pytest.raises(DomainError):
        zt.hardy_z_many(np.array([5.0, 20.0]))
    # NaN passes a check of the minimum, and inf has no sum length
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            zt.hardy_z(bad)
        with pytest.raises(DomainError):
            zt.zeta_half_line(bad)
        with pytest.raises(DomainError):
            zt.hardy_z_many(np.array([100.0, bad]))
        with pytest.raises(DomainError):
            th.theta_many(np.array([100.0, bad]))
        with pytest.raises(DomainError):
            th.theta(bad)


def test_em_classical_values():
    v, bound = zt.zeta_euler_maclaurin(2.0, 0.0, 1e-12)
    assert abs(v - math.pi ** 2 / 6.0) <= 1e-12
    assert bound <= 1e-12
    # frozen from mpmath.zeta(0.5) at 30 digits
    v, _ = zt.zeta_euler_maclaurin(0.5, 0.0, 1e-12)
    assert v.real == pytest.approx(-1.4603545088095868, abs=2e-13)
    assert v.imag == 0.0


def test_em_at_100_against_independent_oracle_and_z():
    v, _ = zt.zeta_euler_maclaurin(0.5, 100.0, 1e-10)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpf("0.5") + 100j))
    assert abs(v - ref) < 1e-9
    # rotating back through theta reproduces Riemann-Siegel Z within its bound
    z = float(zt._hardy_z_rs(np.array([100.0]))[0])
    theta_val = th.theta(100.0).value
    lhs = complex(math.cos(theta_val), -math.sin(theta_val)) * z
    assert abs(v - lhs) <= float(zt.rs_err_bound(100.0))


def test_em_oracle_agreement_along_strip():
    with mpmath.workdps(30):
        for sigma, t, target in ((0.4, 77.7, 1e-9), (1.5, 300.0, 1e-9),
                                 (3.0, 12345.0, 1e-11), (0.5, 49999.0, 5e-9)):
            v, bound = zt.zeta_euler_maclaurin(sigma, t, target)
            ref = complex(mpmath.zeta(mpmath.mpf(sigma) + 1j * mpmath.mpf(t)))
            assert abs(v - ref) <= bound <= target


def test_em_preconditions():
    with pytest.raises(PreconditionError):
        zt.zeta_euler_maclaurin(0.3, 10.0)
    with pytest.raises(PreconditionError):
        zt.zeta_euler_maclaurin(3.5, 10.0)
    with pytest.raises(PreconditionError):
        zt.zeta_euler_maclaurin(0.5, 5.1e4)
    with pytest.raises(PreconditionError):
        zt.zeta_euler_maclaurin(0.5, -1.0)
    with pytest.raises(PreconditionError):
        zt.zeta_euler_maclaurin(0.5, 10.0, 1e-14)
    with pytest.raises(DomainError):
        zt.zeta_euler_maclaurin(1.0, 0.0)


def test_em_precision_error_when_target_unreachable():
    with pytest.raises(PrecisionError):
        zt.zeta_euler_maclaurin(0.5, 5e4, 1e-13)


# BLAKE2b-128 of the int8 Bernoulli term counts (-1 for PrecisionError) on the
# grid below, frozen from the N-doubling search this evaluation replaced
# (commit 7dc5e6c): 2737 calls succeed, every one at its first N, and 1619
# raise
EM_GRID_COUNTS = "271ab071e5a37442e404431ae771616c"


def test_em_term_counts_on_the_grid():
    """Every call of the old search that succeeded takes the same number of
    Bernoulli terms, and every other call raises PrecisionError."""
    sigmas, ts = np.linspace(0.4, 3.0, 6), np.linspace(0.0, 5e4, 121)
    targets = np.geomspace(1e-13, 1e-6, 6)
    counts = np.empty((sigmas.size, ts.size, targets.size), dtype=np.int8)
    for i, sigma in enumerate(sigmas):
        values, bounds = zt._euler_maclaurin(float(sigma), ts)
        met = bounds[:, :, None] <= targets
        counts[i] = np.where(met.any(axis=0), met.argmax(axis=0) + 1, -1)
        # zeta_euler_maclaurin returns the first row that meets the target;
        # the low heights keep its calls cheap
        for j in range(11):
            for target, k in zip(targets, counts[i, j]):
                if k < 0:
                    with pytest.raises(PrecisionError):
                        zt.zeta_euler_maclaurin(float(sigma), float(ts[j]), float(target))
                else:
                    got = zt.zeta_euler_maclaurin(float(sigma), float(ts[j]), float(target))
                    assert got == (values[k - 1, j], bounds[k - 1, j])
    assert np.count_nonzero(counts[:, :11] < 0) and np.count_nonzero(counts[:, :11] > 0)
    assert hashlib.blake2b(counts.tobytes(), digest_size=16).hexdigest() == EM_GRID_COUNTS


def test_em_route_within_bound_against_oracle():
    """Forty seeded heights below RS_SWITCH_T, where Z is Euler-Maclaurin's."""
    with mpmath.workdps(20):
        for t in np.random.default_rng(20261020).uniform(zt.T_MIN, zt.RS_SWITCH_T, 40):
            ze = zt.hardy_z(float(t))
            assert ze.method == "euler_maclaurin"
            assert abs(ze.z - siegelz_oracle(float(t))) <= ze.err_bound


def test_em_route_bits_do_not_depend_on_the_call():
    """A height below RS_SWITCH_T has the same Z alone, in a long call of
    several slices, in a short call of one, and mixed with Riemann-Siegel
    heights."""
    rng = np.random.default_rng(20261021)
    ts = rng.uniform(zt.T_MIN, zt.RS_SWITCH_T, 300)
    alone = np.array([zt.hardy_z_many(np.array([t]))[0] for t in ts])
    # sums of up to 382 terms: the 300 heights take more than one slice, and
    # reversed, each height takes another place in its slice
    assert ts.size > zt._Z_ELEMENTS // int(0.75 * ts.max())
    assert np.array_equal(zt.hardy_z_many(ts), alone)
    assert np.array_equal(zt.hardy_z_many(ts[::-1]), alone[::-1])
    # below t = 32 every sum has 23 terms, and these heights are one slice
    low = ts < 32.0
    assert np.array_equal(zt.hardy_z_many(ts[low]), alone[low])
    order = rng.permutation(600)
    mixed = np.empty(600)
    mixed[order] = zt.hardy_z_many(np.r_[ts, rng.uniform(zt.RS_SWITCH_T, 1e5, 300)][order])
    assert np.array_equal(mixed[:300], alone)


def test_half_line_identities(table_small):
    # b vanishes at gram points and a carries the (-1)^(n-1) Z sign
    for n in (2, 5, 11):
        t = float(table_small.gram[n])
        hl = zt.zeta_half_line(t)
        z = zt.hardy_z(t).z
        assert abs(hl.b) <= 1e-8 * (1.0 + abs(z))
        assert hl.a == (-1) ** (n - 1) * z
    for t in (12.3, 77.7, 1234.5, 31622.8):
        hl = zt.zeta_half_line(t)
        z = zt.hardy_z(t).z
        assert abs(hl.a ** 2 + hl.b ** 2 - z * z) <= 1e-12 * max(z * z, 1e-30)


def test_half_line_matches_em_oracle_at_25():
    hl = zt.zeta_half_line(25.0)
    v, _ = zt.zeta_euler_maclaurin(0.5, 25.0, 1e-12)
    assert abs(complex(hl.a, hl.b) - v) < 1e-9


def test_sign_changes_only_at_certified_zeros(table_small):
    # Z keeps one sign on a grid strictly between consecutive zeros; the
    # trim keeps |Z| at the endpoints above the evaluation error there
    zs = table_small.zeros[:40]
    for i in range(len(zs) - 1):
        inner = np.linspace(zs[i] + 1e-3, zs[i + 1] - 1e-3, 9)
        vals = zt.hardy_z_many(inner)
        assert np.all(vals > 0) or np.all(vals < 0)


def test_rs_corrections_match_high_precision_differentiation():
    def psi_mp(p):
        p = mpmath.mpf(p)
        return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) \
            / mpmath.cos(2 * mpmath.pi * p)

    with mpmath.workdps(40):
        pi2 = mpmath.pi ** 2
        for p in (0.001, 0.2, 0.49, 0.63, 0.9):
            d = {j: mpmath.diff(psi_mp, p, j) for j in (0, 1, 2, 3, 4, 5, 6, 8, 9, 12)}
            ref = (
                d[0],
                -d[3] / (96 * pi2),
                d[2] / (64 * pi2) + d[6] / (18432 * pi2 ** 2),
                -d[1] / (64 * pi2) - d[5] / (3840 * pi2 ** 2) - d[9] / (5308416 * pi2 ** 3),
                d[0] / (128 * pi2) + 19 * d[4] / (24576 * pi2 ** 2)
                + 11 * d[8] / (5898240 * pi2 ** 3) + d[12] / (2038431744 * pi2 ** 4),
            )
            mine = zt._rs_corrections(np.array([p]))
            for k in range(5):
                assert abs(float(mine[k][0]) - float(ref[k])) <= 1e-15


def test_rs_polys_trimmed_within_their_tail_bound():
    # the trimmed coefficients are the full ones less their highest orders,
    # so the two polynomials differ by exactly the dropped terms
    full, trimmed = zt._rs_polys(0.0), zt._rs_polys()
    u = np.linspace(0.0, 1.0, 1001, endpoint=False) - 0.5
    for k, (f, t) in enumerate(zip(full, trimmed)):
        assert 20 <= t.size < f.size
        assert np.array_equal(f[-t.size:], t)
        dropped = np.concatenate([f[: -t.size], np.zeros(t.size)])
        assert np.max(np.abs(u ** (k % 2) * np.polyval(dropped, u * u))) <= 1e-17


def test_rs_corrections_are_polyval_bit_for_bit():
    p = np.random.default_rng(16).random(10_000)
    u = p - 0.5
    ref = [u ** (k % 2) * np.polyval(c, u * u) for k, c in enumerate(zt._rs_polys())]
    for mine, want in zip(zt._rs_corrections(p), ref):
        assert np.array_equal(mine, want)


def test_hardy_z_many_slices_do_not_move_a_bit():
    """Heights from 1e3 to 1e7 in seeded order, in several slices, as one at a time."""
    ts = np.exp(np.random.default_rng(17).uniform(math.log(1e3), math.log(1e7), 1000))
    assert ts.size > zt._Z_ELEMENTS // int(math.sqrt(ts.max() / zt.TWO_PI))
    one = np.array([zt.hardy_z_many(np.array([t]))[0] for t in ts])
    assert np.array_equal(zt.hardy_z_many(ts), one)


def test_theta_delta_is_accurate_relative_to_h():
    def theta_series(t):        # theta's series, as theta_gram evaluates it
        return t / 2 * mpmath.log(t / (2 * mpmath.pi)) - t / 2 - mpmath.pi / 8 \
            + 1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)

    with mpmath.workdps(40):
        for c in (31.7, 1000.3, 71732.5):
            for h in (1e-10, -3e-7, 0.3, -1.9):
                d = zt._theta_delta(np.array([c]), np.array([h]))[0]
                ref = theta_series(mpmath.mpf(c) + h) - theta_series(mpmath.mpf(c))
                assert abs(d - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("n_lo", [4, 2000, 90000])
def test_local_expansion_at_the_centres_is_the_direct_sum(n_lo):
    g = th.gram_points(n_lo + 1000, n_lo)
    z = zt.hardy_z_local(g)
    # Z at the Gram points comes from the moments' cos rows, summed as
    # hardy_z_many sums them, so a build's z_gram is the direct kernel's
    assert np.array_equal(z.at_centres, zt.hardy_z_many(g))
    assert np.max(np.abs(z(g) - zt.hardy_z_many(g))) <= 1e-12


def test_local_expansion_evaluation_is_flat():
    """A run's evaluator, asked for a run's worth of heights, holds no copy of
    the moments per height: gathering each height's K + 1 moments peaked at
    4 MB above the result."""
    import tracemalloc

    g = th.gram_points(100000 + zt.LOCAL_BRACKETS - 1, 100000)
    z = zt.hardy_z_local(g)
    ts = np.r_[g[:-1] + 0.37 * np.diff(g), g[-1]]
    first = z(ts)
    tracemalloc.start()
    try:
        out = z(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == first.tobytes()
    assert peak - out.nbytes <= 2 * 2**20


@pytest.mark.parametrize("n_lo, count", [(277, 20), (277, 4096), (90000, 4096)])
def test_local_expansion_order_meets_its_remainder_bound(n_lo, count):
    """K is the least order whose proven tail bound is 1e-13, and it holds."""
    g = th.gram_points(n_lo + count, n_lo)
    # G_277 is the lowest Gram interval above RS_SWITCH_T, and the widest
    assert g[0] >= zt.RS_SWITCH_T > th.gram_point(276).t
    n_top = int(math.sqrt(g[-1] / zt.TWO_PI))
    # a height takes the nearer Gram point c: |h| is at most half the wider
    # gap beside c, and the expanded sum runs to N(c)
    gaps = np.diff(g)
    x = 0.0
    for j, c in enumerate(g):
        wider = max(gaps[max(j - 1, 0)], gaps[min(j, gaps.size - 1)])
        x = max(x, 0.5 * wider * math.log(math.floor(math.sqrt(c / zt.TWO_PI))))
    weight = float(np.sum(np.arange(1, n_top + 1) ** -0.5))
    order = zt._taylor_order(x, weight)

    def tail(k):
        with mpmath.workdps(30):
            return 2 * weight * mpmath.mpf(x) ** (k + 1) / mpmath.factorial(k + 1) \
                * mpmath.exp(x)

    assert tail(order) <= 1e-13 < tail(order - 1)
    z = zt.hardy_z_local(g)
    assert z.order == order


def test_local_expansion_shows_its_own_truncation_below_t_100(monkeypatch):
    """Below t = 100 both Riemann-Siegel kernels round near 1e-14, so the
    expansion at the midpoints of the Gram intervals, where |h| is largest,
    shows its own truncation.  Euler-Maclaurin serves those heights, so the
    switch is moved down to T_MIN to reach both kernels there."""
    monkeypatch.setattr(zt, "RS_SWITCH_T", zt.T_MIN)
    g = th.gram_points(24, 4)
    z = zt.hardy_z_local(g)
    mid = 0.5 * (g[:-1] + g[1:])
    assert np.max(np.abs(z(mid) - zt.hardy_z_many(mid))) <= 2e-13


@pytest.mark.parametrize("k", [3, 10, 40, 100])
def test_local_expansion_across_a_change_of_n(k):
    """A bracket holding t = 2 pi k^2, where N(t) steps from k - 1 to k."""
    t_step = zt.TWO_PI * k * k
    n = int(th.theta(t_step).value / math.pi + 1.0)
    g = th.gram_points(n + 1, n)
    assert g[0] < t_step < g[1]
    ts = np.sort(np.r_[np.linspace(g[0], g[1], 11)[1:-1], t_step - 1e-6, t_step + 1e-6])
    ref = np.array([siegelz_oracle(float(t)) for t in ts])
    local = np.abs(zt.hardy_z_local(g)(ts) - ref)
    direct = np.abs(zt.hardy_z_many(ts) - ref)
    assert np.max(local) <= np.max(direct) + 1e-12


def test_local_expansion_changes_sign_once_at_zero_95248():
    """The direct kernel's rounding makes Z change sign 5 times within 1e-9 here.

    One rounded phase per Gram point leaves the expansion smooth in h: it falls
    by about 1.4e-11 per grid step, and a dtheta taken as a difference of two
    theta values near 3.5e5 (ulp 6e-11) would break that.
    """
    root = 71732.90120787236   # frozen from mpmath.findroot(mpmath.siegelz) at 30 digits
    n = int(th.theta(root).value / math.pi + 1.0)
    ts = root + 1e-10 * np.arange(-30, 31)
    z = zt.hardy_z_local(th.gram_points(n + 1, n))(ts)
    assert np.all(np.diff(z) < 0.0)
    flips = np.nonzero(np.sign(z[1:]) != np.sign(z[:-1]))[0]
    assert flips.size == 1
    assert abs(0.5 * (ts[flips[0]] + ts[flips[0] + 1]) - root) < 1e-9


def _omega(n: int) -> int:
    """Prime factors of n counted with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


@pytest.mark.parametrize("n_top", [1, 2, 12, 109, 310, 1000])
def test_factor_plan_covers_each_n_once_after_its_factors(n_top):
    ns, lnp, levels = zt._factor_plan(n_top)
    assert np.array_equal(np.sort(ns), np.arange(1, n_top + 1))
    omega = np.array([_omega(int(n)) for n in ns])
    primes = ns[1 : 1 + lnp.size]
    assert ns[0] == 1 and np.all(omega[1 : 1 + lnp.size] == 1)
    assert np.array_equal(lnp, np.log(primes.astype(float)))
    done = 1 + lnp.size
    for k, (start, stop, i_p, i_q) in enumerate(levels, start=2):
        assert start == done and np.all(omega[start:stop] == k)
        # both factors sit at earlier positions, p is n's smallest prime factor
        assert np.all(i_p < start) and np.all(i_q < start)
        assert np.array_equal(ns[i_p] * ns[i_q], ns[start:stop])
        assert np.all(omega[i_p] == 1)
        assert all(n % q for n, p in zip(ns[start:stop], ns[i_p])
                   for q in range(2, int(p)))
        done = stop
    assert done == n_top


@pytest.mark.parametrize("t0", [1e3, 7.5e4, 6e5])
def test_unit_terms_within_omega_plus_one_ulps(t0):
    """Each prime factor adds at most about one ulp of t ln n to the phase."""
    t = np.random.default_rng(18).uniform(t0, 1.01 * t0, 4)
    n_top = int(math.sqrt(t.max() / zt.TWO_PI))
    ns = zt._factor_plan(n_top)[0]
    e = zt._unit_terms(t, n_top)
    with mpmath.workdps(40):
        for row, n in enumerate(ns.tolist()):
            for j, tj in enumerate(t.tolist()):
                x = mpmath.mpf(tj) * mpmath.log(n)
                tol = (_omega(n) + 1) * np.spacing(float(x))
                assert abs(e[row, j].real - float(mpmath.cos(x))) <= tol
                assert abs(e[row, j].imag - float(mpmath.sin(x))) <= tol


def test_unit_terms_do_not_depend_on_the_slice_or_n_top():
    t = np.exp(np.random.default_rng(19).uniform(math.log(1e3), math.log(1e7), 300))
    whole = zt._unit_terms(t, 400)
    for j in (0, 1, 150, 299):
        assert np.array_equal(zt._unit_terms(t[j : j + 1], 400)[:, 0], whole[:, j])
    # rows in order of n: a shorter plan gives the same rows for its n
    by_n = whole[np.argsort(zt._factor_plan(400)[0])]
    short = zt._unit_terms(t, 100)[np.argsort(zt._factor_plan(100)[0])]
    assert np.array_equal(short, by_n[:100])


def test_error_within_bound_against_oracle_above_1e5():
    """Eight seeded heights in [1e5, 1e6], where the prime-phase main sum runs
    to N = 126..398 terms."""
    with mpmath.workdps(20):
        for t in np.random.default_rng(20261018).uniform(1e5, 1e6, size=8):
            ze = zt.hardy_z(float(t))
            assert abs(ze.z - siegelz_oracle(float(t))) <= ze.err_bound
