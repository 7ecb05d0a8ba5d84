import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gramlab.theta_gram as th
from gramlab.errors import ConvergenceError, DomainError
from conftest import AVX2, X86_V4, pinned

mpmath.mp.dps = 30


def theta_oracle(t: float) -> float:
    """Phase of pi^(-s/2) Gamma(s/2) at s = 1/2 + it via 30-digit log-Gamma."""
    with mpmath.workdps(30):
        s = mpmath.mpf(1) / 4 + 0.5j * mpmath.mpf(t)
        return float(mpmath.im(mpmath.loggamma(s)) - mpmath.mpf(t) / 2 * mpmath.log(mpmath.pi))


# paper-quoted Gram point heights, four decimals
PAPER_GRAM = {0: 9.6669, 1: 17.8456, 2: 23.1703, 3: 27.6702}


def test_low_gram_points_match_published_values():
    for n, val in PAPER_GRAM.items():
        assert abs(th.gram_point(n).t - val) <= 1e-4


def test_theta_vanishes_at_published_first_gram_point():
    assert abs(th.theta(17.8456).value) < 1e-3


def test_theta_is_minus_pi_at_published_t0():
    assert abs(th.theta(9.6669).value + math.pi) < 1e-3


def test_theta_matches_loggamma_oracle_at_20pi():
    # frozen from theta_oracle(2*pi*10) = 40.52955008425581
    t = 2.0 * math.pi * 10.0
    frozen = 40.52955008425581
    assert abs(theta_oracle(t) - frozen) < 1e-12
    ev = th.theta(t)
    assert abs(ev.value - frozen) <= 1e-10


@pytest.mark.parametrize("t", [7.5, 9.6669, 20.0, 50.0, 317.1, 4444.0, 1e5, 1e6])
def test_theta_within_reported_bound_of_oracle(t):
    ev = th.theta(t)
    err = abs(ev.value - theta_oracle(t))
    assert err <= ev.err_bound + 8.0 * np.spacing(abs(ev.value))
    if t >= 20.0:
        assert err <= 1e-10 + 4.0 * np.spacing(abs(ev.value))


def test_theta_finite_where_its_tail_underflows():
    # t**7 overflows past t ~ 1.8e44; the truncation bound is 0 there
    ev = th.theta(1e50)
    assert math.isfinite(ev.value) and ev.err_bound == 0.0
    assert ev.value == float(th._theta_raw(1e50))


def test_theta_domain_floor():
    with pytest.raises(DomainError):
        th.theta(6.9)
    with pytest.raises(DomainError):
        th.theta_derivative(5.0, 1)


def test_derivative_orders():
    # leading term of theta' at t = 2 pi e is ln(e)/2
    assert abs(th.theta_derivative(2 * math.pi * math.e, 1) - 0.5) < 1e-3
    # theta'' ~ 1/(2t); frozen central difference of theta' at t=100, h=1e-4:
    # (theta'(100.0001) - theta'(99.9999)) / 2e-4 = 0.005000004...
    assert abs(th.theta_derivative(100.0, 2) - 0.005) < 1e-6
    with pytest.raises(DomainError):
        th.theta_derivative(100.0, 3)


@pytest.mark.parametrize("t", [10.0, 123.4, 9876.5])
def test_derivative_consistency_with_central_differences(t):
    h = 1e-4
    fd1 = (th.theta(t + h).value - th.theta(t - h).value) / (2 * h)
    assert abs(th.theta_derivative(t, 1) - fd1) < 1e-6
    fd2 = (th.theta_derivative(t + h, 1) - th.theta_derivative(t - h, 1)) / (2 * h)
    assert abs(th.theta_derivative(t, 2) - fd2) < 1e-6


def test_derivative_consistency_at_large_t():
    # at t = 1e6 the h = 1e-4 difference quotient sits below binary64 noise
    # (ulp(theta)/h ~ 1e-5), so the step widens with the height
    t, h = 1e6, 1e-2
    fd1 = (th.theta(t + h).value - th.theta(t - h).value) / (2 * h)
    assert abs(th.theta_derivative(t, 1) - fd1) < 1e-6


def test_derivative_signs_and_monotonicity():
    ts = np.geomspace(7.01, 1e6, 200)
    d1 = np.array([th.theta_derivative(float(t), 1) for t in ts])
    d2 = np.array([th.theta_derivative(float(t), 2) for t in ts])
    assert np.all(d1[ts > 2 * math.pi] > 0)
    assert np.all(d2 > 0)
    assert np.all(np.diff(d2) < 0)  # theta'' decreasing


def test_gram_point_residuals_and_monotonicity():
    pts = th.gram_points(3000)
    target = (np.arange(3001) - 1.0) * math.pi
    resid = np.abs(th._theta_raw(pts) - target)
    assert np.all(resid < th.residual_tolerance(target))
    assert np.all(np.diff(pts) > 0)


def test_gram_points_match_independent_solver():
    with mpmath.workdps(30):
        for n in (0, 1, 7, 100, 2500):
            ref = float(mpmath.grampoint(n - 1))
            assert th.gram_point(n).t == pytest.approx(ref, abs=5e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=20000))
def test_gram_point_solves_its_equation(n):
    gp = th.gram_point(n)
    assert gp.t > 7.0
    resid = abs(th.theta(gp.t).value - (n - 1) * math.pi)
    assert resid < float(th.residual_tolerance(np.float64((n - 1) * math.pi)))


def test_gram_point_rejects_negative_index():
    with pytest.raises(DomainError):
        th.gram_point(-1)
    with pytest.raises(DomainError):
        th.gram_points(10, -2)


def test_gram_spacing_zero_shift_is_zero():
    assert th.gram_spacing_report(1000, 10, 0) == 0.0


def test_gram_spacing_preconditions():
    with pytest.raises(DomainError):
        th.gram_spacing_report(1000, 10, 11)
    with pytest.raises(DomainError):
        th.gram_spacing_report(99, 10, 1)


@pytest.mark.parametrize("N,M,m", [(1000, 100, 1), (10000, 1000, 5)])
def test_gram_spacing_within_mean_value_chain_bound(N, M, m):
    # rigorous for all N: pi^2 m (M+m) theta''(t_N) / theta'(t_N)^3; the
    # asymptotic 3M/(N ln^2 N) form needs far larger N (see decisions ledger)
    dev = th.gram_spacing_report(N, M, m)
    t_n = th.gram_point(N).t
    bound = (math.pi ** 2 * m * (M + m) * th.theta_derivative(t_n, 2)
             / th.theta_derivative(t_n, 1) ** 3)
    assert 0.0 < dev <= bound


def test_gram_spacing_asymptotic_form_at_large_n():
    dev = th.gram_spacing_report(10**6, 100, 1)
    assert dev <= math.pi * 3 * 100 / (10**6 * math.log(10**6) ** 2)


@pytest.fixture(scope="module")
def solve_from_0():
    return th.gram_points(100050)


B = th.GRAM_BLOCK
WINDOWS = ([(100030, 50000), (5140, 1201)] + [(n, n) for n in range(21)]
           + [(a + size - 1, a) for a in (0, 1, B - 1, B, B + 1, 50000)
              for size in (B - 1, B, B + 1, 2 * B + 1)])


@pytest.mark.parametrize("n_hi, n_lo", WINDOWS)
def test_gram_window_is_the_slice_of_the_solve_from_0(solve_from_0, n_hi, n_lo):
    """A window's bits depend on n alone: (100030, 50000) and (5140, 1201)
    differed from the slice at 18,245 and 1,020 points when the solve stopped
    once every point of the call was within tolerance."""
    window = th.gram_points(n_hi, n_lo)
    assert window.tobytes() == solve_from_0[n_lo : n_hi + 1].tobytes()


def test_gram_points_bits_pinned(solve_from_0):
    """BLAKE2b-128 of gram_points(100050), taken when every point of a solve
    from n = 0 stopped after the 3 steps n = 0 needs; one digest per numpy
    loop target, as theta's logarithm moves with it."""
    digest = hashlib.blake2b(solve_from_0.tobytes(), digest_size=16).hexdigest()
    assert digest == pinned({X86_V4: "254e6fe4b597cff5ad6491c7ddb0b2c0",
                             AVX2: "5da5fc83fee4488272a878eced85e509"})


def test_three_newton_steps_reach_every_gram_point_to_the_ceiling():
    """NEWTON_STEPS is the least count after which every n <= GRAM_CEILING is
    within tolerance: n = 0 is still outside after one step fewer."""
    from gramlab.zeros import GRAM_CEILING

    def resid_after(steps, n):
        target = (n - 1.0) * math.pi
        t = th._initial_guess(n)
        for _ in range(steps):
            t = th._newton_step(t, target)
        return np.abs(th._theta_raw(t) - target) / th.residual_tolerance(target)

    assert th.NEWTON_STEPS == 3
    assert resid_after(th.NEWTON_STEPS - 1, np.array([0]))[0] >= 1.0
    for lo in range(0, GRAM_CEILING + 1, 1 << 16):
        n = np.arange(lo, min(lo + (1 << 16), GRAM_CEILING + 1))
        assert resid_after(th.NEWTON_STEPS, n).max() < 1.0, lo


def test_gram_newton_stall_names_the_absolute_index(monkeypatch):
    """A point that never reaches tolerance is named by its n, not by its
    place in the window or the block."""
    t_stuck = th.gram_point(15000).t
    d1 = th._theta_d1_raw

    def sluggish(t):
        # theta' a million times too large near t_15000: steps a millionth long
        return np.where(np.abs(t - t_stuck) < 0.05, 1e6, 1.0) * d1(t)

    monkeypatch.setattr(th, "_theta_d1_raw", sluggish)
    with pytest.raises(ConvergenceError, match=r"near n = 15000$"):
        th.gram_points(20000, 10000)


def test_gram_solve_peak_is_one_block():
    """gram_points(10**6) holds its result and one block's temporaries; the
    solve of the whole range at once peaked at 84 MB."""
    tracemalloc.start()
    try:
        pts = th.gram_points(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - pts.nbytes <= 2**20
