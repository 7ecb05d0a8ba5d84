import math

import mpmath
import numpy as np
import pytest

from gramlab import gram_law as gl
from gramlab import moments as mo
from gramlab.errors import PreconditionError, UncertifiedRange


def test_moment_constants():
    a, b, lam = mo.moment_constants(9e-4)
    assert a == pytest.approx(math.exp(21.0) * 9e-4 ** -1.5, rel=1e-12)
    assert b == pytest.approx(a ** 2 * math.exp(-8.0), rel=1e-12)
    assert lam == pytest.approx((2 * b * math.e * math.pi ** 2) ** 2, rel=1e-12)


def test_moment_constants_epsilon_open_interval():
    for epsilon in (1e-3, 0.0, math.nan):
        with pytest.raises(PreconditionError, match="open interval"):
            mo.moment_constants(epsilon)


def test_moment_constants_read_inf_past_the_float_range():
    """lambda leaves the float range below eps ~ 1e-46, A and B below ~ 1e-205;
    every eps in (0, 1e-3) still gives the three constants."""
    assert all(map(math.isfinite, mo.moment_constants(1e-45)))
    a, b, lam = mo.moment_constants(1e-50)
    assert math.isfinite(a) and math.isfinite(b) and lam == math.inf
    assert b == pytest.approx(a ** 2 * math.exp(-8.0), rel=1e-12)
    for epsilon in (1e-206, 5e-324):
        assert mo.moment_constants(epsilon) == (math.inf,) * 3


@pytest.mark.parametrize("k, M, x, div", [(1, 500, 0.3, 1.0), (14, 500, 0.094, 2 * math.pi),
                                          (120, 1000, 2.44, 2 * math.pi),
                                          (200, 5, 0.094, 2 * math.pi), (400, 500, 7.0, 1.0)])
def test_main_term_from_the_exact_ratio(k, M, x, div):
    """(2k)!/k! M x^k / div^(2k) near its 40-digit value, also where a factor or
    a partial product leaves the float range; as the factorial quotient it
    replaced, bit for bit, where that quotient was finite."""
    with mpmath.workdps(40):
        ref = mpmath.factorial(2 * k) / mpmath.factorial(k) * M \
            * mpmath.mpf(x) ** k / mpmath.mpf(div) ** (2 * k)
    main = mo._main_term(k, M, x, div)
    if ref > 1.7e308:
        assert main == math.inf
    else:
        assert main == pytest.approx(float(ref), rel=1e-11)
    if k <= 14:
        assert main == math.factorial(2 * k) / math.factorial(k) * M * x ** k / div ** (2 * k)


def test_block_moment_zero_shift(table_small):
    assert mo.block_difference_moment(table_small, 100, 200, 0, 1).sum == 0


def test_block_moment_definitional_identity(table_small):
    rep = mo.block_difference_moment(table_small, 100, 300, 7, 2)
    s = [table_small.s_at_gram(n) for n in range(0, 1101)]
    direct = sum((s[n + 7] - s[n]) ** 4 for n in range(101, 401))
    assert rep.sum == direct
    assert rep.main_term is None  # ln(m eps / k) <= 0 at desk scale


def test_block_moment_positive_and_trend(table_full):
    rep = mo.block_difference_moment(table_full, 10000, 1000, 10, 1)
    assert rep.sum > 0 and isinstance(rep.sum, int)


def test_adjacent_moment_is_r_power_sum(table_small):
    rep = mo.adjacent_difference_moment(table_small, 100, 500, 1)
    counts = gl.interval_counts(table_small, 101, 600)
    assert rep.sum == int(np.sum((counts - 1) ** 2))
    assert rep.bound_satisfied


def test_adjacent_moment_power_mean(table_small):
    s2 = mo.adjacent_difference_moment(table_small, 100, 500, 1).sum
    s4 = mo.adjacent_difference_moment(table_small, 100, 500, 2).sum
    assert s4 >= s2 ** 2 / 500.0


def test_adjacent_bound_large_k_no_overflow(table_small):
    rep = mo.adjacent_difference_moment(table_small, 100, 500, 14)
    assert rep.bound_satisfied
    assert rep.bound == math.inf and rep.log10_bound > 308


def test_adjacent_moment_exact_past_int64(table_full):
    # eight terms of 2^60 each: the sum passes 2^63 although every term fits
    s = table_full.s_gram
    r = s[90001:100001] - s[90000:100000]
    assert mo.adjacent_difference_moment(table_full, 90000, 10000, 30).sum \
        == sum(int(v) ** 60 for v in r.tolist())


def test_weighted_power_sum_exact_past_int64():
    values, weights = np.full(16, 8, dtype=np.int64), np.full(16, -5, dtype=np.int64)
    assert mo._int_power_sum(values, 19, weights) == -16 * 5 * 8 ** 19


def test_first_moment_facts(table_small):
    rep = mo.first_moment(table_small, 100, 500)
    assert rep.sum > 0
    assert rep.ratio == rep.sum / 500
    # parity: sum |r| == sum r (mod 2)
    s = table_small.s_gram
    assert (rep.sum - (int(s[600]) - int(s[100]))) % 2 == 0


def test_first_moment_regular_low_range(table_small):
    assert mo.first_moment(table_small, 0, 15).sum == 0


def test_cauchy_consistency(table_small):
    fm = mo.first_moment(table_small, 100, 500).sum
    am = mo.adjacent_difference_moment(table_small, 100, 500, 1).sum
    assert fm ** 2 <= 500 * am


def test_empty_and_crowded(table_small):
    m1, m2 = mo.empty_and_crowded_counts(table_small, 100, 500)
    counts = gl.interval_counts(table_small, 101, 600)
    r = counts - 1
    assert m1 == int(np.sum((np.abs(r) - r) // 2))
    assert m1 == int(np.sum(r == -1)) and m2 == int(np.sum(r >= 1))
    # G_127 sits in (100, 600]: at least one empty interval
    assert m1 >= 1


def test_telescoping(table_small):
    s = table_small.s_gram
    counts = gl.interval_counts(table_small, 101, 600)
    assert int(np.sum(counts - 1)) == int(s[600]) - int(s[100])


def test_alternating_t0_telescopes(table_small):
    rep = mo.alternating_sum(table_small, 100, 500, 0)
    s = table_small.s_gram
    assert rep.sum == int(s[600]) - int(s[100])


def test_alternating_t1_identity(table_small):
    """2 T_1 = S^2(t_{N+M}) - S^2(t_N) + sum r^2, exactly."""
    rep = mo.alternating_sum(table_small, 100, 500, 1)
    s = table_small.s_gram
    r = s[101:601] - s[100:600]
    rhs = int(s[600]) ** 2 - int(s[100]) ** 2 + int(np.sum(r ** 2))
    assert 2 * rep.sum == rhs
    assert rep.bound_satisfied


def test_alternating_even_bound(table_small):
    rep = mo.alternating_sum(table_small, 100, 500, 2)
    assert rep.bound_satisfied


def test_selberg_even_is_offset_power_sum(table_small):
    rep = mo.selberg_delta_moment(table_small, 100, 500, 1, "even")
    deltas = gl.delta_array(table_small, 101, 600)
    assert rep.sum == int(np.sum(deltas.astype(np.int64) ** 2))
    assert rep.ratio == rep.sum / rep.main_term


def test_selberg_odd_bound_and_value(table_small):
    rep = mo.selberg_delta_moment(table_small, 100, 500, 1, "odd")
    deltas = gl.delta_array(table_small, 101, 600)
    assert rep.sum == int(np.sum(deltas))
    assert rep.bound_satisfied


def test_selberg_regular_range_is_zero(table_small):
    rep = mo.selberg_delta_moment(table_small, 3, 12, 1, "even")
    assert rep.sum == 0


def test_selberg_parity_validation(table_small):
    with pytest.raises(PreconditionError):
        mo.selberg_delta_moment(table_small, 100, 500, 1, "both")
    with pytest.raises(PreconditionError):
        mo.selberg_delta_moment(table_small, 100, 500, 0, "even")


def test_titchmarsh_single_term(table_small):
    rep = mo.titchmarsh_correlation(table_small, 1)
    z = table_small.z_values()
    assert rep.sum == pytest.approx(float(z[0] * z[1]), abs=1e-14)


def test_titchmarsh_main_term_constant(table_small):
    rep = mo.titchmarsh_correlation(table_small, 100)
    assert rep.main_term == pytest.approx(-2.0 * (0.5772156649015329 + 1.0) * 100)


def test_titchmarsh_negative_at_scale(table_full):
    rep = mo.titchmarsh_correlation(table_full, 10000)
    assert rep.sum < 0.0
    assert 0.8 <= rep.ratio <= 1.2


def test_uncertified_raises(table_small):
    with pytest.raises(UncertifiedRange):
        mo.first_moment(table_small, 1100, 500)
    with pytest.raises(UncertifiedRange):
        mo.selberg_delta_moment(table_small, 1200, 100, 1, "even")
