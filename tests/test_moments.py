import math

import numpy as np
import pytest

from gramlab import gram_law as gl
from gramlab import moments as mo
from gramlab.errors import PreconditionError, UncertifiedRange


def test_config_constants():
    cfg = mo.MomentConfig(N=10000, M=1000, m=1, k=1, epsilon=9e-4)
    assert cfg.A == pytest.approx(math.exp(21.0) * 9e-4 ** -1.5, rel=1e-12)
    assert cfg.B == pytest.approx(cfg.A ** 2 * math.exp(-8.0), rel=1e-12)
    assert cfg.lam == pytest.approx((2 * cfg.B * math.e * math.pi ** 2) ** 2, rel=1e-12)
    assert cfg.L == pytest.approx(math.log(math.log(10000)), rel=1e-12)
    assert cfg.x == pytest.approx(float(mo.gram_points(10000, 10000)[0]) ** (0.1 * 9e-4))
    assert cfg.y == pytest.approx(cfg.x ** 0.25)


def test_config_epsilon_open_interval():
    with pytest.raises(PreconditionError):
        mo.MomentConfig(N=100, M=10, epsilon=1e-3)
    with pytest.raises(PreconditionError):
        mo.MomentConfig(N=100, M=10, epsilon=0.0)


def test_block_moment_zero_shift(table_small):
    cfg = mo.MomentConfig(N=100, M=200, m=0, k=1)
    assert mo.block_difference_moment(table_small, cfg).sum == 0


def test_block_moment_definitional_identity(table_small):
    cfg = mo.MomentConfig(N=100, M=300, m=7, k=2)
    rep = mo.block_difference_moment(table_small, cfg)
    s = [table_small.s_at_gram(n) for n in range(0, 1101)]
    direct = sum((s[n + 7] - s[n]) ** 4 for n in range(101, 401))
    assert rep.sum == direct
    assert rep.main_term is None  # ln(m eps / k) <= 0 at desk scale


def test_block_moment_positive_and_trend(table_full):
    cfg = mo.MomentConfig(N=10000, M=1000, m=10, k=1)
    rep = mo.block_difference_moment(table_full, cfg)
    assert rep.sum > 0 and isinstance(rep.sum, int)


def test_adjacent_moment_is_r_power_sum(table_small):
    cfg = mo.MomentConfig(N=100, M=500, m=1, k=1)
    rep = mo.adjacent_difference_moment(table_small, cfg)
    counts = gl.interval_counts(table_small, 101, 600)
    assert rep.sum == int(np.sum((counts - 1) ** 2))
    assert rep.bound_satisfied


def test_adjacent_moment_power_mean(table_small):
    c1 = mo.MomentConfig(N=100, M=500, m=1, k=1)
    c2 = mo.MomentConfig(N=100, M=500, m=1, k=2)
    s2 = mo.adjacent_difference_moment(table_small, c1).sum
    s4 = mo.adjacent_difference_moment(table_small, c2).sum
    assert s4 >= s2 ** 2 / 500.0


def test_adjacent_bound_large_k_no_overflow(table_small):
    cfg = mo.MomentConfig(N=100, M=500, m=1, k=14)
    rep = mo.adjacent_difference_moment(table_small, cfg)
    assert rep.bound_satisfied
    assert rep.bound == math.inf and rep.log10_bound > 308


def test_adjacent_moment_exact_past_int64(table_full):
    # eight terms of 2^60 each: the sum passes 2^63 although every term fits
    cfg = mo.MomentConfig(N=90000, M=10000, m=1, k=30)
    s = table_full.s_gram
    r = s[90001:100001] - s[90000:100000]
    assert mo.adjacent_difference_moment(table_full, cfg).sum \
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
    cfg = mo.MomentConfig(N=100, M=500, m=1, k=1)
    am = mo.adjacent_difference_moment(table_small, cfg).sum
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
    rep = mo.alternating_sum(table_small, mo.MomentConfig(N=100, M=500, m=1, k=0))
    s = table_small.s_gram
    assert rep.sum == int(s[600]) - int(s[100])


def test_alternating_t1_identity(table_small):
    """2 T_1 = S^2(t_{N+M}) - S^2(t_N) + sum r^2, exactly."""
    rep = mo.alternating_sum(table_small, mo.MomentConfig(N=100, M=500, m=1, k=1))
    s = table_small.s_gram
    r = s[101:601] - s[100:600]
    rhs = int(s[600]) ** 2 - int(s[100]) ** 2 + int(np.sum(r ** 2))
    assert 2 * rep.sum == rhs
    assert rep.bound_satisfied


def test_alternating_even_bound(table_small):
    rep = mo.alternating_sum(table_small, mo.MomentConfig(N=100, M=500, m=1, k=2))
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
