"""Hardy's Z function and zeta on the critical line.

Two independent evaluation routes:

* riemann_siegel: main sum of length N = floor(sqrt(t/2pi)) plus the
  correction terms C_0..C_4, fixed combinations of derivatives of
  Psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p).  Each C_k is one polynomial in
  (p - 1/2)^2 (times p - 1/2 for odd k), generated once per process by
  folding the Psi Taylor series about p = 1/2 with the C_k weights at
  high precision; the heavy cancellation in the series division rules out
  float64 generation.
* euler_maclaurin: classical zeta summation with Bernoulli corrections and a
  rigorous tail estimate, one vector evaluation over an array of heights that
  returns every Bernoulli row with its bound; serves as the cross-method
  oracle (the first row that meets a target) and as the route below
  RS_SWITCH_T (the row with the least bound).

The main sum is taken from prime phases.  With C + iS = e^(i t ln n),
2 sum_{n<=N} n^(-1/2) cos(theta - t ln n) = 2 (cos theta sum_n n^(-1/2) C
+ sin theta sum_n n^(-1/2) S).  Cosine and sine are taken only at the primes
p <= N; a composite n is the product of the rows of its smallest prime
factor and its cofactor, one vectorized complex product per level of
Omega(n), so about pi(N) of the N terms cost trig (29 of 108 at t = 7.5e4).

A table build evaluates Z only within half a Gram interval of some Gram
point, and there a third form of the Riemann-Siegel route, `hardy_z_local`,
expands the main sum about each Gram point c of a run: with moments
M_k = sum_n n^(-1/2) e^(i(theta(c) - c ln n)) (ln n)^k / k!, taken once per
Gram point from the same prime-phase terms,
Z(c + h) = 2 Re[e^(i(theta(c+h) - theta(c))) sum_{k<=K} M_k (-ih)^k]
plus the same C_0..C_4 correction at c + h.  The Taylor tail is at most
2 sum_n n^(-1/2) x^(K+1)/(K+1)! e^x with x = max|h| ln N, and K is the least
order that holds it to 1e-13.  The terms also give Z at the Gram points,
bit for bit the direct sum.  One rule, `_em_heights`, picks the route at every
height for `hardy_z`, `hardy_z_many` and `hardy_z_local` alike.

Each route has one implementation, the vectorized one (a scalar t is a
1-element array).  Both add their terms one after another in a fixed order
of n, so a height's value does not depend on the call or the slice it is
evaluated in.  The Riemann-Siegel sum rounds at ~1e-13 at our sum lengths,
far below the reported error bounds, which are dominated by phase rounding
at large t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, PreconditionError
from .theta_gram import T_MIN, _require_heights, theta, theta_many

TWO_PI = 2.0 * math.pi

RS_SWITCH_T = 510.0  # euler_maclaurin below, riemann_siegel above
EM_MAX_T = 5.0e4
EM_MIN_TARGET = 1e-13

# truncation constant for the 4-correction Riemann-Siegel remainder;
# calibrated against the high-precision oracle (observed worst ratio 0.013)
_RS_TRUNC = 0.02
# flat floor covering float64 phase rounding through the oracle range
# (observed worst 8e-11 at t = 5e4)
_RS_ROUND_FLOOR = 5e-10


@dataclass(frozen=True)
class ZEval:
    t: float
    z: float
    err_bound: float
    method: str


@dataclass(frozen=True)
class ZetaHalfLine:
    t: float
    a: float
    b: float


# ---------------------------------------------------------------------------
# Riemann-Siegel correction polynomials

_PSI_TERMS = 88
# a trailing coefficient is dropped while the tail bound stays below this
_RS_TAIL = 1e-18

# C_k = sum of weight * Psi^(order) / pi^power over its (order, weight, power)
# rows: the classical corrections C_0..C_4 (Gabcke 1979)
_RS_WEIGHTS = (
    ((0, Fraction(1), 0),),
    ((3, Fraction(-1, 96), 2),),
    ((2, Fraction(1, 64), 2), (6, Fraction(1, 18432), 4)),
    ((1, Fraction(-1, 64), 2), (5, Fraction(-1, 3840), 4), (9, Fraction(-1, 5308416), 6)),
    ((0, Fraction(1, 128), 2), (4, Fraction(19, 24576), 4),
     (8, Fraction(11, 5898240), 6), (12, Fraction(1, 2038431744), 8)),
)


@lru_cache(maxsize=2)
def _rs_polys(tail_max: float = _RS_TAIL) -> tuple[np.ndarray, ...]:
    """Highest-first polyval arrays in v = u^2 for C_0..C_4 at p = 1/2 + u.

    Psi(1/2+u) = [sin(pi/8) cos(2pi u^2) - cos(pi/8) sin(2pi u^2)] / cos(2pi u)
    is entire and even in u; its first _PSI_TERMS Taylor coefficients are
    obtained by series division and folded with _RS_WEIGHTS into the Taylor
    coefficients of each C_k, all at 120 significant digits, before any
    rounding to float.  C_k has the parity of k, so its other coefficients
    are exact zeros: even k gives a polynomial in v, odd k one times u.
    Over v <= 1/4 the coefficients past the 20th to 23rd add less than
    tail_max, bounded by sum |c_j| 4^-j, and are dropped.
    """
    import mpmath

    n_terms = _PSI_TERMS
    with mpmath.workdps(120):
        pi = mpmath.pi
        sin8 = mpmath.sin(pi / 8)
        cos8 = mpmath.cos(pi / 8)
        num = [mpmath.mpf(0)] * n_terms
        j = 0
        while 4 * j < n_terms:
            num[4 * j] += sin8 * (-1) ** j * (2 * pi) ** (2 * j) / mpmath.factorial(2 * j)
            j += 1
        j = 0
        while 4 * j + 2 < n_terms:
            num[4 * j + 2] -= cos8 * (-1) ** j * (2 * pi) ** (2 * j + 1) / mpmath.factorial(2 * j + 1)
            j += 1
        den = [mpmath.mpf(0)] * n_terms
        l = 0
        while 2 * l < n_terms:
            den[2 * l] = (-1) ** l * (2 * pi) ** (2 * l) / mpmath.factorial(2 * l)
            l += 1
        a = [mpmath.mpf(0)] * n_terms
        for k in range(n_terms):
            acc = num[k]
            for i in range(1, k + 1):
                acc -= den[i] * a[k - i]
            a[k] = acc

        polys = []
        for k, rows in enumerate(_RS_WEIGHTS):
            # Psi^(order)(1/2+u) has Taylor coefficients (i+order)!/i! a[i+order]
            c = [mpmath.mpf(0)] * (n_terms - min(order for order, _, _ in rows))
            for order, w, power in rows:
                scale = mpmath.mpf(w.numerator) / w.denominator / pi ** power
                for i in range(n_terms - order):
                    c[i] += scale * math.perm(i + order, order) * a[i + order]
            coef = c[k % 2 :: 2]
            # drop the tail whose bound sum |c_j| 4^-j over v <= 1/4 is below tail_max
            tail = mpmath.mpf(0)
            keep = len(coef)
            while keep and tail + abs(coef[keep - 1]) / 4 ** (keep - 1) < tail_max:
                keep -= 1
                tail += abs(coef[keep]) / 4 ** keep
            polys.append(np.asarray([float(x) for x in coef[:keep]][::-1]))
    return tuple(polys)


@lru_cache(maxsize=1)
def _rs_table() -> np.ndarray:
    """_rs_polys() as one (width, 5, 1) table of Horner steps, the shorter
    polynomials led by zeros: 0 v + 0 is exactly 0, so no bit moves."""
    polys = _rs_polys()
    width = max(poly.size for poly in polys)
    table = np.zeros((width, 5, 1))
    for k, poly in enumerate(polys):
        table[width - poly.size :, k, 0] = poly
    return table


def _rs_corrections(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Correction factors C0..C4 at fractional parts p (array in [0,1))."""
    u = np.asarray(p, dtype=float) - 0.5
    v = (u * u).ravel()
    c = np.zeros((5, v.size))
    for coef in _rs_table():            # np.polyval's Horner steps, C0..C4 in one pass
        c *= v
        c += coef
    c = c.reshape((5,) + u.shape)
    return c[0], u * c[1], c[2], u * c[3], c[4]


def rs_err_bound(t) -> np.ndarray:
    """Reported Riemann-Siegel error bound: truncation plus rounding floor."""
    t = np.asarray(t, dtype=float)
    return _RS_TRUNC * t ** -2.75 + _RS_ROUND_FLOOR * np.maximum(1.0, t / EM_MAX_T)


# ---------------------------------------------------------------------------
# Riemann-Siegel main sum from prime phases

_Z_ELEMENTS = 1 << 15  # heights x terms per slice of the main sum


@lru_cache(maxsize=64)
def _factor_plan(n_top: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """n = 1..n_top in the order the term builder fills them: by Omega(n), the
    number of n's prime factors counted with multiplicity, then ascending.

    Returns (ns, lnp, levels).  ns is 1, the primes, then the n with
    Omega(n) = 2, 3, ...; lnp is ln p for the primes ns[1 : 1 + lnp.size].
    Each level is (start, stop, i_p, i_q): ns[start:stop] are the n of one
    Omega, ns[i_p] their smallest prime factors p and ns[i_q] the cofactors
    n / p, all at positions before start.
    """
    n = np.arange(n_top + 1)
    spf = n.copy()                              # smallest prime factor of n >= 2
    for p in range(2, math.isqrt(n_top) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    omega = np.zeros(n_top + 1, dtype=np.int64)
    rest = n.copy()
    while (left := rest > 1).any():
        omega += left
        rest[left] //= spf[rest[left]]
    ns = 1 + np.argsort(omega[1:], kind="stable")
    pos = np.empty(n_top + 1, dtype=np.int64)
    pos[ns] = np.arange(n_top)
    cut = np.searchsorted(omega[ns], np.arange(max(omega.max(), 1) + 2))
    levels = tuple((cut[k], cut[k + 1], pos[spf[m]], pos[m // spf[m]])
                   for k in range(2, cut.size - 1) for m in [ns[cut[k] : cut[k + 1]]])
    return ns, np.log(ns[cut[1] : cut[2]].astype(float)), levels


def _unit_terms(t: np.ndarray, n_top: int) -> np.ndarray:
    """e^(i t ln n) = C + i S for n = 1..n_top: one row per n, in _factor_plan's
    order, each contiguous over the heights.

    Trig is taken only at the primes.  A composite n = p q, p its smallest
    prime factor, is the product of its factors' rows, C_n = C_p C_q - S_p S_q
    and S_n = C_p S_q + S_p C_q, one vectorized step per level of Omega(n)
    (Odlyzko & Schonhage 1988 build n^(-it) from its factors the same way).
    A value depends on its height and n alone, not on the other heights or on
    n_top.
    """
    _, lnp, levels = _factor_plan(n_top)
    e = np.empty((n_top, t.size), dtype=complex)
    e[0] = 1.0
    phase = np.multiply.outer(lnp, t)
    e.real[1 : 1 + lnp.size] = np.cos(phase)
    e.imag[1 : 1 + lnp.size] = np.sin(phase, out=phase)
    for start, stop, i_p, i_q in levels:
        np.multiply(e[i_p], e[i_q], out=e[start:stop])
    return e


def _main_terms(t: np.ndarray, n_t: np.ndarray, n_top: int) -> np.ndarray:
    """n^(-1/2) (C, S) for n = 1..n_top in _factor_plan's order, zero where
    n > n_t: an (n_top, t.size, 2) float array."""
    ns = _factor_plan(n_top)[0]
    e = _unit_terms(t, n_top)
    terms = e.view(float).reshape(n_top, t.size, 2)
    terms *= (1.0 / np.sqrt(ns))[:, None, None]
    e[ns[:, None] > n_t] = 0.0
    return terms


def _main_sum(terms: np.ndarray, th: np.ndarray) -> np.ndarray:
    """2 sum_n n^(-1/2) cos(theta - t ln n) = 2 (cos theta sum Cw + sin theta sum Sw)
    from _main_terms' rows.

    The rows are added one after another: an axis-0 reduction over blocks of
    at least two values is never pairwise.  So a height's sum is the same in
    any slice, and zero rows, past N(t) or past another slice's n_top, leave
    it as it is.
    """
    wc, ws = np.add.reduce(terms, axis=0).T
    return 2.0 * (np.cos(th) * wc + np.sin(th) * ws)


def _rs_remainder(t: np.ndarray, N: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The C_0..C_4 correction at t, with N = floor(sqrt(t/2pi)) and p its fraction."""
    c0, c1, c2, c3, c4 = _rs_corrections(p)
    q = np.sqrt(TWO_PI / t)
    return np.where(N % 2 == 1, 1.0, -1.0) * (TWO_PI / t) ** 0.25 \
        * (c0 + q * (c1 + q * (c2 + q * (c3 + q * c4))))


def _hardy_z_rs(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z over an array, in slices of at most _Z_ELEMENTS heights
    x terms; a height's terms and its sum do not depend on the slice, so
    slicing does not move a bit."""
    out = np.empty(ts.shape)
    if ts.size == 0:
        return out
    rows = max(1, _Z_ELEMENTS // int(math.sqrt(float(ts.max()) / TWO_PI)))
    for i in range(0, ts.size, rows):
        seg = ts[i : i + rows]
        a = np.sqrt(seg / TWO_PI)
        N = a.astype(np.int64)
        terms = _main_terms(seg, N, int(N.max()))
        out[i : i + rows] = _main_sum(terms, theta_many(seg)) + _rs_remainder(seg, N, a - N)
    return out


# ---------------------------------------------------------------------------
# Riemann-Siegel expansion about Gram points

LOCAL_BRACKETS = 8192  # Gram points per build run: 2.8 MB of moments, ~5 ms of fixed calls
_LOCAL_TOL = 1e-13     # bound on the truncated Taylor tail of the main sum
# multiply-adds per matrix product: OpenBLAS runs products this small on one
# thread; its threaded ones stalled about 8 ms a call in one process of 6 on
# a shared 2-core Xeon
_SERIAL_MACS = 1 << 18


def _taylor_order(x: float, weight: float) -> int:
    """Least K with 2 weight x^(K+1)/(K+1)! e^x <= _LOCAL_TOL."""
    k, term = 0, x                              # term = x^(k+1)/(k+1)!
    while 2.0 * weight * term * math.exp(x) > _LOCAL_TOL:
        k += 1
        term *= x / (k + 1)
    return k


def _theta_delta(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """theta(c + h) - theta(c) from theta's series, to relative accuracy in h."""
    t = c + h
    u, w = 1.0 / t, 1.0 / c
    u2, uw, w2 = u * u, u * w, w * w
    # 1/t^j - 1/c^j = (1/t - 1/c) (u^(j-1) + ... + w^(j-1)), 1/t - 1/c = -h u w
    return (0.5 * c * np.log1p(h / c) + 0.5 * h * (np.log(t / TWO_PI) - 1.0)
            - h * uw * (1.0 / 48.0 + (u2 + uw + w2) * (7.0 / 5760.0)
                        + (u2 * u2 + u2 * uw + uw * uw + uw * w2 + w2 * w2)
                        * (31.0 / 80640.0)))


def hardy_z_local(c: np.ndarray):
    """Z near a run c of ascending Gram points, from a Taylor expansion about each.

    At each centre c the moments
    M_k = sum_{n <= N(c)} n^(-1/2) e^(i(theta(c) - c ln n)) (ln n)^k / k!
        = e^(i theta(c)) (P_k . Cw - i P_k . Sw)
    take the prime-phase terms Cw, Sw = n^(-1/2) (cos, sin)(c ln n) of
    _main_terms and one matrix product with the table P_k = (ln n)^k / k!
    (Odlyzko & Schonhage 1988 reuse n^(-it) about a base point the same way).
    The same terms give Z at the centres as _hardy_z_rs sums them, bit for
    bit hardy_z_many's values, carried as the function's `at_centres`.  The
    function maps heights t in [c_0, c_last] to hardy_z_many's value where
    _em_heights holds, and elsewhere, from the nearer centre c, to
    Z(c + h) = 2 Re[e^(i dtheta) sum_{k <= K} M_k (-ih)^k] + R(t), where
    dtheta = theta(c + h) - theta(c) and R is the C_0..C_4 correction at t;
    where N(t) differs from N(c), the one term gained or lost is added
    directly.  As |e^(-ih ln n) - sum_{k <= K} (-ih ln n)^k / k!|
    <= x^(K+1) / (K+1)! e^x for x = max over centres of |h| ln N(c), |h| up
    to half the wider gap beside c, the main sum is off by at most
    2 sum_{n <= N} n^(-1/2) x^(K+1)/(K+1)! e^x; the function's `order` K is
    the least that holds this to _LOCAL_TOL.
    """
    c = np.asarray(c, dtype=float)
    a = np.sqrt(c / TWO_PI)
    n_c = a.astype(np.int64)
    th = theta_many(c)
    n_top = int(n_c[-1])
    n = np.arange(1, n_top + 1, dtype=float)
    logn = np.log(n)
    mid = 0.5 * (c[:-1] + c[1:])
    half = 0.5 * np.diff(c)
    reach = np.maximum(np.r_[0.0, half], np.r_[half, 0.0])     # max |h| per centre
    order = _taylor_order(float(np.max(reach * logn[n_c - 1])), float(np.sum(1.0 / np.sqrt(n))))
    ln_rows = logn[_factor_plan(n_top)[0] - 1]
    powers = np.empty((n_top, order + 1))       # (ln n)^k / k!, rows as _main_terms'
    powers[:, 0] = 1.0
    for k in range(1, order + 1):
        np.multiply(powers[:, k - 1], ln_rows / k, out=powers[:, k])
    # a row per order k, a column per centre: a Horner step of the expansion
    # gathers one row at the heights' centres, and no height copies all K + 1
    moments = np.empty((order + 1, c.size), dtype=complex)
    z_c = np.empty(c.size)
    width = max(1, _Z_ELEMENTS // n_top)                        # centres per slice
    step = max(1, _SERIAL_MACS // (2 * n_top * (order + 1)))   # centres per product
    for i in range(0, c.size, width):
        j = min(i + width, c.size)
        terms = _main_terms(c[i:j], n_c[i:j], n_top)
        z_c[i:j] = _main_sum(terms, th[i:j])
        for b0 in range(i, j, step):
            b1 = min(b0 + step, j)
            # the (Cw, Sw) column pair of each centre against P, in one product
            prod = terms[:, b0 - i : b1 - i].reshape(n_top, -1).T @ powers
            pc, ps = prod[0::2], prod[1::2]
            ct, st = np.cos(th[b0:b1])[:, None], np.sin(th[b0:b1])[:, None]
            moments.real[:, b0:b1] = (ct * pc + st * ps).T
            moments.imag[:, b0:b1] = (st * pc - ct * ps).T
    z_c += _rs_remainder(c, n_c, a - n_c)
    low = _em_heights(c)
    z_c[low] = _hardy_z_em(c[low])[0]

    def expand(ts: np.ndarray) -> np.ndarray:
        row = np.searchsorted(mid, ts)          # the nearer centre
        cr, nr = c[row], n_c[row]
        h = ts - cr                             # exact: t and c are this close
        ih = -1j * h
        acc = moments[order].take(row)
        term = np.empty_like(acc)
        for k in range(order - 1, -1, -1):
            acc *= ih
            acc += moments[k].take(row, out=term)
        dth = _theta_delta(cr, h)
        z = 2.0 * (np.cos(dth) * acc.real - np.sin(dth) * acc.imag)
        a = np.sqrt(ts / TWO_PI)
        N = a.astype(np.int64)
        s = np.nonzero(N != nr)[0]              # across an integer of sqrt(t/2pi)
        top = np.maximum(N[s], nr[s]).astype(float)
        z[s] += (N[s] - nr[s]) * 2.0 / np.sqrt(top) \
            * np.cos(th[row[s]] + dth[s] - ts[s] * np.log(top))
        return z + _rs_remainder(ts, N, a - N)

    def z_local(ts: np.ndarray) -> np.ndarray:
        return _route(ts, expand)

    z_local.order = order
    z_local.at_centres = z_c
    return z_local


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation

@lru_cache(maxsize=1)
def _bernoulli_over_fact(k_max: int = 32) -> list[float]:
    """B_{2k}/(2k)! for k = 1..k_max, exact recurrence then one rounding."""
    # B_m via sum_{j=0}^{m} C(m+1, j) B_j = 0
    B = [Fraction(1)]
    for m in range(1, 2 * k_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * B[j]
        B.append(-acc / (m + 1))
    return [float(B[2 * k] / math.factorial(2 * k)) for k in range(1, k_max + 1)]


_EM_K_MAX = 30


def _euler_maclaurin(sigma: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(sigma + i t) at heights ts, one row per count of Bernoulli terms.

    Returns (values, bounds), both (_EM_K_MAX - 1, ts.size).  Row k - 1 adds
    the first k Bernoulli terms to the head sum_{n<N} n^(-s) and the boundary
    terms N^(1-s)/(s-1) + N^(-s)/2, with N = max(24, floor(0.75|s|) + 1).
    Its bound is the rigorous tail estimate
    |R_k| <= |s+2k+1|/(sigma+2k+1) * |next term| plus a binary64
    phase-rounding floor: the RMS of the terms' amplitude times t ln n, plus
    the boundary terms' share.  The head takes cos and sin of t ln n at every
    n, in slices of at most _Z_ELEMENTS heights x terms (one height at
    least) taken in order of falling N, each as long as its first height's
    sum, and adds its (C, S) pairs over n one after another as _main_sum
    does; zero amplitudes pad a height past its N.  So a height's rows do
    not depend on the other heights of the call or on the slice.
    """
    s = sigma + 1j * ts
    N = np.maximum(24, (0.75 * np.abs(s)).astype(np.int64) + 1)
    n = np.arange(1.0, N.max(initial=24))
    amp = n ** -sigma
    lnn = np.log(n)
    head = np.empty(ts.size, dtype=complex)
    order, i = np.argsort(-N, kind="stable"), 0
    while i < ts.size:
        top = int(N[order[i]]) - 1
        rows = order[i : i + max(1, _Z_ELEMENTS // top)]
        phase = np.multiply.outer(lnn[:top], ts[rows])
        terms = np.stack([np.cos(phase), -np.sin(phase)], axis=-1)
        terms *= np.where(n[:top, None] < N[rows], amp[:top, None], 0.0)[..., None]
        head[rows] = np.add.reduce(terms, axis=0).view(complex)[:, 0]
        i += rows.size
    lnN = np.log(N)
    unit = np.cos(ts * lnN) - 1j * np.sin(ts * lnN)
    npow = np.exp(-sigma * lnN) * unit
    value = head + npow * N / (s - 1) + 0.5 * npow
    wsum = np.cumsum((amp * lnn) ** 2)[N - 2]
    tail_amp = np.abs(npow) * lnN * (N / np.abs(s - 1) + 1.0)
    rounding = 8.0 * 2.22e-16 * (1.0 + ts * (np.sqrt(wsum) + tail_amp))
    # Bernoulli term k = 1.._EM_K_MAX, B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1);
    # the last only bounds the row before it
    k = np.arange(1, _EM_K_MAX + 1)[:, None]
    rising = np.cumprod(s + np.arange(2.0 * _EM_K_MAX - 1)[:, None], axis=0)[::2]
    terms = np.array(_bernoulli_over_fact()[:_EM_K_MAX])[:, None] * rising \
        * np.exp((1.0 - sigma - 2 * k) * lnN) * unit
    bounds = np.abs(s + 2 * k[:-1] + 1) / (sigma + 2 * k[:-1] + 1) * np.abs(terms[1:])
    return value + np.cumsum(terms[:-1], axis=0), bounds + rounding


def zeta_euler_maclaurin(sigma: float, t: float, target_err: float = 1e-12):
    """zeta(sigma + i t) with a remainder bound below target_err.

    Returns (value, achieved_bound) from the first row of _euler_maclaurin
    whose bound meets the target; PrecisionError if none does.
    """
    if not (0.4 <= sigma <= 3.0):
        raise PreconditionError(f"sigma must lie in [0.4, 3], got {sigma}")
    if not (0.0 <= t <= EM_MAX_T):
        raise PreconditionError(f"t must lie in [0, {EM_MAX_T:g}], got {t}")
    if target_err < EM_MIN_TARGET:
        raise PreconditionError(f"target_err must be >= {EM_MIN_TARGET:g}")
    s = complex(sigma, t)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    values, bounds = _euler_maclaurin(sigma, np.array([float(t)]))
    met = np.nonzero(bounds[:, 0] <= target_err)[0]
    if not met.size:
        raise PrecisionError(
            f"euler_maclaurin cannot reach target_err={target_err:g} at s={s} in binary64")
    return complex(values[met[0], 0]), float(bounds[met[0], 0])


def _hardy_z_em(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z at heights ts from the row of _euler_maclaurin with the least bound,
    rotated by theta, and that bound."""
    values, bounds = _euler_maclaurin(0.5, ts)
    best = bounds.argmin(axis=0), np.arange(ts.size)
    zeta = values[best]
    th = theta_many(ts)
    return np.cos(th) * zeta.real - np.sin(th) * zeta.imag, bounds[best]


# ---------------------------------------------------------------------------
# Public operations

def _em_heights(ts):
    """The route rule: Euler-Maclaurin below RS_SWITCH_T, Riemann-Siegel above."""
    return ts < RS_SWITCH_T


def hardy_z(t: float) -> ZEval:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + i t), real for real t >= T_MIN,
    with its error bound and the route that gave it."""
    if not T_MIN <= t < math.inf:
        raise DomainError(f"hardy_z requires finite t >= {T_MIN}, got {t}")
    t = float(t)
    ts = np.array([t])
    if _em_heights(t):
        z, bound = _hardy_z_em(ts)
        return ZEval(t=t, z=float(z[0]), err_bound=float(bound[0]), method="euler_maclaurin")
    z = float(_hardy_z_rs(ts)[0])
    return ZEval(t=t, z=z, err_bound=float(rs_err_bound(t)), method="riemann_siegel")


def _route(ts: np.ndarray, above) -> np.ndarray:
    """Z at heights ts, by the Euler-Maclaurin rows where _em_heights holds and
    by `above`, a vectorized Riemann-Siegel form, on the rest."""
    low = _em_heights(ts)
    if not low.any():
        return above(ts)
    out = np.empty(ts.shape)
    out[low] = _hardy_z_em(ts[low])[0]
    out[~low] = above(ts[~low])
    return out


def hardy_z_many(ts: np.ndarray) -> np.ndarray:
    """Z on an array of finite heights t >= T_MIN, each bit for bit hardy_z's value."""
    ts = np.asarray(ts, dtype=float)
    _require_heights(ts, "hardy_z_many")
    return _route(ts, _hardy_z_rs)


def zeta_half_line(t: float) -> ZetaHalfLine:
    """A(t) = Re zeta(1/2+it) and B(t) = Im zeta(1/2+it) via Z and theta."""
    ze = hardy_z(t)
    th = theta(t).value
    return ZetaHalfLine(t=float(t), a=ze.z * math.cos(th), b=-ze.z * math.sin(th))
