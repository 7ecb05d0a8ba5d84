"""Hardy's Z function and zeta on the critical line.

Two independent evaluation routes:

* riemann_siegel: main sum of length floor(sqrt(t/2pi)) plus the correction
  terms C_0..C_4, fixed combinations of derivatives of
  Psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p).  Each C_k is one polynomial in
  (p - 1/2)^2 (times p - 1/2 for odd k), generated once per process by
  folding the Psi Taylor series about p = 1/2 with the C_k weights at
  high precision; the heavy cancellation in the series division rules out
  float64 generation.
* euler_maclaurin: classical zeta summation with Bernoulli corrections and a
  rigorous tail estimate; serves as the cross-method oracle and the small-t
  route.

The scalar Euler-Maclaurin path accumulates with math.fsum.  Riemann-Siegel
has one implementation, the vectorized one (a scalar t is a 1-element array);
its numpy pairwise reduction rounds at ~1e-13 at our sum lengths, far below
the reported error bounds, which are dominated by phase rounding at large t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, PreconditionError
from .theta_gram import T_MIN, _theta_raw, theta_many

TWO_PI = 2.0 * math.pi

RS_MIN_T = 10.0
RS_SWITCH_T = 30.0  # euler_maclaurin below, riemann_siegel above
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


@lru_cache(maxsize=1)
def _rs_polys() -> tuple[np.ndarray, ...]:
    """Highest-first polyval arrays in v = u^2 for C_0..C_4 at p = 1/2 + u.

    Psi(1/2+u) = [sin(pi/8) cos(2pi u^2) - cos(pi/8) sin(2pi u^2)] / cos(2pi u)
    is entire and even in u; its first _PSI_TERMS Taylor coefficients are
    obtained by series division and folded with _RS_WEIGHTS into the Taylor
    coefficients of each C_k, all at 120 significant digits, before any
    rounding to float.  C_k has the parity of k, so its other coefficients
    are exact zeros: even k gives a polynomial in v, odd k one times u.
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
            polys.append(np.asarray([float(x) for x in c[k % 2 :: 2]][::-1]))
    return tuple(polys)


def _rs_corrections(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Correction factors C0..C4 at fractional parts p (array in [0,1))."""
    u = np.asarray(p, dtype=float) - 0.5
    v = u * u
    c0, c1, c2, c3, c4 = (np.polyval(c, v) for c in _rs_polys())
    return c0, u * c1, c2, u * c3, c4


def rs_err_bound(t) -> np.ndarray:
    """Reported Riemann-Siegel error bound: truncation plus rounding floor."""
    t = np.asarray(t, dtype=float)
    return _RS_TRUNC * t ** -2.75 + _RS_ROUND_FLOOR * np.maximum(1.0, t / EM_MAX_T)


# ---------------------------------------------------------------------------
# Riemann-Siegel evaluation

_THREADS = 1


def set_threads(n: int) -> None:
    """Worker count for range evaluation; results are identical at any n."""
    global _THREADS
    _THREADS = max(1, int(n))


def _hardy_z_chunk(seg: np.ndarray) -> np.ndarray:
    a = np.sqrt(seg / TWO_PI)
    N = a.astype(np.int64)
    p = a - N
    th = theta_many(seg)
    n_max = int(N.max())
    n = np.arange(1, n_max + 1, dtype=float)
    logn = np.log(n)
    rsqrt = 1.0 / np.sqrt(n)
    # one len(seg) x n_max buffer: phases, then cosines, then terms, in place
    terms = np.multiply.outer(seg, logn)
    np.subtract(th[:, None], terms, out=terms)
    np.cos(terms, out=terms)
    terms *= rsqrt
    # mask out n > N(t) rows before reduction
    z = 2.0 * np.sum(terms, axis=1, where=n <= N[:, None])
    c0, c1, c2, c3, c4 = _rs_corrections(p)
    q = np.sqrt(TWO_PI / seg)
    rem = np.where(N % 2 == 1, 1.0, -1.0) * (TWO_PI / seg) ** 0.25 \
        * (c0 + q * (c1 + q * (c2 + q * (c3 + q * c4))))
    return z + rem


def hardy_z_many(ts: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Vectorized Riemann-Siegel Z over an array with all t >= RS_MIN_T.

    Chunk boundaries are fixed by `chunk` alone, and each worker writes its
    own output slice, so results are byte-identical at any thread count.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(0)
    if float(ts.min()) < RS_MIN_T:
        raise DomainError("hardy_z_many requires all t >= 10")
    out = np.empty(ts.shape)
    spans = [(i, min(i + chunk, ts.size)) for i in range(0, ts.size, chunk)]
    if _THREADS > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=_THREADS) as pool:
            for (i, j), res in zip(spans, pool.map(
                    lambda ij: _hardy_z_chunk(ts[ij[0] : ij[1]]), spans)):
                out[i:j] = res
    else:
        for i, j in spans:
            out[i:j] = _hardy_z_chunk(ts[i:j])
    return out


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


_EM_N_MAX = 400_000
_EM_K_MAX = 30


def zeta_euler_maclaurin(sigma: float, t: float, target_err: float = 1e-12):
    """zeta(sigma + i t) with a remainder bound below target_err.

    Returns (value, achieved_bound).  The bound combines the rigorous
    Bernoulli-tail estimate |R_K| <= |s+2K+1|/(sigma+2K+1) * |next term|
    with a binary64 phase-rounding floor; PrecisionError if no truncation
    schedule can meet the target.
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
    bof = _bernoulli_over_fact()
    N = max(24, int(0.75 * abs(s)) + 1)
    while N <= _EM_N_MAX:
        n = np.arange(1, N, dtype=float)
        amp = n ** -sigma
        phase = t * np.log(n)
        head = complex(math.fsum((amp * np.cos(phase)).tolist()),
                       -math.fsum((amp * np.sin(phase)).tolist()))
        lnN = math.log(N)
        Npow = math.exp(-sigma * lnN) * complex(math.cos(t * lnN), -math.sin(t * lnN))
        value = head + Npow * N / (s - 1) + 0.5 * Npow

        # phase-rounding floor: RMS of per-term amplitude * t ln n errors,
        # plus the boundary terms' contribution
        wsum = float(np.sum((amp * np.log(n)) ** 2))
        tail_amp = abs(Npow) * lnN * (N / abs(s - 1) + 1.0)
        rounding = 8.0 * 2.22e-16 * (1.0 + t * (math.sqrt(wsum) + tail_amp))
        rising = s           # (s)(s+1)...(s+2k-2) for the current k
        Nfac = Npow / N      # N^(-s-2k+1) for the current k
        corr = 0.0j
        best = None
        prev_mag = math.inf
        for k in range(1, _EM_K_MAX):
            term = bof[k - 1] * rising * Nfac
            mag = abs(term)
            if mag >= prev_mag:
                break  # asymptotic tail started growing; N too small for more
            corr += term
            prev_mag = mag
            rising_next = rising * (s + 2 * k - 1) * (s + 2 * k)
            nfac_next = Nfac / (N * N)
            # rigorous bound on the rest via the first omitted term
            nxt = abs(bof[k]) * abs(rising_next) * abs(nfac_next)
            bound = abs(s + 2 * k + 1) / (sigma + 2 * k + 1) * nxt
            if bound + rounding <= target_err:
                best = (value + corr, bound + rounding)
                break
            rising, Nfac = rising_next, nfac_next
        if best is not None:
            return best
        N *= 2
    raise PrecisionError(
        f"euler_maclaurin cannot reach target_err={target_err:g} at s={s} in binary64")


def _theta_exact(t: float) -> float:
    """Phase of pi^(-s/2) Gamma(s/2) at s = 1/2 + i t, any t > 0.

    Cold path for t below the asymptotic-series floor; one mpmath call.
    """
    import mpmath

    with mpmath.workdps(30):
        val = mpmath.im(mpmath.loggamma(mpmath.mpf(1) / 4 + 0.5j * mpmath.mpf(t))) \
            - mpmath.mpf(t) / 2 * mpmath.log(mpmath.pi)
        return float(val)


def _theta_value(t: float) -> float:
    return float(_theta_raw(t)) if t >= T_MIN else _theta_exact(t)


def _hardy_z_em_scalar(t: float):
    # keep the target above the phase-rounding floor at this height
    ln_n = math.log(max(0.75 * t, 24.0))
    floor = 8.0 * 2.22e-16 * (1.0 + t * math.sqrt(ln_n ** 3 / 3.0))
    zeta_val, bound = zeta_euler_maclaurin(0.5, t, max(1e-11, 4.0 * floor))
    th = _theta_value(t)
    z = (complex(math.cos(th), math.sin(th)) * zeta_val).real
    return z, bound


# ---------------------------------------------------------------------------
# Public operations

def hardy_z(t: float, method: str = "auto") -> ZEval:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + i t), real for real t."""
    if not t > 0:
        raise DomainError(f"hardy_z requires t > 0, got {t}")
    if method == "auto":
        method = "riemann_siegel" if t >= RS_SWITCH_T else "euler_maclaurin"
    if method == "riemann_siegel":
        if t < RS_MIN_T:
            raise DomainError("riemann_siegel route requires t >= 10")
        z = float(_hardy_z_chunk(np.array([float(t)]))[0])
        return ZEval(t=float(t), z=z, err_bound=float(rs_err_bound(t)), method=method)
    if method == "euler_maclaurin":
        z, bound = _hardy_z_em_scalar(t)
        return ZEval(t=float(t), z=z, err_bound=bound + 1e-12, method=method)
    raise DomainError(f"unknown method {method!r}")


def zeta_half_line(t: float) -> ZetaHalfLine:
    """A(t) = Re zeta(1/2+it) and B(t) = Im zeta(1/2+it) via Z and theta."""
    if not t > 0:
        raise DomainError(f"zeta_half_line requires t > 0, got {t}")
    ze = hardy_z(t)
    th = _theta_value(t)
    return ZetaHalfLine(t=float(t), a=ze.z * math.cos(th), b=-ze.z * math.sin(th))
