"""Riemann-Siegel theta function, its derivatives, and Gram points.

theta(t) is the phase of pi^(-s/2) * Gamma(s/2) along the critical line,
evaluated through the extended Stirling series

    theta(t) = t/2 ln(t/2pi) - t/2 - pi/8
               + 1/(48 t) + 7/(5760 t^3) + 31/(80640 t^5)

with twice the first omitted term 127/(430080 t^7) reported as the truncation
bound.  Three correction terms are needed to hold 1e-10 absolute accuracy
from t = 20 up (two terms leave 1.2e-10 there).  Gram point t_n is the unique
solution of theta(t) = (n-1) pi with t > 7.

Gram points are solved by Newton's method in blocks of GRAM_BLOCK indices,
each point by the same rule, so its bits depend on n alone: a window of
indices is bit for bit the matching slice of the solve from n = 0.  Every
point takes exactly NEWTON_STEPS = 3 steps from its asymptotic seed; only a
point still outside `residual_tolerance` after them steps again, masked.
Three is what n = 0 needs (142 points n <= 2e6 need 2, all others 1).  The
solve this replaced stepped every point of a call until all were within
tolerance, which took exactly 3 steps for any call that included n = 0, so
gram_points(N) from 0 keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

TWO_PI = 2.0 * math.pi
T_MIN = 7.0

# magnitude of the first omitted series term, times a safety factor of 2
# (validated against a high-precision log-Gamma oracle in the test suite)
_TAIL_COEF = 127.0 / 430080.0


@dataclass(frozen=True)
class ThetaEval:
    t: float
    value: float
    err_bound: float


@dataclass(frozen=True)
class GramPoint:
    n: int
    t: float


def _theta_raw(t):
    """Series value for scalar or ndarray t; no domain checks."""
    lg = np.log(t / TWO_PI)
    inv = 1.0 / t
    inv2 = inv * inv
    return (t * 0.5 * lg - t * 0.5 - math.pi / 8.0
            + inv * (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0))))


def _theta_d1_raw(t):
    lg = np.log(t / TWO_PI)
    inv2 = 1.0 / (t * t)
    return 0.5 * lg - inv2 * (1.0 / 48.0 + inv2 * (7.0 / 1920.0 + inv2 * (31.0 / 16128.0)))


def _theta_d2_raw(t):
    inv = 1.0 / t
    inv2 = inv * inv
    return 0.5 * inv + inv * inv2 * (1.0 / 24.0 + inv2 * (7.0 / 480.0 + inv2 * (31.0 / 2688.0)))


def theta(t: float) -> ThetaEval:
    """Evaluate theta with its truncation bound; `theta_derivative` gives
    the derivatives.

    Requires t >= 7; below that the asymptotic series is not trusted and
    the Gram equation loses uniqueness.
    """
    if not T_MIN <= t < math.inf:
        raise DomainError(f"theta requires finite t >= {T_MIN}, got {t}")
    # t**7 is inf past t ~ 1.1e44, which leaves the tail 0; theta itself is
    # inf near the largest float
    with np.errstate(over="ignore"):
        tail = 2.0 * _TAIL_COEF / np.float64(t) ** 7
        value = _theta_raw(t)
    return ThetaEval(t=float(t), value=float(value), err_bound=float(tail))


def _require_heights(ts: np.ndarray, name: str) -> None:
    """DomainError unless every t is finite and >= T_MIN; NaN passes a min() check."""
    if not np.all(np.isfinite(ts) & (ts >= T_MIN)):
        raise DomainError(f"{name} requires all t finite and >= {T_MIN}")


def theta_many(ts: np.ndarray) -> np.ndarray:
    """Vectorized theta values for an array of finite t >= 7."""
    ts = np.asarray(ts, dtype=float)
    _require_heights(ts, "theta_many")
    return _theta_raw(ts)


def theta_derivative(t: float, order: int = 1) -> float:
    """First or second derivative of theta; other orders are unsupported."""
    if not T_MIN <= t < math.inf:
        raise DomainError(f"theta_derivative requires finite t >= {T_MIN}, got {t}")
    if order == 1:
        return float(_theta_d1_raw(t))
    if order == 2:
        return float(_theta_d2_raw(t))
    raise DomainError(f"theta_derivative supports order 1 or 2, got {order}")


def _initial_guess(n) -> np.ndarray:
    """Asymptotic seed for the Gram equation theta(t) = (n-1) pi.

    Fixed-point form of the leading series terms:
        t <- 2 ((n-1) pi + pi/8 + t/2) / ln(t/2pi)
    seeded at max(20, 2 pi n / ln(n+2)); a handful of sweeps lands within
    Newton's basin for every n >= 0.
    """
    n = np.asarray(n, dtype=float)
    target = (n - 1.0) * math.pi + math.pi / 8.0
    t = np.maximum(20.0, TWO_PI * n / np.log(n + 2.0))
    for _ in range(8):
        t = np.maximum(2.0 * (target + 0.5 * t) / np.log(t / TWO_PI), 7.5)
    return t


_RESIDUAL_TOL = 1e-12


def residual_tolerance(target) -> np.ndarray:
    """Solver tolerance in theta: 1e-12, relaxed to 8 ulp once theta grows
    past what binary64 can resolve to 1e-12 (n around 3000)."""
    return np.maximum(_RESIDUAL_TOL, 8.0 * np.spacing(np.abs(target)))


def _newton_step(t: np.ndarray, target: np.ndarray) -> np.ndarray:
    step = (_theta_raw(t) - target) / _theta_d1_raw(t)
    # keep iterates on the t > 7 branch (theta' > 0 there)
    return np.maximum(t - step, T_MIN + 1e-9)


GRAM_BLOCK = 8192   # Gram indices solved at once
NEWTON_STEPS = 3    # steps every Gram point takes; why 3: the module docstring
_MAX_STEPS = 60


def _gram_block(lo: int, hi: int) -> np.ndarray:
    """t_n for n = lo .. hi - 1: NEWTON_STEPS steps for every point, then
    masked steps for the points still outside tolerance."""
    n = np.arange(lo, hi, dtype=np.int64)
    target = (n - 1.0) * math.pi
    t = _initial_guess(n)
    for _ in range(NEWTON_STEPS):
        t = _newton_step(t, target)
    tol = residual_tolerance(target)
    for _ in range(_MAX_STEPS - NEWTON_STEPS):
        late = np.nonzero(~(np.abs(_theta_raw(t) - target) < tol))[0]
        if not late.size:
            return t
        t[late] = _newton_step(t[late], target[late])
    bad = int((np.abs(_theta_raw(t) - target) / tol).argmax())
    raise ConvergenceError(f"gram point Newton stalled near n = {lo + bad}")


def gram_points(n_hi: int, n_lo: int = 0) -> np.ndarray:
    """Heights t_n for n = n_lo .. n_hi inclusive, solved GRAM_BLOCK at a time.

    Each point takes NEWTON_STEPS Newton steps, and more, masked, only while
    outside `residual_tolerance`, so t_n is the same bits in every window
    that holds n.  ConvergenceError, naming the index n of the worst point,
    if a block still has a point outside after 60 steps.
    """
    if n_lo < 0:
        raise DomainError("gram point index must be >= 0")
    if n_hi < n_lo:
        raise DomainError("empty gram index range")
    out = np.empty(n_hi - n_lo + 1)
    for lo in range(n_lo, n_hi + 1, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, n_hi + 1)
        out[lo - n_lo : hi - n_lo] = _gram_block(lo, hi)
    return out


def gram_point(n: int) -> GramPoint:
    """Gram point t_n: theta(t_n) = (n-1) pi, t_n > 7, residual < 1e-12."""
    if n < 0:
        raise DomainError("gram point index must be >= 0")
    return GramPoint(n=n, t=float(gram_points(n, n)[0]))


def gram_spacing_report(N: int, M: int, m: int) -> float:
    """Max deviation |t_{n+m} - t_n - pi m / theta'(t_N)| over N < n <= N+M.

    The mean-value chain bounds it by pi^2 m (M+m) theta''(t_N) / theta'(t_N)^3,
    which `regression` checks; m = 0 returns 0.
    """
    if m == 0:
        return 0.0
    if not (1 <= m <= M):
        raise DomainError("gram_spacing_report requires 1 <= m <= M")
    if N < 100:
        raise DomainError("gram_spacing_report requires N >= 100")
    heights = gram_points(N + M + m, N)
    t_n = heights[1 : M + 1]
    t_nm = heights[1 + m : M + m + 1]
    step = math.pi * m / float(_theta_d1_raw(heights[0]))
    return float(np.abs(t_nm - t_n - step).max())
