"""Moment sums of S at Gram points over short ranges (N, N+M].

All S-valued sums are exact integer arithmetic (S at Gram points is an
integer); floating point enters only through Z products and the main-term /
bound comparisons.  The admissible parameter regimes of the underlying
asymptotics involve constants like A = e^21 eps^-1.5 that are astronomically
large at desk scale, so bounds are evaluated in log10 space, and hard
assertions are confined to exact identities and those (very loose) bounds.
Every sum takes the table, its range and only the parameters it reads; a CLI
report's provenance records N, M, m, k and eps, and A, B and lambda follow
from eps through `moment_constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import csum
from .errors import PreconditionError
from .gram_law import delta_array, interval_counts
from .zeros import ZeroTable

EULER_GAMMA = 0.5772156649015329
EPSILON_DEFAULT = 9e-4


def _power(x: float, y: float) -> float:
    """x ** y, inf past the float range."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def moment_constants(epsilon: float) -> tuple[float, float, float]:
    """(A, B, lambda) = (e^21 eps^-1.5, A^2 e^-8, (2 B e pi^2)^2), for eps in (0, 1e-3);
    a constant past the float range reads inf (lambda below eps ~ 1e-46, all
    three below ~ 1e-205)."""
    if not (0.0 < epsilon < 1e-3):
        raise PreconditionError("epsilon must lie in the open interval (0, 1e-3)")
    a_const = math.exp(21.0) * _power(epsilon, -1.5)
    b_const = a_const * a_const * math.exp(-8.0)
    return a_const, b_const, _power(2.0 * b_const * math.e * math.pi ** 2, 2)


def _main_term(k: int, M: int, x: float, div: float = 1.0) -> float:
    """(2k)!/k! M x^k / div^(2k) for x, div > 0, with (2k)!/k! the exact integer
    perm(2k, k): in floats where every factor and the result hold, else from
    log10, inf past the float range."""
    perm = math.perm(2 * k, k)
    try:
        main = float(perm) * M * x ** k / div ** (2 * k)
    except OverflowError:
        main = math.inf
    if math.isfinite(main):
        return main
    log10 = math.log10(perm * M) + k * math.log10(x) - 2 * k * math.log10(div)
    return 10.0 ** log10 if log10 < 308 else math.inf


def _require_range(N: int, M: int, m: int = 0, k: int = 0) -> None:
    if N < 3 or M < 1 or m < 0 or k < 0:
        raise PreconditionError("require N >= 3, M >= 1, m >= 0, k >= 0")


@dataclass(frozen=True)
class MomentReport:
    sum: float
    main_term: float | None = None
    ratio: float | None = None
    bound: float | None = None
    log10_bound: float | None = None
    bound_satisfied: bool | None = None
    notes: tuple[str, ...] = ()

    @classmethod
    def bounded(cls, total: int | float, log10_bound: float,
                notes: tuple[str, ...] = ()) -> "MomentReport":
        """A report of `total` against the bound 10^log10_bound (inf past float range)."""
        return cls(sum=total,
                   bound=10.0 ** log10_bound if log10_bound < 308 else math.inf,
                   log10_bound=log10_bound,
                   bound_satisfied=(True if total == 0
                                    else math.log10(abs(total)) <= log10_bound),
                   notes=notes)


def _int_power_sum(values: np.ndarray, power: int, weights: np.ndarray | None = None) -> int:
    """Exact sum of values**power (times weights) over integer arrays.

    int64 is used only when size * vmax**power * max|weight| < 2**63, so that
    no partial sum can wrap; otherwise the sum is taken in Python integers.
    """
    if weights is None:
        weights = np.ones_like(values)
    vmax = int(np.abs(values).max()) if values.size else 0
    wmax = int(np.abs(weights).max()) if weights.size else 0
    if values.size * vmax ** power * wmax < 2 ** 63:
        return int(np.sum(np.asarray(values, dtype=np.int64) ** power * weights))
    return sum(int(v) ** power * int(w) for v, w in zip(values.tolist(), weights.tolist()))


def _r(table: ZeroTable, N: int, M: int) -> np.ndarray:
    """r(n) = S(t_n+0) - S(t_{n-1}+0) for N < n <= N+M."""
    table.require_gram_index(N + M)
    s = table.s_gram
    return s[N + 1 : N + M + 1] - s[N : N + M]


def block_difference_moment(table: ZeroTable, N: int, M: int, m: int, k: int,
                            epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """Sum of (S(t_{n+m}+0) - S(t_n+0))^(2k) over N < n <= N+M."""
    _, _, lam = moment_constants(epsilon)
    _require_range(N, M, m, k)
    if k < 1:
        raise PreconditionError("block_difference_moment requires k >= 1")
    table.require_gram_index(N + M + m)
    if m == 0:
        return MomentReport(sum=0, notes=("m = 0: identical endpoints",))
    s = table.s_gram
    total = _int_power_sum(s[N + m + 1 : N + M + m + 1] - s[N + 1 : N + M + 1], 2 * k)
    arg = math.log(m * epsilon / k) if m * epsilon > k else None
    notes = []
    if m < k / epsilon * math.exp(min(lam * k ** 2, 700.0)):
        notes.append("m below the admissible floor k/eps * exp(lam k^2); trend reporting only")
    main = ratio = None
    if arg is not None and arg > 0:
        main = _main_term(k, M, arg / (2.0 * math.pi ** 2))
        ratio = total / main if main else None
    else:
        notes.append("main term undefined: ln(m eps / k) <= 0 at this scale")
    return MomentReport(sum=total, main_term=main, ratio=ratio, notes=tuple(notes))


def adjacent_difference_moment(table: ZeroTable, N: int, M: int, k: int,
                               epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """Sum of r(n)^(2k) with r(n) = S(t_n+0) - S(t_{n-1}+0); bound must hold."""
    _, b_const, _ = moment_constants(epsilon)
    _require_range(N, M, k=k)
    if k < 1:
        raise PreconditionError("adjacent_difference_moment requires k >= 1")
    total = _int_power_sum(_r(table, N, M), 2 * k)
    log10_bound = (math.log10(2.0 * M * k)
                   + 2 * k * math.log10(4.0 * k * math.sqrt(b_const)))
    return MomentReport.bounded(total, log10_bound)


def first_moment(table: ZeroTable, N: int, M: int) -> MomentReport:
    """Sum of |r(n)| over N < n <= N+M; the ratio to M is the quantity of interest."""
    if N < 0:
        raise PreconditionError("first_moment requires N >= 0")
    _require_range(max(N, 3), M)
    total = int(np.abs(_r(table, N, M)).sum())
    return MomentReport(sum=total, ratio=total / M,
                        notes=("positive constant c1(eps) exists; empirical ratio reported",))


def empty_and_crowded_counts(table: ZeroTable, N: int, M: int) -> tuple[int, int]:
    """(M1, M2): counts of empty intervals and of intervals with >= 2 ordinates."""
    counts = interval_counts(table, N + 1, N + M)
    r = counts - 1
    m1 = int(np.sum(r == -1))
    m2 = int(np.sum(r >= 1))
    return m1, m2


def alternating_sum(table: ZeroTable, N: int, M: int, k: int,
                    epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """T_k = sum S^k(t_n+0) (S(t_n+0) - S(t_{n-1}+0)) with k >= 0."""
    a_const, _, _ = moment_constants(epsilon)
    _require_range(N, M, k=k)
    r = _r(table, N, M)
    if k == 0:
        return MomentReport(sum=int(r.sum()),
                            notes=("T_0 telescopes to S(t_{N+M}+0) - S(t_N+0)",))
    total = _int_power_sum(table.s_gram[N + 1 : N + M + 1], k, r)
    L = math.log(math.log(N))
    if k % 2 == 1:
        h = (k + 1) // 2
        log10_bound = (math.log10(0.02) + (h + 1) * math.log10(a_const * h)
                       + math.log10(M) + (h - 1) * math.log10(L))
    else:
        h = k // 2
        log10_bound = (math.log10(0.02) + (h + 1) * math.log10(10.0 * a_const)
                       + math.log10(math.perm(2 * h, h))
                       + math.log10(M) + (h - 0.5) * math.log10(L)
                       - 2 * h * math.log10(2.0 * math.pi))
    return MomentReport.bounded(total, log10_bound)


def selberg_delta_moment(table: ZeroTable, N: int, M: int, k: int, parity: str,
                         epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """Moments of the zero offsets Delta_n over zero indices N < n <= N+M."""
    if k < 1:
        raise PreconditionError("selberg_delta_moment requires k >= 1")
    if parity not in ("even", "odd"):
        raise PreconditionError("parity must be 'even' or 'odd'")
    _, b_const, _ = moment_constants(epsilon)
    _require_range(N, M, k=k)
    deltas = delta_array(table, N + 1, N + M)
    L = math.log(math.log(N))
    if parity == "even":
        total = _int_power_sum(deltas, 2 * k)
        main = _main_term(k, M, L, 2.0 * math.pi)
        return MomentReport(sum=total, main_term=main, ratio=total / main if main else None)
    total = _int_power_sum(deltas, 2 * k - 1)
    log10_bound = (9.0 * math.log10(math.e) + k * math.log10(b_const * k)
                   + math.log10(M) + (k - 1) * math.log10(L))
    return MomentReport.bounded(total, log10_bound)


def titchmarsh_correlation(table: ZeroTable, N: int) -> MomentReport:
    """Sum of Z(t_{n-1}) Z(t_n) for n <= N against the -2(gamma+1)N asymptotic."""
    table.require_gram_index(N)
    _require_range(3, N)        # the range (0, N]: only its length is checked
    z = table.z_values()
    total = csum(z[0:N] * z[1 : N + 1])
    main = -2.0 * (EULER_GAMMA + 1.0) * N
    return MomentReport(sum=total, main_term=main, ratio=total / main)
