"""Moment sums of S at Gram points over short ranges (N, N+M].

All S-valued sums are exact integer arithmetic (S at Gram points is an
integer); floating point enters only through Z products and the main-term /
bound comparisons.  The admissible parameter regimes of the underlying
asymptotics involve constants like A = e^21 eps^-1.5 that are astronomically
large at desk scale, so bounds are evaluated in log10 space, every report
carries the constants it used, and hard assertions are confined to exact
identities and those (very loose) bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accum import csum
from .errors import PreconditionError
from .gram_law import delta_array, interval_counts
from .theta_gram import gram_points
from .zeros import ZeroTable

EULER_GAMMA = 0.5772156649015329
EPSILON_DEFAULT = 9e-4


@dataclass(frozen=True)
class MomentConfig:
    N: int
    M: int
    m: int = 0
    k: int = 1
    epsilon: float = EPSILON_DEFAULT
    # derived constants, filled in __post_init__
    L: float = field(init=False, default=0.0)
    x: float = field(init=False, default=0.0)
    y: float = field(init=False, default=0.0)
    A: float = field(init=False, default=0.0)
    B: float = field(init=False, default=0.0)
    lam: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1e-3):
            raise PreconditionError("epsilon must lie in the open interval (0, 1e-3)")
        if self.N < 3 or self.M < 1 or self.m < 0 or self.k < 0:
            raise PreconditionError("require N >= 3, M >= 1, m >= 0, k >= 0")
        t_n = float(gram_points(self.N, self.N)[0])
        object.__setattr__(self, "L", math.log(math.log(self.N)))
        x = t_n ** (0.1 * self.epsilon)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", x ** (1.0 / (4.0 * self.k)) if self.k >= 1 else math.nan)
        a_const = math.exp(21.0) * self.epsilon ** -1.5
        object.__setattr__(self, "A", a_const)
        object.__setattr__(self, "B", a_const * a_const * math.exp(-8.0))
        object.__setattr__(self, "lam", (2.0 * self.B * math.e * math.pi ** 2) ** 2)


@dataclass(frozen=True)
class MomentReport:
    config: MomentConfig
    sum: float
    main_term: float | None = None
    ratio: float | None = None
    bound: float | None = None
    log10_bound: float | None = None
    bound_satisfied: bool | None = None
    notes: tuple[str, ...] = ()

    @classmethod
    def bounded(cls, cfg: MomentConfig, total: int | float, log10_bound: float,
                notes: tuple[str, ...] = ()) -> "MomentReport":
        """A report of `total` against the bound 10^log10_bound (inf past float range)."""
        return cls(config=cfg, sum=total,
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


def block_difference_moment(table: ZeroTable, cfg: MomentConfig) -> MomentReport:
    """Sum of (S(t_{n+m}+0) - S(t_n+0))^(2k) over N < n <= N+M."""
    if cfg.k < 1:
        raise PreconditionError("block_difference_moment requires k >= 1")
    table.require_gram_index(cfg.N + cfg.M + cfg.m)
    if cfg.m == 0:
        return MomentReport(config=cfg, sum=0, notes=("m = 0: identical endpoints",))
    s = table.s_gram
    diffs = s[cfg.N + cfg.m + 1 : cfg.N + cfg.M + cfg.m + 1] - s[cfg.N + 1 : cfg.N + cfg.M + 1]
    total = _int_power_sum(diffs, 2 * cfg.k)
    arg = math.log(cfg.m * cfg.epsilon / cfg.k) if cfg.m * cfg.epsilon > cfg.k else None
    notes = []
    m_floor = cfg.k / cfg.epsilon * math.exp(min(cfg.lam * cfg.k ** 2, 700.0))
    if cfg.m < m_floor:
        notes.append("m below the admissible floor k/eps * exp(lam k^2); trend reporting only")
    main = ratio = None
    if arg is not None and arg > 0:
        main = math.factorial(2 * cfg.k) / math.factorial(cfg.k) * cfg.M \
            * (arg / (2.0 * math.pi ** 2)) ** cfg.k
        ratio = total / main if main else None
    else:
        notes.append("main term undefined: ln(m eps / k) <= 0 at this scale")
    return MomentReport(config=cfg, sum=total, main_term=main, ratio=ratio,
                        notes=tuple(notes))


def adjacent_difference_moment(table: ZeroTable, cfg: MomentConfig) -> MomentReport:
    """Sum of r(n)^(2k) with r(n) = S(t_n+0) - S(t_{n-1}+0); bound must hold."""
    if cfg.k < 1:
        raise PreconditionError("adjacent_difference_moment requires k >= 1")
    table.require_gram_index(cfg.N + cfg.M)
    s = table.s_gram
    r = s[cfg.N + 1 : cfg.N + cfg.M + 1] - s[cfg.N : cfg.N + cfg.M]
    total = _int_power_sum(r, 2 * cfg.k)
    k = cfg.k
    log10_bound = (math.log10(2.0 * cfg.M * k)
                   + 2 * k * math.log10(4.0 * k * math.sqrt(cfg.B)))
    return MomentReport.bounded(cfg, total, log10_bound)


def first_moment(table: ZeroTable, N: int, M: int,
                 epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """Sum of |r(n)| over N < n <= N+M; the ratio to M is the quantity of interest."""
    if N < 0:
        raise PreconditionError("first_moment requires N >= 0")
    cfg = MomentConfig(N=max(N, 3), M=M, m=1, k=1, epsilon=epsilon)
    table.require_gram_index(N + M)
    s = table.s_gram
    r = s[N + 1 : N + M + 1] - s[N : N + M]
    total = int(np.abs(r).sum())
    return MomentReport(config=cfg, sum=total, ratio=total / M,
                        notes=("positive constant c1(eps) exists; empirical ratio reported",))


def empty_and_crowded_counts(table: ZeroTable, N: int, M: int) -> tuple[int, int]:
    """(M1, M2): counts of empty intervals and of intervals with >= 2 ordinates."""
    counts = interval_counts(table, N + 1, N + M)
    r = counts - 1
    m1 = int(np.sum(r == -1))
    m2 = int(np.sum(r >= 1))
    return m1, m2


def alternating_sum(table: ZeroTable, cfg: MomentConfig) -> MomentReport:
    """T_k = sum S^k(t_n+0) (S(t_n+0) - S(t_{n-1}+0)) with k = cfg.k >= 0."""
    table.require_gram_index(cfg.N + cfg.M)
    s = table.s_gram
    sn = s[cfg.N + 1 : cfg.N + cfg.M + 1]
    r = sn - s[cfg.N : cfg.N + cfg.M]
    j = cfg.k
    if j == 0:
        total = int(r.sum())
        return MomentReport(config=cfg, sum=total,
                            notes=("T_0 telescopes to S(t_{N+M}+0) - S(t_N+0)",))
    total = _int_power_sum(sn, j, r)
    L = cfg.L
    if j % 2 == 1:
        k = (j + 1) // 2
        log10_bound = (math.log10(0.02) + (k + 1) * math.log10(cfg.A * k)
                       + math.log10(cfg.M) + (k - 1) * math.log10(L))
    else:
        k = j // 2
        log10_bound = (math.log10(0.02) + (k + 1) * math.log10(10.0 * cfg.A)
                       + math.log10(math.factorial(2 * k) / math.factorial(k))
                       + math.log10(cfg.M) + (k - 0.5) * math.log10(L)
                       - 2 * k * math.log10(2.0 * math.pi))
    return MomentReport.bounded(cfg, total, log10_bound)


def selberg_delta_moment(table: ZeroTable, N: int, M: int, k: int, parity: str,
                         epsilon: float = EPSILON_DEFAULT) -> MomentReport:
    """Moments of the zero offsets Delta_n over zero indices N < n <= N+M."""
    if k < 1:
        raise PreconditionError("selberg_delta_moment requires k >= 1")
    if parity not in ("even", "odd"):
        raise PreconditionError("parity must be 'even' or 'odd'")
    cfg = MomentConfig(N=N, M=M, m=0, k=k, epsilon=epsilon)
    deltas = delta_array(table, N + 1, N + M)
    L = cfg.L
    if parity == "even":
        total = _int_power_sum(deltas, 2 * k)
        main = math.factorial(2 * k) / math.factorial(k) * M * L ** k \
            / (2.0 * math.pi) ** (2 * k)
        return MomentReport(config=cfg, sum=total, main_term=main,
                            ratio=total / main if main else None)
    total = _int_power_sum(deltas, 2 * k - 1)
    log10_bound = (9.0 * math.log10(math.e) + k * math.log10(cfg.B * k)
                   + math.log10(M) + (k - 1) * math.log10(L))
    return MomentReport.bounded(cfg, total, log10_bound)


def titchmarsh_correlation(table: ZeroTable, N: int) -> MomentReport:
    """Sum of Z(t_{n-1}) Z(t_n) for n <= N against the -2(gamma+1)N asymptotic."""
    table.require_gram_index(N)
    cfg = MomentConfig(N=max(N, 3), M=N, m=1, k=1)
    z = table.z_values()
    total = csum(z[0:N] * z[1 : N + 1])
    main = -2.0 * (EULER_GAMMA + 1.0) * N
    return MomentReport(config=cfg, sum=total, main_term=main, ratio=total / main)
