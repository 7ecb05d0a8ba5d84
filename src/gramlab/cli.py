"""Command-line front end.

Exit codes: 0 success, 1 assertion failure, 2 precondition or parse error,
3 uncertified-range error.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from . import gram_law, ingest, moments, primes, regression, store
from .errors import (DomainError, GramLabError, ParseError, PreconditionError,
                     ResourceError, UncertifiedRange)
from .reports import Report, render
from .theta_gram import gram_points
from .zeros import GRAM_CEILING, ZeroTable, gram_index_for_height

RANGE_SUBDIR = "zrange"

_PRECOND = (PreconditionError, ParseError, DomainError, ResourceError, ValueError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _obtain_table(ctx_obj, n_needed: int) -> ZeroTable:
    cache_dir = ctx_obj.get("cache_dir")
    path = Path(cache_dir) / RANGE_SUBDIR if cache_dir else None
    return store.cached_table(n_needed, path, epsilon=ctx_obj["epsilon"])


def _emit(ctx_obj, report: Report) -> None:
    click.echo(render(report, ctx_obj["format"]), nl=False)


@click.group()
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
              help="directory for persisted ranges and sieve caches")
@click.option("--threads", type=click.IntRange(1, 1), default=1, show_default=True,
              expose_value=False, help="Z is evaluated on one thread; only 1 is accepted")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--epsilon", type=float, default=moments.EPSILON_DEFAULT,
              show_default=True, help="epsilon parameter in (0, 1e-3)")
@click.pass_context
def main(ctx, cache_dir, fmt, epsilon):
    """Numerical laboratory for Gram points, Hardy Z zeros, and Gram's law."""
    ctx.obj = {"cache_dir": cache_dir, "format": fmt, "epsilon": epsilon}


@main.command()
@click.option("--n-lo", type=int, default=0, show_default=True)
@click.option("--n-hi", type=int, required=True)
@click.pass_obj
def gram(obj, n_lo, n_hi):
    """Gram point heights t_n for n in [n-lo, n-hi]."""
    if n_hi - n_lo >= GRAM_CEILING:
        raise ResourceError(f"window of {n_hi - n_lo + 1} gram points exceeds ceiling "
                            f"{GRAM_CEILING}")
    heights = gram_points(n_hi, n_lo)
    rep = Report(kind="classification")
    for n, t in zip(range(n_lo, n_hi + 1), heights):
        rep.add("gram_point", {"n": n}, index=n, t=float(t))
    _emit(obj, rep)


@main.command()
@click.option("--t-lo", type=float, required=True)
@click.option("--t-hi", type=float, required=True)
@click.pass_obj
def zeros(obj, t_lo, t_hi):
    """Certified zeros of Z in (t-lo, t-hi]."""
    table = _obtain_table(obj, gram_index_for_height(t_hi))
    rep = Report(kind="classification")
    for z in table.find_zeros(t_lo, t_hi):
        rep.add("find_zeros", {"t_lo": t_lo, "t_hi": t_hi}, index=z.index,
                t=z.t, bracket_width=z.bracket_width, certified=z.certified,
                ambiguous=z.ambiguous)
    _emit(obj, rep)


@main.command()
@click.option("--n-lo", type=int, required=True)
@click.option("--n-hi", type=int, required=True)
@click.pass_obj
def classify(obj, n_lo, n_hi):
    """Gram's-law flags for intervals G_n, n in [n-lo, n-hi]."""
    table = _obtain_table(obj, n_hi)
    rep = Report(kind="classification")
    for r in gram_law.classify_intervals(table, n_lo, n_hi):
        rep.add("classify_intervals", {"n_lo": n_lo, "n_hi": n_hi},
                n=r.n, zero_count=r.zero_count, r=r.r, sgl=r.sgl, gl=r.gl,
                wgl=r.wgl, ambiguous=r.ambiguous)
    _emit(obj, rep)


@main.command()
@click.option("--n-lo", type=int, required=True, help="first zero index")
@click.option("--n-hi", type=int, required=True, help="last zero index")
@click.pass_obj
def delta(obj, n_lo, n_hi):
    """Zero-to-Gram offsets Delta_n for zero indices in [n-lo, n-hi]."""
    table = _obtain_table(obj, n_hi)    # holds certified_n >= n_hi zeros
    rep = Report(kind="classification")
    deltas = gram_law.delta_array(table, n_lo, n_hi).tolist()
    for idx, d in zip(range(n_lo, n_hi + 1), deltas):
        rep.add("delta_n", {"zero_index": idx}, zero_index=idx,
                gram_index=idx + d, delta=d, on_line=True)
    _emit(obj, rep)


@main.command()
@click.option("--upper-n", type=int, required=True)
@click.pass_obj
def nu(obj, upper_n):
    """Occupancy histogram nu_k over G_1..G_N."""
    table = _obtain_table(obj, upper_n)
    h = gram_law.nu_histogram(table, upper_n)
    rep = Report(kind="histogram")
    for k in sorted(h.counts):
        rep.add("nu_histogram", {"upper_index": h.upper_index,
                                 "s_at_end": h.s_at_end}, k=k, count=h.counts[k])
    _emit(obj, rep)


_MOMENT_KINDS = ("block", "adjacent", "first", "counts", "alternating",
                 "selberg-even", "selberg-odd", "residual")


@main.command("moments")
@click.option("--kind", type=click.Choice(_MOMENT_KINDS), required=True)
@click.option("--start-n", "n_start", type=int, required=True, help="range start N")
@click.option("--length-m", "m_len", type=int, required=True, help="range length M")
@click.option("--shift-m", "m_shift", type=int, default=1, show_default=True)
@click.option("--order-k", "k_ord", type=int, default=1, show_default=True)
@click.pass_obj
def moments_cmd(obj, kind, n_start, m_len, m_shift, k_ord):
    """Moment sums of S at Gram points over (N, N+M]."""
    eps = obj["epsilon"]
    table = _obtain_table(obj, n_start + m_len + m_shift)
    if kind == "counts":
        m1, m2 = moments.empty_and_crowded_counts(table, n_start, m_len)
        rep = Report(kind="moment")
        rep.add("empty_and_crowded_counts", {"N": n_start, "M": m_len},
                m1=m1, m2=m2, m1_fraction=m1 / m_len, m2_fraction=m2 / m_len)
        _emit(obj, rep)
        return
    if kind == "first":
        r = moments.first_moment(table, n_start, m_len, epsilon=eps)
    elif kind == "block":
        cfg = moments.MomentConfig(N=n_start, M=m_len, m=m_shift, k=k_ord, epsilon=eps)
        r = moments.block_difference_moment(table, cfg)
    elif kind == "adjacent":
        cfg = moments.MomentConfig(N=n_start, M=m_len, m=1, k=k_ord, epsilon=eps)
        r = moments.adjacent_difference_moment(table, cfg)
    elif kind == "alternating":
        cfg = moments.MomentConfig(N=n_start, M=m_len, m=1, k=k_ord, epsilon=eps)
        r = moments.alternating_sum(table, cfg)
    elif kind == "selberg-even":
        r = moments.selberg_delta_moment(table, n_start, m_len, k_ord, "even", epsilon=eps)
    elif kind == "selberg-odd":
        r = moments.selberg_delta_moment(table, n_start, m_len, k_ord, "odd", epsilon=eps)
    else:
        r = primes.residual_moments(table, n_start, m_len, k_ord, epsilon=eps)
    rep = Report(kind="moment")
    rep.add(kind, {"N": n_start, "M": m_len, "m": m_shift, "k": k_ord,
                   "epsilon": eps},
            sum=r.sum, main_term=r.main_term, ratio=r.ratio, bound=r.bound,
            log10_bound=r.log10_bound, bound_satisfied=r.bound_satisfied,
            notes="; ".join(r.notes))
    _emit(obj, rep)


@main.command()
@click.option("--upper-n", type=int, required=True)
@click.pass_obj
def titchmarsh(obj, upper_n):
    """Correlation sum of Z at adjacent Gram points against -2(gamma+1)N."""
    table = _obtain_table(obj, upper_n)
    r = moments.titchmarsh_correlation(table, upper_n)
    rep = Report(kind="moment")
    rep.add("titchmarsh_correlation", {"N": upper_n}, sum=r.sum,
            main_term=r.main_term, ratio=r.ratio)
    _emit(obj, rep)


@main.command("primes")
@click.option("--kind", type=click.Choice(["mertens", "vxh", "vy", "diagonal"]),
              required=True)
@click.option("--x", type=float, default=None)
@click.option("--h", type=float, default=None)
@click.option("--t", type=float, default=None)
@click.option("--y", type=float, default=None)
@click.option("--order-k", "k_ord", type=int, default=1, show_default=True)
@click.pass_obj
def primes_cmd(obj, kind, x, h, t, y, k_ord):
    """Prime sieve sums: Mertens, V(x;h), V_y(t), diagonal identity."""
    cache = obj["cache_dir"]
    rep = Report(kind="moment")
    if kind == "mertens":
        if x is None:
            _fail(2, "mertens requires --x")
        lp, rp = primes.mertens_sums(int(x), cache_dir=cache)
        rep.add("mertens_sums", {"x": int(x)}, sum_logp_over_p=lp,
                sum_recip_p=rp, ln_x=math.log(x))
    elif kind == "vxh":
        if x is None or h is None:
            _fail(2, "vxh requires --x and --h")
        r = primes.v_xh(x, h, cache_dir=cache)
        rep.add("v_xh", {"x": x, "h": h}, value=r.value, main=r.main,
                deviation=r.deviation)
    elif kind == "vy":
        if t is None or y is None:
            _fail(2, "vy requires --t and --y")
        rep.add("v_y", {"t": t, "y": y}, value=primes.v_y(t, y))
    else:
        if y is None:
            _fail(2, "diagonal requires --y")
        d = primes.diagonal_identity_check(k_ord, y)
        rep.add("diagonal_identity_check", {"k": k_ord, "y": y}, lhs=d.lhs,
                sigma1=d.sigma1, sigma2=d.sigma2, theta=d.theta, ok=d.ok)
    _emit(obj, rep)


@main.command("ingest")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--match-tol", type=float, default=ingest.DEFAULT_MATCH_TOL,
              show_default=True)
@click.pass_obj
def ingest_cmd(obj, path, match_tol):
    """Match an external ordinate table against computed zeros."""
    ext = ingest.parse_ordinate_file(path)
    t_hi = float(ext[-1]) + 5.0 if ext.size else 30.0
    table = _obtain_table(obj, gram_index_for_height(t_hi))
    r = ingest.ingest_external_table(path, table, match_tol=match_tol)
    rep = Report(kind="match")
    rep.add("ingest_external_table", {"path": str(path), "match_tol": match_tol},
            matched=r.matched, unmatched_external=r.unmatched_external,
            unmatched_computed=r.unmatched_computed, max_abs_diff=r.max_abs_diff,
            external_count=r.external_count, computed_count=r.computed_count)
    _emit(obj, rep)


@main.command("verify-paper")
@click.option("--n-limit", type=click.IntRange(min=1), default=100000,
              show_default=True, help="largest Gram index any assertion reads")
@click.pass_obj
def verify_paper(obj, n_limit):
    """Run every published-value regression; exit 1 on any failure."""
    table = _obtain_table(obj, n_limit)
    ctx = regression.RegressionContext(
        table=table, n_limit=n_limit, epsilon=obj["epsilon"],
        cache_dir=obj["cache_dir"])
    rep = regression.run_paper_regression(ctx)
    _emit(obj, rep)
    sys.exit(regression.exit_code(rep))


def entry() -> None:
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:  # pragma: no cover - click plumbing
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        _fail(2, exc.format_message())
    except UncertifiedRange as exc:
        _fail(3, str(exc))
    except _PRECOND as exc:
        _fail(2, str(exc))
    except GramLabError as exc:
        _fail(1, str(exc))


if __name__ == "__main__":
    entry()
