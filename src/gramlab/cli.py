"""Command-line front end.

Exit codes: 0 success, 1 assertion failure, 2 precondition or parse error,
3 uncertified-range error.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import click

from . import gram_law, ingest, moments, primes, regression, store
from .errors import (DomainError, GramLabError, ParseError, PreconditionError,
                     ResourceError, UncertifiedRange)
from .reports import Report, render
from .theta_gram import gram_points
from .zeros import (GRAM_CEILING, gram_index_for_height, require_heights,
                    require_under_ceiling)

RANGE_SUBDIR = "zrange"

_PRECOND = (PreconditionError, ParseError, DomainError, ResourceError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _TableOnUse:
    """The table through Gram index n_needed, from the range under the cache
    directory, obtained when a command first reads it: every command checks
    its arguments first, so a rejected call builds and reads nothing."""

    def __init__(self, ctx_obj, n_needed: int):
        cache_dir = ctx_obj.get("cache_dir")
        path = Path(cache_dir) / RANGE_SUBDIR if cache_dir else None
        self._obtain = functools.cache(lambda: store.cached_table(n_needed, path))

    def __getattr__(self, name):
        return getattr(self._obtain(), name)


def _emit(ctx_obj, kind: str, rows) -> None:
    """Print the report of `kind` made of (operation, config, fields) rows."""
    report = Report(kind=kind)
    for operation, config, fields in rows:
        report.add(operation, config, **fields)
    click.echo(render(report, ctx_obj["format"]), nl=False)


@click.group()
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
              help="directory for persisted ranges and prime-sum partials")
@click.option("--threads", type=click.IntRange(1, 1), default=1, show_default=True,
              expose_value=False,
              help="only 1 is accepted, and it sets nothing: Z is evaluated on one "
                   "thread per process, and a cold table build forks one child per "
                   "usable CPU where a zeros.Part may fork")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--epsilon", type=float, default=moments.EPSILON_DEFAULT, show_default=True,
              help="epsilon parameter in (0, 1e-3); only the moment sums use it")
@click.pass_context
def main(ctx, cache_dir, fmt, epsilon):
    """Numerical laboratory for Gram points, Hardy Z zeros, and Gram's law."""
    moments.moment_constants(epsilon)   # PreconditionError before any command runs
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
    _emit(obj, "classification", (("gram_point", {"n": n}, {"index": n, "t": t})
                                  for n, t in enumerate(gram_points(n_hi, n_lo).tolist(), n_lo)))


@main.command()
@click.option("--t-lo", type=float, required=True)
@click.option("--t-hi", type=float, required=True)
@click.pass_obj
def zeros(obj, t_lo, t_hi):
    """Certified zeros of Z in (t-lo, t-hi]."""
    require_heights(t_lo, t_hi)
    table = _TableOnUse(obj, gram_index_for_height(t_hi))
    _emit(obj, "classification", (("find_zeros", {"t_lo": t_lo, "t_hi": t_hi}, vars(z))
                                  for z in table.find_zeros(t_lo, t_hi)))


@main.command()
@click.option("--n-lo", type=int, required=True)
@click.option("--n-hi", type=int, required=True)
@click.pass_obj
def classify(obj, n_lo, n_hi):
    """Gram's-law flags for intervals G_n, n in [n-lo, n-hi]."""
    table = _TableOnUse(obj, n_hi)
    _emit(obj, "classification", (("classify_intervals", {"n_lo": n_lo, "n_hi": n_hi}, vars(r))
                                  for r in gram_law.classify_intervals(table, n_lo, n_hi)))


@main.command()
@click.option("--n-lo", type=int, required=True, help="first zero index")
@click.option("--n-hi", type=int, required=True, help="last zero index")
@click.pass_obj
def delta(obj, n_lo, n_hi):
    """Zero-to-Gram offsets Delta_n for zero indices in [n-lo, n-hi]."""
    table = _TableOnUse(obj, n_hi)    # holds certified_n >= n_hi zeros
    deltas = gram_law.delta_array(table, n_lo, n_hi).tolist()
    _emit(obj, "classification", (
        ("delta_n", {"zero_index": n}, {"zero_index": n, "gram_index": n + d, "delta": d})
        for n, d in enumerate(deltas, n_lo)))


@main.command()
@click.option("--upper-n", type=click.IntRange(min=1), required=True)
@click.pass_obj
def nu(obj, upper_n):
    """Occupancy histogram nu_k over G_1..G_N."""
    h = gram_law.nu_histogram(_TableOnUse(obj, upper_n), upper_n)
    config = {"upper_index": h.upper_index, "s_at_end": h.s_at_end}
    _emit(obj, "histogram", (("nu_histogram", config, {"k": k, "count": h.counts[k]})
                             for k in sorted(h.counts)))


def _moment(sum_, *params):
    """A --kind whose MomentReport is sum_(table, N, M, **params), params named
    among m, k and epsilon: its row maker, and whether the sum reads the shift m."""
    def row(kind, table, N, M, m, k, epsilon):
        args = {"m": m, "k": k, "epsilon": epsilon}
        r = sum_(table, N, M, **{p: args[p] for p in params})
        return kind, {"N": N, "M": M, **args}, {**vars(r), "notes": "; ".join(r.notes)}
    return row, "m" in params


def _counts(kind, table, N, M, m, k, epsilon):
    m1, m2 = moments.empty_and_crowded_counts(table, N, M)
    return ("empty_and_crowded_counts", {"N": N, "M": M},
            {"m1": m1, "m2": m2, "m1_fraction": m1 / M, "m2_fraction": m2 / M})


# --kind: its row maker, and whether its sum reads through Gram index N + M + m
# rather than N + M
_MOMENT_KINDS = {
    "block": _moment(moments.block_difference_moment, "m", "k", "epsilon"),
    "adjacent": _moment(moments.adjacent_difference_moment, "k", "epsilon"),
    "first": _moment(moments.first_moment),
    "counts": (_counts, False),
    "alternating": _moment(moments.alternating_sum, "k", "epsilon"),
    "selberg-even": _moment(functools.partial(moments.selberg_delta_moment, parity="even"),
                            "k", "epsilon"),
    "selberg-odd": _moment(functools.partial(moments.selberg_delta_moment, parity="odd"),
                           "k", "epsilon"),
    "residual": _moment(primes.residual_moments, "k", "epsilon"),
}


@main.command("moments")
@click.option("--kind", type=click.Choice(list(_MOMENT_KINDS)), required=True)
@click.option("--start-n", "n_start", type=int, required=True, help="range start N")
@click.option("--length-m", "m_len", type=int, required=True, help="range length M")
@click.option("--shift-m", "m_shift", type=int, default=1, show_default=True)
@click.option("--order-k", "k_ord", type=int, default=1, show_default=True)
@click.pass_obj
def moments_cmd(obj, kind, n_start, m_len, m_shift, k_ord):
    """Moment sums of S at Gram points over (N, N+M]."""
    row, shifted = _MOMENT_KINDS[kind]
    table = _TableOnUse(obj, n_start + m_len + (m_shift if shifted else 0))
    _emit(obj, "moment", [row(kind, table, n_start, m_len, m_shift, k_ord, obj["epsilon"])])


@main.command()
@click.option("--upper-n", type=click.IntRange(min=1), required=True)
@click.pass_obj
def titchmarsh(obj, upper_n):
    """Correlation sum of Z at adjacent Gram points against -2(gamma+1)N."""
    r = moments.titchmarsh_correlation(_TableOnUse(obj, upper_n), upper_n)
    _emit(obj, "moment", [("titchmarsh_correlation", {"N": upper_n},
                           {"sum": r.sum, "main_term": r.main_term, "ratio": r.ratio})])


def _mertens(x, cache_dir, **_):
    lp, rp = primes.mertens_sums(x, cache_dir=cache_dir)
    return ("mertens_sums", {"x": int(x)},
            {"sum_logp_over_p": lp, "sum_recip_p": rp, "ln_x": math.log(x)})


def _vxh(x, h, cache_dir, **_):
    r = primes.v_xh(x, h, cache_dir=cache_dir)
    return "v_xh", {"x": x, "h": h}, {"value": r.value, "main": r.main, "deviation": r.deviation}


def _diagonal(k, y, **_):
    d = primes.diagonal_identity_check(k, y)
    return ("diagonal_identity_check", {"k": k, "y": y},
            {"lhs": d.lhs, "sigma1": d.sigma1, "sigma2": d.sigma2, "theta": d.theta, "ok": d.ok})


# --kind: the options it requires, and its row from the options
_PRIME_KINDS = {
    "mertens": (("x",), _mertens),
    "vxh": (("x", "h"), _vxh),
    "vy": (("t", "y"), lambda t, y, **_: ("v_y", {"t": t, "y": y}, {"value": primes.v_y(t, y)})),
    "diagonal": (("y",), _diagonal),
}


@main.command("primes")
@click.option("--kind", type=click.Choice(list(_PRIME_KINDS)), required=True)
@click.option("--x", type=float, default=None)
@click.option("--h", type=float, default=None)
@click.option("--t", type=float, default=None)
@click.option("--y", type=float, default=None)
@click.option("--order-k", "k_ord", type=int, default=1, show_default=True)
@click.pass_obj
def primes_cmd(obj, kind, k_ord, **options):
    """Prime sieve sums: Mertens, V(x;h), V_y(t), diagonal identity."""
    required, row = _PRIME_KINDS[kind]
    if any(options[name] is None for name in required):
        _fail(2, f"{kind} requires " + " and ".join(f"--{name}" for name in required))
    _emit(obj, "moment", [row(k=k_ord, cache_dir=obj["cache_dir"], **options)])


@main.command("ingest")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--match-tol", type=float, default=ingest.DEFAULT_MATCH_TOL,
              show_default=True)
@click.pass_obj
def ingest_cmd(obj, path, match_tol):
    """Match an external ordinate table against computed zeros."""
    ext = ingest.parse_ordinate_file(path)
    ingest.require_match_tol(match_tol)     # before it sizes the table
    reach = float(ext[-1]) + match_tol if ext.size else 0.0
    r = ingest.match_ordinates(ext, _TableOnUse(obj, gram_index_for_height(reach)), match_tol)
    _emit(obj, "match", [("ingest_external_table", {"path": str(path), "match_tol": match_tol},
                          vars(r))])


@main.command("verify-paper")
@click.option("--n-limit", type=click.IntRange(min=1), default=100000,
              show_default=True, help="largest Gram index any assertion reads")
@click.pass_obj
def verify_paper(obj, n_limit):
    """Run every published-value regression; exit 1 on any failure."""
    require_under_ceiling(n_limit)      # before the prime sums start
    rep = regression.run_paper_regression(_TableOnUse(obj, n_limit), n_limit,
                                          obj["epsilon"], obj["cache_dir"])
    click.echo(render(rep, obj["format"]), nl=False)
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
