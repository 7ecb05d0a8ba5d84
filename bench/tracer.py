"""Layer spans for the traced benchmark run.

Spans are recorded from the benchmark's own code: `instrument` rebinds the
public functions of each gramlab module, wherever they are bound (including
names one module imported from another, such as `gramlab.zeros.hardy_z_many`),
to wrappers that record a span when a call crosses into the module from
outside it.  A call from a module into itself records nothing, so counts are
boundary crossings and nested helpers are not double counted.  Everything is
undone when the context exits.

A layer's self time is its spans' duration minus the time covered by their
direct child spans; `busy_s` figures are self times.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# layer -> {group: public names}; "Class.method" names a method of a class in
# that module.  Groups split one module's calls where the per-layer metrics
# need it (table builds versus queries, the sieve versus the prime sums).
LAYERS = {
    "theta_gram": {"theta": ["theta", "theta_many", "theta_derivative", "gram_points",
                             "gram_point", "gram_spacing_report", "residual_tolerance"]},
    "zeta": {"z": ["hardy_z", "hardy_z_many", "zeta_euler_maclaurin", "zeta_half_line"]},
    "zeros": {"build": ["ZeroTable.build"],
              "query": ["ZeroTable.count_zeros", "ZeroTable.find_zeros",
                        "ZeroTable.s_at_gram", "ZeroTable.z_values",
                        "ZeroTable.completeness_certificate", "ZeroTable.zero",
                        "find_zeros", "count_zeros", "s_at_gram",
                        "completeness_certificate"]},
    "gram_law": {"gram_law": ["classify_intervals", "interval_counts", "delta_n",
                              "delta_array", "gsp_flags", "nu_histogram",
                              "offset_ladder_check_range", "offset_ladder_check"]},
    "moments": {"moments": ["block_difference_moment", "adjacent_difference_moment",
                            "first_moment", "empty_and_crowded_counts", "alternating_sum",
                            "selberg_delta_moment", "titchmarsh_correlation"]},
    "primes": {"sieve": ["sieve_primes", "verify_spot_range"],
               "cache": ["load_prime_cache", "save_prime_cache"],
               "sums": ["mertens_sums", "v_xh", "v_y", "residual_moments",
                        "diagonal_identity_check"]},
    "store": {"load": ["load_range", "load_manifest"], "save": ["save_range"]},
    "regression": {"regression": ["run_paper_regression", "exit_code"]},
}

# functions whose argument counts Gram intervals: name -> intervals covered
_INTERVALS = {
    "classify_intervals": lambda a: a[2] - a[1] + 1,
    "interval_counts": lambda a: a[2] - a[1] + 1,
    "delta_array": lambda a: a[2] - a[1] + 1,
    "gsp_flags": lambda a: a[2] - a[1] + 1,
    "offset_ladder_check_range": lambda a: a[2] - a[1] + 1,
    "nu_histogram": lambda a: a[1],
    "delta_n": lambda a: 1,
    "offset_ladder_check": lambda a: 1,
}


class Span:
    __slots__ = ("layer", "group", "name", "parent", "start", "end", "child")

    def __init__(self, layer, group, name, parent):
        self.layer, self.group, self.name, self.parent = layer, group, name, parent
        self.start = self.end = 0.0
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Spans and boundary counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.iterations = 0
        self.z_heights: list[np.ndarray] = []
        self.builds: list[tuple[int, int, object]] = []   # (iteration, points, table)
        self.served: list[tuple[int, int]] = []           # (iteration, certified_n)
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin_iteration(self) -> None:
        self.iterations += 1

    @contextmanager
    def span(self, layer: str, group: str, name: str):
        parent = self.stack[-1] if self.stack else None
        sp = Span(layer, group, name, parent)
        self.stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child += sp.duration
            self.spans.append(sp)

    def wrap(self, layer: str, group: str, name: str, fn):
        on_return = _ON_RETURN.get((layer, name.split(".")[-1]))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = self.stack[-1] if self.stack else None
            if top is not None and top.layer == layer and top.group == group:
                return fn(*args, **kwargs)
            with self.span(layer, group, name) as sp:
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, sp, args, kwargs, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per iteration of the traced loop."""
        it = max(1, self.iterations)
        agg: dict[tuple[str, str], list[float]] = {}
        for sp in self.spans:
            a = agg.setdefault((sp.layer, sp.group), [0, 0.0, 0.0])
            a[0] += 1
            a[1] += sp.duration
            a[2] += sp.self_time

        def calls(layer, *groups):
            return sum(agg.get((layer, g), [0])[0] for g in groups) / it

        def incl(layer, *groups):
            return sum(agg.get((layer, g), [0, 0.0])[1] for g in groups) / it

        def self_s(layer, *groups):
            return sum(agg.get((layer, g), [0, 0.0, 0.0])[2] for g in groups) / it

        c = self.counts
        m: dict[str, float] = {}
        points = c.get("zeta.points", 0)
        m["zeta.calls"] = calls("zeta", "z")
        m["zeta.points"] = points / it
        m["zeta.busy_s"] = self_s("zeta", "z")
        m["zeta.ns_per_point"] = incl("zeta", "z") * it / points * 1e9 if points else 0.0
        m["zeta.em_points"] = c.get("zeta.em_points", 0) / it

        heights = np.concatenate(self.z_heights) if self.z_heights else np.empty(0)
        m["zeros.build_s"] = incl("zeros", "build")
        m["zeros.self_s"] = self_s("zeros", "build")
        m["zeros.z_calls"] = c.get("zeros.z_calls", 0) / it
        m["zeros.z_points"] = heights.size / it
        m["zeros.z_unique_ratio"] = (np.unique(heights).size / heights.size
                                     if heights.size else 0.0)
        diags = [t.diagnostics for _, _, t in self.builds]
        m["zeros.blocks"] = sum(d.blocks for d in diags) / it
        m["zeros.densified_blocks"] = sum(d.densified_blocks for d in diags) / it
        m["zeros.max_depth"] = max((d.max_depth for d in diags), default=0)
        m["zeros.failed_blocks"] = sum(len(d.failed_blocks) for d in diags) / it
        m["zeros.certified_n"] = max((t.certified_n for _, _, t in self.builds), default=0)
        m["zeros.builds"] = len(self.builds) / it
        ratios = []
        for i in range(1, self.iterations + 1):
            built = sum(p for j, p, _ in self.builds if j == i)
            served = max((n for j, n in self.served if j == i), default=0)
            if built and served:
                ratios.append(built / served)
        m["zeros.rebuild_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        m["zeros.query_calls"] = calls("zeros", "query")
        m["zeros.query_s"] = incl("zeros", "query")

        m["store.load_calls"] = calls("store", "load")
        m["store.load_s"] = incl("store", "load")
        m["store.save_calls"] = calls("store", "save")
        m["store.save_s"] = incl("store", "save")
        m["store.bytes_read"] = c.get("store.bytes_read", 0) / it
        m["store.bytes_written"] = c.get("store.bytes_written", 0) / it

        m["primes.sieve_calls"] = calls("primes", "sieve")
        m["primes.sieve_s"] = incl("primes", "sieve")
        m["primes.sieve_cache_loads"] = c.get("primes.sieve_cache_loads", 0) / it
        m["primes.sums_calls"] = calls("primes", "sums")
        m["primes.sums_s"] = self_s("primes", "sums")

        m["gram_law.calls"] = calls("gram_law", "gram_law")
        m["gram_law.busy_s"] = self_s("gram_law", "gram_law")
        m["gram_law.intervals"] = c.get("gram_law.intervals", 0) / it
        m["moments.calls"] = calls("moments", "moments")
        m["moments.busy_s"] = self_s("moments", "moments")
        m["theta_gram.calls"] = calls("theta_gram", "theta")
        m["theta_gram.busy_s"] = self_s("theta_gram", "theta")

        for status in ("pass", "skip", "fail"):
            m[f"regression.rows_{status}"] = c.get(f"regression.rows_{status}", 0) / it
        m["regression.self_s"] = self_s("regression", "regression")
        m["cli.self_s"] = self_s("cli", "command")
        return {k: float(v) for k, v in m.items()}


# -- per-call counters, run after a boundary call returns --------------------

def _in_build(sp: Span) -> bool:
    """A Z evaluation made by a table build (not by a query such as z_values)."""
    return sp.parent is not None and sp.parent.layer == "zeros" \
        and sp.parent.group == "build"


def _zeta_many(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    ts = np.asarray(args[0], dtype=float)
    tr.count("zeta.points", ts.size)
    if _in_build(sp):
        tr.count("zeros.z_calls")
        tr.z_heights.append(ts.ravel())


def _zeta_scalar(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    from gramlab.zeta import RS_SWITCH_T

    tr.count("zeta.points")
    if (getattr(result, "method", None) == "euler_maclaurin"
            or sp.name == "zeta_euler_maclaurin"
            or (sp.name == "zeta_half_line" and args[0] < RS_SWITCH_T)):
        tr.count("zeta.em_points")
    if _in_build(sp):
        tr.count("zeros.z_calls")
        tr.z_heights.append(np.asarray([float(args[0])]))


def _build(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    tr.builds.append((tr.iterations, int(result.gram.size), result))
    tr.served.append((tr.iterations, int(result.certified_n)))


def _load_range(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    path = Path(args[0])
    tr.count("store.bytes_read", sum((path / f).stat().st_size
                                     for f in ("manifest.json", "gram.csv", "zeros.csv")))
    tr.served.append((tr.iterations, int(result[0].certified_n)))


def _load_manifest(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    tr.count("store.bytes_read", (Path(args[0]) / "manifest.json").stat().st_size)


def _save_range(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    path = Path(args[1])
    tr.count("store.bytes_written", sum((path / f).stat().st_size
                                        for f in ("manifest.json", "gram.csv", "zeros.csv")))


def _intervals(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    tr.count("gram_law.intervals", _INTERVALS[sp.name](args))


def _regression(tr: Tracer, sp: Span, args, kwargs, result) -> None:
    for row in result.rows:
        tr.count(f"regression.rows_{row.get('status')}")


_ON_RETURN = {
    ("zeta", "hardy_z_many"): _zeta_many,
    ("zeta", "hardy_z"): _zeta_scalar,
    ("zeta", "zeta_euler_maclaurin"): _zeta_scalar,
    ("zeta", "zeta_half_line"): _zeta_scalar,
    ("zeros", "build"): _build,
    ("store", "load_range"): _load_range,
    ("store", "load_manifest"): _load_manifest,
    ("store", "save_range"): _save_range,
    ("primes", "load_prime_cache"): lambda tr, *_: tr.count("primes.sieve_cache_loads"),
    ("regression", "run_paper_regression"): _regression,
    **{("gram_law", name): _intervals for name in _INTERVALS},
}

_MODULES = ("__init__", "theta_gram", "zeta", "zeros", "gram_law", "moments", "primes",
            "store", "regression", "reports", "accum", "ingest", "cli")


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every listed public function to a tracing wrapper, then undo it."""
    mods = [importlib.import_module("gramlab" if m == "__init__" else f"gramlab.{m}")
            for m in _MODULES]
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, groups in LAYERS.items():
            home = importlib.import_module(f"gramlab.{layer}")
            for group, names in groups.items():
                for name in names:
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(tracer.wrap(layer, group, meth, raw.__func__))
                        else:
                            new = tracer.wrap(layer, group, meth, raw)
                        undo.append((cls, meth, raw))
                        setattr(cls, meth, new)
                        continue
                    orig = getattr(home, name)
                    new = tracer.wrap(layer, group, name, orig)
                    for mod in mods:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                undo.append((mod, attr, orig))
                                setattr(mod, attr, new)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
