"""The three benchmark workloads and their output checks.

Each workload is closed loop and single threaded: one operation at a time,
`--threads 1` (the CLI default).  Inputs come from the seed alone; gramlab
only sees the generated arguments.

    table_build   cold ZeroTable.build(n_max), n_max drawn from [100000, 100100]
    paper_verify  warm `gramlab --cache-dir D verify-paper --n-limit 100000`
    table_grow    6 CLI commands at ascending Gram-index targets against one
                  cache dir that starts empty, then the same 6 replayed

An operation fails when gramlab exits non-zero or its output disagrees with
the expected values; only the latter makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import re
import shutil
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import mpmath
import numpy as np

import expected

# the save refusal behind the known --cache-dir defect (exit 3)
REFUSAL = "not certified to its full extent"


def run_cli(argv: list[str], tracer=None) -> tuple[int, str, str]:
    """Run `gramlab <argv>` in this process; returns (exit code, stdout, stderr)."""
    from gramlab import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["gramlab", *argv]
    span = tracer.span("cli", "command", "gramlab") if tracer else nullcontext()
    try:
        with span, redirect_stdout(out), redirect_stderr(err):
            try:
                cli.entry()
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Set-up, one timed iteration, and the checks of one workload."""

    name = ""
    min_iterations = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []   # outputs that disagree with expected values

    def prepare(self) -> None:
        """Set-up beyond imports; its time is part of setup_s."""

    def iteration(self, tracer=None) -> float:
        """Run one iteration; returns its wall time in seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need work outside the timed loop."""

    def extra_metrics(self) -> list[tuple[str, float, str, str]]:
        """Workload-specific metrics as (name, value, unit, note)."""
        return []

    def describe(self) -> list[str]:
        """Lines naming the generated inputs and what each operation did."""
        return []

    def _record(self, ok: bool, wrong: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if wrong:
            self.errors.append(wrong)


def s_digest(s_gram: np.ndarray, limit: int) -> str:
    return hashlib.blake2b(s_gram[: limit + 1].astype("<i8").tobytes(),
                           digest_size=16).hexdigest()


class TableBuild(Workload):
    name = "table_build"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed)
        lo, hi = expected.BUILD_RANGE_SMOKE if smoke else expected.BUILD_RANGE
        self.n_max = int(self.rng.integers(lo, hi + 1))
        self.anchor = self.n_max
        while self.anchor in expected.IRREGULAR:
            self.anchor -= 1
        self.s_limit, self.s_digest = (expected.S_DIGEST_SMOKE if smoke
                                       else expected.S_DIGEST)
        self.rates: list[float] = []

    def iteration(self, tracer=None):
        from gramlab.zeros import ZeroTable

        t0 = time.perf_counter()
        table = ZeroTable.build(self.n_max)
        dt = time.perf_counter() - t0
        wrong = []
        if table.certified_n != self.anchor:
            wrong.append(f"certified_n {table.certified_n}, last anchor {self.anchor}")
        if s_digest(table.s_gram, self.s_limit) != self.s_digest:
            wrong.append(f"S(t_n) digest for n <= {self.s_limit} differs")
        below = int(np.searchsorted(table.zeros, 1468.0, side="right"))
        if below != 1042:
            wrong.append(f"{below} zeros below t = 1468, expected 1042")
        self._record(not wrong, "; ".join(wrong) or None)
        certified = int(np.searchsorted(table.zeros, table.gram[table.certified_n],
                                        side="right"))
        if tracer is None:
            self.rates.append(certified / dt)
        return dt

    def extra_metrics(self):
        return [("zeros_per_s", float(np.median(self.rates)), "1/s",
                 f"certified zeros per second, n_max = {self.n_max}")]

    def describe(self):
        return [f"inputs n_max={self.n_max} last_anchor={self.anchor}"]


_STATUS = re.compile(r",(pass|fail|skip),")


class PaperVerify(Workload):
    name = "paper_verify"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed)
        # one warm command is short next to the drift of a shared machine
        self.min_iterations = 1 if smoke else 8
        self.n_limit = 1200 if smoke else 100000
        self.baseline_pass = (expected.VERIFY_PASS_SMOKE if smoke
                              else expected.VERIFY_PASS)
        self.argv = ["--cache-dir", str(workdir / "cache"), "--threads", "1",
                     "verify-paper", "--n-limit", str(self.n_limit)]
        self.cold = ""

    def prepare(self):
        # the cold command builds and caches the table and fills the sieve cache
        code, self.cold, _ = run_cli(self.argv)
        self._check(code, self.cold, cold=True)

    def iteration(self, tracer=None):
        t0 = time.perf_counter()
        code, out, _ = run_cli(self.argv, tracer)
        dt = time.perf_counter() - t0
        self._check(code, out)
        return dt

    def _check(self, code: int, out: str, cold: bool = False) -> None:
        wrong = []
        status = {}
        for line in out.splitlines()[1:]:
            m = _STATUS.search(line)
            if m:
                status[line.split(",", 1)[0]] = m.group(1)
        failing = sorted(k for k, v in status.items() if v == "fail")
        if failing:
            wrong.append("rows fail: " + " ".join(failing))
        lost = sorted(k for k in self.baseline_pass if status.get(k) != "pass")
        if lost:
            wrong.append("rows no longer pass: " + " ".join(lost))
        if not cold and out != self.cold:
            wrong.append("warm report differs from the cold report")
        self._record(code == 0 and not wrong, "; ".join(wrong) or None)

    def describe(self):
        return ["inputs gramlab " + " ".join(self.argv)]


@dataclass
class Op:
    command: str
    code: int
    out: str
    latency: float
    miss: bool
    refused: bool
    traced: bool


COMMANDS = ("nu", "classify", "delta", "moments", "titchmarsh", "zeros")


def _gram_height(n: int) -> str:
    """t_n in gramlab's indexing (t_0 = 9.6669), computed without gramlab."""
    return f"{float(mpmath.grampoint(n - 1)):.6f}"


def command_argv(command: str, target: int) -> list[str]:
    t = str(target)
    if command == "nu":
        return ["nu", "--upper-n", t]
    if command == "classify":
        return ["classify", "--n-lo", str(target - 199), "--n-hi", t]
    if command == "delta":
        return ["delta", "--n-lo", str(target - 199), "--n-hi", t]
    if command == "moments":
        return ["moments", "--kind", "block", "--start-n", str(target - 500),
                "--length-m", "500", "--shift-m", "2", "--order-k", "2"]
    if command == "titchmarsh":
        return ["titchmarsh", "--upper-n", t]
    return ["zeros", "--t-lo", _gram_height(target - 50), "--t-hi", _gram_height(target)]


def compare_reports(ref: str, got: str) -> str | None:
    """None when reports agree: integers and flags exactly, heights (column t)
    within the 1e-9 bracket, other reals to 1e-12 relative."""
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    if len(ref_lines) != len(got_lines) or ref_lines[:1] != got_lines[:1]:
        return "report shape differs"
    header = ref_lines[0].split(",")
    for a_line, b_line in zip(ref_lines[1:], got_lines[1:]):
        for col, a, b in zip(header, a_line.split(","), b_line.split(",")):
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                return f"{col}: {a} != {b}"
            if re.fullmatch(r"-?\d+", a) or re.fullmatch(r"-?\d+", b):
                return f"{col}: {a} != {b}"
            tol = 1e-9 if col == "t" else 1e-12 * max(abs(fa), abs(fb))
            if abs(fa - fb) > tol:
                return f"{col}: {a} != {b}"
    return None


class TableGrow(Workload):
    name = "table_grow"
    # sessions are short; two per run even out brief stalls of a shared machine
    min_iterations = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed)
        n_cmds, lo, hi = (2, 1000, 2000) if smoke else (6, 1000, 12000)
        # one target per equal stratum keeps the session's total work steady
        # from seed to seed while the targets still vary
        edges = np.linspace(lo, hi, n_cmds + 1).astype(int)
        self.targets = [int(self.rng.integers(edges[i], edges[i + 1]))
                        for i in range(n_cmds)]
        names = [str(c) for c in self.rng.permutation(COMMANDS)[:n_cmds]]
        self.commands = [(c, command_argv(c, t)) for c, t in zip(names, self.targets)]
        self.cache = workdir / "cache"
        self.ops: list[Op] = []

    def _manifest(self) -> bytes | None:
        path = self.cache / "zrange" / "manifest.json"
        return path.read_bytes() if path.exists() else None

    def iteration(self, tracer=None):
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        total = 0.0
        for _ in range(2):   # first pass, then the replay
            for command, argv in self.commands:
                before = self._manifest()
                t0 = time.perf_counter()
                code, out, err = run_cli(["--cache-dir", str(self.cache), "--threads", "1",
                                          *argv], tracer)
                dt = time.perf_counter() - t0
                total += dt
                refused = code == 3 and REFUSAL in err
                miss = refused or self._manifest() != before
                self.ops.append(Op(command, code, out, dt, miss, refused,
                                   tracer is not None))
        return total

    def finish(self):
        refs = {}
        for command, argv in self.commands:
            code, out, err = run_cli(["--threads", "1", *argv])
            refs[command] = out if code == 0 else None
            if code != 0:
                self.errors.append(f"{command} without a cache dir exits {code}: {err.strip()}")
        for op in self.ops:
            wrong = None
            if op.code == 0 and refs[op.command] is not None:
                diff = compare_reports(refs[op.command], op.out)
                if diff:
                    wrong = f"{op.command} with a cache dir: {diff}"
            self._record(op.code == 0 and wrong is None, wrong)

    def extra_metrics(self):
        timed = [op for op in self.ops if not op.traced]
        miss = [op.latency for op in timed if op.miss]
        hit = [op.latency for op in timed if not op.miss]
        out = []
        if miss:
            out.append(("miss_p50_s", float(np.median(miss)), "s",
                        f"n={len(miss)} commands that built a table"))
        if hit:
            out.append(("hit_p50_s", float(np.median(hit)), "s",
                        f"n={len(hit)} commands served from the cache"))
        refused = sum(op.refused for op in timed)
        out.append(("refused_saves", float(refused), "count",
                    "commands that exit 3 because save_range refuses the table"))
        return out

    def describe(self):
        lines = ["inputs " + " | ".join(" ".join(argv) for _, argv in self.commands)]
        lines += [f"op {op.command} exit={op.code} {'miss' if op.miss else 'hit'} "
                  f"{op.latency:.4f}s" for op in self.ops if not op.traced]
        return lines


WORKLOADS = {w.name: w for w in (TableBuild, PaperVerify, TableGrow)}
