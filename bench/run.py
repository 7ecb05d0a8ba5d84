"""gramlab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; gramlab is imported from ./src.
Workloads: table_build, paper_verify, table_grow (see workloads.py), or
`all`, which runs the three in turn, each in its own process.

With --trace 0 the run measures end to end: set-up time, the median wall time
of one iteration, peak RSS, and each workload's own figures.  With --trace 1
it first runs the same untraced loop, then the loop again with layer spans
(tracer.py), and reports per-layer metrics per iteration plus the tracing
overhead and the zeta kernel probes.  --smoke shrinks every workload so the
benchmark's own tests can check its output quickly.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5          # set-up is timed this many times, in fresh processes
KERNEL_HEIGHTS = {"t1e3": 1e3, "t1e4": 1e4, "t75e3": 7.5e4}
KERNEL_POINTS = 4096
NAMES = ("table_build", "paper_verify", "table_grow")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def stamp(args) -> dict:
    """Where and how the numbers were taken; never compare across stamps."""
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__, "threads": 1}


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return dt


def measure(wl, seconds: float, tracer=None) -> list[float]:
    """Closed loop: iterations back to back until `seconds` have passed and
    the workload has its minimum number of samples."""
    samples = []
    start = time.perf_counter()
    while len(samples) < wl.min_iterations or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.begin_iteration()
        samples.append(wl.iteration(tracer))
    return samples


def tail(samples: list[float]):
    """(p, value) for the highest whole percentile with >= 10 samples beyond it."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, float(sorted(samples)[math.ceil(p / 100 * n) - 1])


def kernel_probes(seed: int) -> dict[str, float]:
    """hardy_z_many cost per point on seeded heights at fixed t."""
    import numpy as np
    from gramlab.zeta import hardy_z_many

    rng = np.random.default_rng(seed)
    out = {}
    for label, t in KERNEL_HEIGHTS.items():
        ts = t + rng.uniform(0.0, 50.0, KERNEL_POINTS)
        hardy_z_many(ts)
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            hardy_z_many(ts)
            reps.append(time.perf_counter() - t0)
        out[f"zeta.us_per_point_{label}"] = statistics.median(reps) / KERNEL_POINTS * 1e6
    return out


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} {value:.6g} {unit}" + (f"  # {note}" if note else ""))


def run_one(args) -> int:
    from tracer import Tracer, instrument
    from workloads import WORKLOADS

    setup_probe = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        t0 = time.perf_counter()
        wl.prepare()
        setup_s = setup_probe + time.perf_counter() - t0
        samples = measure(wl, args.seconds)
        layer = {}
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                traced = measure(wl, args.seconds, tracer)
            layer = tracer.metrics()
            layer["trace.run_s"] = statistics.median(traced)
            layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(samples)
            layer.update(kernel_probes(args.seed))
        wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("stamp " + json.dumps(stamp(args)))
    for text in wl.describe():
        print(text)
    run_s = statistics.median(samples)
    line("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh-process starts"
         + (" plus the cold verify-paper" if args.workload == "paper_verify" else ""))
    line("run_s", run_s, "s", f"median of n={len(samples)} iterations")
    tl = tail(samples)
    if tl:
        line(f"run_p{tl[0]}_s", tl[1], "s", f"n={len(samples)}")
    for name, value, unit, note in wl.extra_metrics():
        line(name, value, unit, note)
    line("peak_rss_mb", peak_rss_mb, "MB", "high-water mark of this process")
    line("failed_frac", wl.failed / max(1, wl.attempted), "ratio",
         f"{wl.failed} of {wl.attempted} operations")
    for err in wl.errors:
        print("wrong " + err)
    if args.trace:
        for name, value in layer.items():
            print(f"layer {name} {value:.6g}")
        units = _units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "run_s": {"value": run_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not wl.errors, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for text in lines[:-1]:
            print(f"[{name}] {text}")
        if proc.returncode != 0 or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "gramlab" / "__init__.py").is_file():
        print(f"bench: no gramlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gramlab.cli  # noqa: F401  (everything the workloads import)

    if Path(gramlab.cli.__file__).resolve().parents[1] != SRC:
        print("bench: gramlab was not imported from ./src", file=sys.stderr)
        return 2
    if args.probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.smoke, ROOT / ".bench_work")
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
