"""Tests of the benchmark itself, on its tiny --smoke sizes.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json names must come out with its unit, and every end-to-end
metric named in the workload's own lines must be printed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# end-to-end figures printed as `metric <name> <value> <unit>` lines
PRINTED = {
    "table_build": {"setup_s": "s", "run_s": "s", "zeros_per_s": "1/s",
                    "peak_rss_mb": "MB", "failed_frac": "ratio"},
    "paper_verify": {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                     "failed_frac": "ratio"},
    "table_grow": {"setup_s": "s", "run_s": "s", "miss_p50_s": "s", "hit_p50_s": "s",
                   "refused_saves": "count", "peak_rss_mb": "MB", "failed_frac": "ratio"},
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_smoke_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)
    printed = {}
    for text in lines[:-1]:
        if text.startswith("metric "):
            _, name, _, unit = text.split()[:4]
            printed[name] = unit
    assert printed.items() >= PRINTED[workload].items()
    stamp = json.loads(next(t for t in lines if t.startswith("stamp "))[6:])
    assert {"nproc", "cpu", "python", "numpy", "mpmath", "threads"} <= set(stamp)


def test_inputs_follow_the_seed():
    sys.path.insert(0, str(BENCH))
    import workloads
    from workloads import TableGrow

    def session(seed):
        return TableGrow(seed, False, ROOT / ".bench_work")

    assert session(5).commands == session(5).commands
    assert session(5).commands != session(6).commands
    for seed in range(20):
        grow = session(seed)
        assert sorted(c for c, _ in grow.commands) == sorted(workloads.COMMANDS)
        assert grow.targets == sorted(grow.targets)
        assert 1000 <= grow.targets[0] and grow.targets[-1] <= 12000


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "table_build", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
