"""Tiny-size self-check of the benchmark. Run from the repository root:

    python3 benchmarks/selfcheck.py

It runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
asserts that every end-to-end and per-layer metric it names is printed with
its unit and a finite value. It also checks that a traced run survives a
target name that no longer exists (reporting its metrics as absent), and that
the benchmark exits non-zero, printing no result, when the checkout has no
bridgelab sources. It takes about a minute.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import run
from spans import Target, Tracer, default_targets
from workloads import WORKLOADS

# verify keeps its size: its suites floor the draw count at 1e5 anyway
TINY = {"steps": 20, "sample_steps": 4, "runs": 64}


def check_result(result: dict, expected: dict[str, str], label: str) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    assert set(result["metrics"]) == set(expected), (label, sorted(set(result["metrics"]) ^ set(expected)))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], (label, name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (label, name)


def check_missing_name() -> None:
    """Bridge targets that do not exist: the traced run completes, bridge metrics absent."""

    def tracer():
        kept = [t for t in default_targets() if t.layer != "bridge"]
        return Tracer(kept + [Target("bridgelab.bridge", "no_such_function", "bridge")])

    tiny = dataclasses.replace(WORKLOADS["shift2d"], **TINY)
    result, lines = run.run_benchmark(tiny, 2, 0.1, True, tracer_factory=tracer)
    assert result["correct"], result
    assert result["metrics"]["trace.absent_metrics"]["value"] == 2, result["metrics"]
    assert any(line.startswith("bridge.calls") and "absent" in line for line in lines), lines


def check_bare_directory() -> None:
    """Only BENCHMARK.json and benchmarks/: exit non-zero without printing a result."""
    bare = os.path.join(run.TMP_DIR, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "shift2d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in run.declared("end_to_end")}
    per_layer = {m["name"]: m["unit"] for m in run.declared("per_layer")}
    for name in (w["name"] for w in run.declared("workloads")):
        tiny = dataclasses.replace(WORKLOADS[name], **TINY)
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, _ = run.run_benchmark(tiny, 1, 0.1, trace)
            check_result(result, expected, f"{name} trace={int(trace)}")
            print(f"ok {name} trace={int(trace)}: {len(result['metrics'])} metrics")
    check_missing_name()
    print("ok traced run with a missing target name")
    check_bare_directory()
    print("ok bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
