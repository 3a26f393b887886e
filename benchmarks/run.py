"""Benchmark of the bridgelab command line: train, sample and verify, in one process.

Run from the repository root:

    python3 benchmarks/run.py --workload shift2d --seed 1 --seconds 55 --trace 0

Each op calls ``bridgelab.cli.main(argv)`` in-process, exactly as a user's
``bridgelab ...`` invocation would, for ``train``, then ``sample`` of the
parameters it wrote, then ``verify``. Load is closed-loop: one caller, and
the next command starts when the previous one has finished. Ops run until
``--seconds`` is used up. Every op's outputs are checked; op k uses seed
``1000 * seed + k // 2``, so each seed runs twice and the second run's outputs
must match the first byte for byte.

``--trace 0`` prints the end-to-end metrics. Before each of its ops it times
one fresh-process set-up (probe.py), so ``setup_s`` is taken over the same
stretch of the run as the ops. ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics from the traced ones
(see spans.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The benchmark needs the
repository's ``src/bridgelab``; without it, it exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
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
import traceback

from workloads import WORKLOADS, Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

IMPORT_PROBES = 3
MIN_OPS = 2  # the second op repeats the first op's seed, for the byte check


def declared(key: str) -> list[dict]:
    """One list of BENCHMARK.json: "workloads", "end_to_end" or "per_layer", in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def has_checkout() -> bool:
    return os.path.isfile(os.path.join(SRC, "bridgelab", "__init__.py"))


def import_bridgelab():
    """Import the checkout's bridgelab.cli, never an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bridgelab.cli

    if not os.path.abspath(bridgelab.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bridgelab was imported from {bridgelab.cli.__file__}, not {SRC}")
    return bridgelab.cli


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _blas_libraries() -> list[dict]:
    """Every OpenBLAS the process has loaded, with its config and live thread count."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode().strip()
        found.append(entry)
    return found


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over src/bridgelab/*.py, naming the code measured when git is absent."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bridgelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": blas_threads,
        "blas": _blas_libraries(),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def time_setup(workload: Workload) -> float:
    """Wall time of a fresh process that imports bridgelab and builds an op's argv and dirs."""
    start = time.perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls every 50 ms
    proc = subprocess.Popen([sys.executable, PROBE, workload.name, TMP_DIR], stdout=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return time.perf_counter() - start


def measure_scipy_spatial_import(workload: Workload, count: int) -> float:
    """Median time ``import bridgelab.cli`` spends importing scipy.spatial (0 if it does not)."""
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", PROBE, workload.name, TMP_DIR],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        micros = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.spatial":
                micros = int(parts[1])
        values.append(micros / 1e6)
    return statistics.median(values)


# ---------------------------------------------------------------------------
# ops and output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _find_key(obj, key):
    if isinstance(obj, dict):
        if key in obj:
            return obj[key]
        for value in obj.values():
            found = _find_key(value, key)
            if found is not None:
                return found
    return None


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value}")
    return value


def check_outputs(cmd: Command, workload: Workload) -> tuple[dict, dict]:
    """Validate one command's outputs; returns (fingerprints, values)."""
    d = cmd.out_dir
    if cmd.kind == "train":
        with open(os.path.join(d, "stats.csv"), encoding="utf-8") as fh:
            last = fh.read().strip().splitlines()[-1]
        _finite(last.split(",")[1], "final training loss")
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            stream_digest = _find_key(json.load(fh), "sample_stream_digest")
        if not stream_digest:
            raise CheckFailed("train manifest has no sample_stream_digest")
        return {"params.bin": _sha(os.path.join(d, "params.bin")), "sample_stream_digest": stream_digest}, {}
    if cmd.kind == "sample":
        with open(os.path.join(d, "eval.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        ed = _finite(report["energy_distance"], "energy distance")
        if report["sample_count"] != workload.runs:
            raise CheckFailed(f"eval.json sample_count {report['sample_count']} != {workload.runs}")
        with open(os.path.join(d, "endpoints.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != workload.runs:
            raise CheckFailed(f"endpoints.csv has {rows} rows, expected {workload.runs}")
        return {
            "endpoints.csv": _sha(os.path.join(d, "endpoints.csv")),
            "eval.json": _sha(os.path.join(d, "eval.json")),
        }, {"energy_distance": ed, "paired_mse": _finite(report["paired_mse"], "paired MSE")}
    path = os.path.join(d, "verify_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("passed") is not True:
        raise CheckFailed(f"verify reported passed={report.get('passed')}: failed {report.get('failed')}")
    return {"verify_report.json": _sha(path)}, {}


def _bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_op(cli_mod, workload: Workload, op_dir: str, seed: int, fingerprints: dict) -> dict:
    """One train + sample + verify session; stops at the first failed command."""
    op = {"walls": {}, "work": {}, "values": {}, "failure": None, "bytes": 0}
    for cmd in workload.commands(op_dir, seed):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_mod.main(cmd.argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code
        except Exception:  # an op boundary: record the failure and keep measuring
            rc = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if rc != 0:
            op["failure"] = f"{cmd.kind} exited with {rc}: {err.getvalue().strip()[-400:]}"
            return op
        try:
            prints, values = check_outputs(cmd, workload)
        except (CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
            op["failure"] = f"{cmd.kind} output check: {exc!r}"
            return op
        key = (cmd.kind, None if cmd.kind == "verify" else seed)
        earlier = fingerprints.setdefault(key, prints)
        for name, value in prints.items():
            if earlier.get(name) != value:
                op["failure"] = f"{cmd.kind} {name} differs from an earlier run with the same seed"
                return op
        op["walls"][cmd.kind] = wall
        op["work"][cmd.kind] = cmd.work
        op["values"].update(values)
        op["bytes"] += _bytes_under(cmd.out_dir)
    return op


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def tail_note(values: list[float], better: str) -> str:
    """The highest percentile with at least 10 ops beyond it, on the worse side."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(values, reverse=(better == "higher"))
            rank = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            return f"p{p:g}={ordered[rank]:.6g}, n={n}"
    return f"n={n}, no percentile has 10 ops beyond it"


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tracer_factory=None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines before it."""
    blas_threads = pin_blas_threads()
    cli_mod = import_bridgelab()
    lines = ["machine " + json.dumps(machine_facts(blas_threads), sort_keys=True)]
    os.makedirs(TMP_DIR, exist_ok=True)
    run_dir = os.path.join(TMP_DIR, f"{workload.name}-{os.getpid()}")
    tracer = None
    if trace:
        from spans import Tracer

        tracer = (tracer_factory or Tracer)()
        scipy_spatial_s = measure_scipy_spatial_import(workload, IMPORT_PROBES)

    fingerprints: dict = {}
    ops: list[dict] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    try:
        for k in itertools.count():
            elapsed = time.perf_counter() - t0
            if k >= MIN_OPS and elapsed + (elapsed / k) > seconds:
                break
            if not trace:
                # one set-up per op, so set-up and ops are timed over the same stretch of the run
                setup.append(time_setup(workload))
            traced = tracer is not None and k % 2 == 1
            op_dir = os.path.join(run_dir, f"op{k}")
            gc.collect()
            start = time.perf_counter()
            if traced:
                tracer.install()
            try:
                op = run_op(cli_mod, workload, op_dir, 1000 * seed + k // 2, fingerprints)
            finally:
                if traced:
                    tracer.uninstall()
            op["wall"] = time.perf_counter() - start
            op["traced"] = traced
            if traced:
                op["layers"] = tracer.op_snapshot()
            ops.append(op)
            shutil.rmtree(op_dir, ignore_errors=True)
            if op["failure"]:
                print(f"op {k} failed: {op['failure']}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for o in ops if o["failure"])
    ok = [o for o in ops if not o["failure"]]
    lines.append(
        f"workload {workload.name} seed {seed} seconds {seconds:g} trace {int(trace)} "
        f"ops {len(ops)} failed {failed}"
    )
    for k, o in enumerate(ops):
        walls = " ".join(f"{kind}={wall:.4f}s" for kind, wall in o["walls"].items())
        lines.append(f"op {k}{' traced' if o['traced'] else ''}: {walls} op={o['wall']:.4f}s")
    if trace:
        metrics = layer_metrics(tracer, ok, scipy_spatial_s, lines)
    else:
        metrics = end_to_end_metrics(ok, setup, lines)
    lines.append(f"ops_failed_ratio {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops)")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def end_to_end_metrics(ok: list[dict], setup: list[float], lines: list[str]) -> dict:
    per_op = {
        "train_samples_per_s": [o["work"]["train"] / o["walls"]["train"] for o in ok],
        "sample_runs_per_s": [o["work"]["sample"] / o["walls"]["sample"] for o in ok],
        "verify_s": [o["walls"]["verify"] for o in ok],
        "sample_paired_mse": [o["values"]["paired_mse"] for o in ok],
    }
    specs = declared("end_to_end")
    better = {m["name"]: m["better"] for m in specs}
    notes = {"setup_s": f"median of {len(setup)} fresh-process set-ups"}
    values = {"setup_s": statistics.median(setup)}
    for name, samples in per_op.items():
        if samples:
            values[name] = statistics.median(samples)
            notes[name] = f"median per op; {tail_note(samples, better[name])}"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "getrusage of the benchmark process"
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in specs):
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:<24} {values[name]:>14.6g} {unit:<10} ({notes[name]})")
    if ok:
        # Not gated: at 1024 runs in 2-D its finite-sample bias and noise are
        # larger than any allowed bound, so it varies too much from seed to seed.
        ed = statistics.median(o["values"]["energy_distance"] for o in ok)
        lines.append(f"{'sample_energy_distance':<24} {ed:>14.6g} {'1':<10} (median per op; not gated)")
    return metrics


def layer_metrics(tracer, ok: list[dict], scipy_spatial_s: float, lines: list[str]) -> dict:
    specs = [(m["name"], m["unit"]) for m in declared("per_layer")]
    traced = [o for o in ok if o["traced"]]
    plain = [o for o in ok if not o["traced"]]
    values: dict[str, float | None] = {}
    for name, _ in specs:
        samples = [o["layers"].get(name) for o in traced]
        samples = [s for s in samples if s is not None]
        values[name] = statistics.median(samples) if samples else None
    values["trainer.step_ms_p50"], values["trainer.step_ms_p90"] = tracer.step_percentiles()
    values["cli.bytes_written"] = statistics.median(o["bytes"] for o in traced) if traced else None
    values["import.scipy_spatial_s"] = scipy_spatial_s
    if traced and plain:
        values["trace.overhead_ratio"] = (
            statistics.median(o["wall"] for o in traced) / statistics.median(o["wall"] for o in plain) - 1.0
        )
    absent = [name for name, _ in specs if name != "trace.absent_metrics" and values[name] is None]
    values["trace.absent_metrics"] = len(absent)
    metrics = {}
    for name, unit in specs:
        value = values[name]
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"{name:<36} {shown:>14} {unit}")
    lines.append(f"traced ops {len(traced)}, untraced ops {len(plain)}; absent: {', '.join(absent) or 'none'}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not has_checkout():
        print(f"error: no bridgelab package under {SRC}; run from a bridgelab checkout", file=sys.stderr)
        return 2
    result, lines = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
