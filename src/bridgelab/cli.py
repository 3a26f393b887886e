"""Command-line surface: verify, profile, train, sample, ablate, schedule dump.

Every artifact-producing command writes a run manifest next to its outputs
capturing the resolved configuration, seed, library version, output paths,
and a timestamp; all numerical artifacts (CSV/JSON) are byte-deterministic
given the seed. Configuration precedence is CLI flags > JSON config file >
built-in defaults, and the resolved union is echoed into the manifest.

Exit codes: 0 success, 1 check or assertion failure, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bridge import EndpointPair, check_noise_scale
from .errors import EvaluationError, IntegrationError, TrainingError
from .model import (
    ModelConfig,
    init,
    load_parameters,
    save_parameters,
    velocity_field_from,
)
from .numerics import RngStream
from .objectives import ObjectiveKind, target_profile
from .sampler import oracle_field
from .schedules import Schedule, shifted
from .tasks import TaskSpec, evaluate, pair_provider
from .trainer import TrainConfig, train
from .verify import SUITES, report_to_json, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_OUT_DIR_ENV = "BRIDGELAB_OUT_DIR"


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _usage_checked(build, *args):
    """Resolve configuration up front: a ValueError (or DomainError) from ``build`` exits 2."""
    try:
        return build(*args)
    except ValueError as exc:
        _usage_error(str(exc))


# ---------------------------------------------------------------------------
# small deterministic writers
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that appears at ``path`` only once it is completely written."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh
    os.replace(tmp, path)


def _atomic_write(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``rows``, any iterable of lists, one line at a time."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def _write_manifest(out_dir: str, command: str, config: dict, outputs: list[str]) -> str:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _write_svg(path: str, series: dict[str, list[tuple[float, float]]], title: str) -> None:
    """Minimal polyline plot; a convenience view of the CSV, never load-bearing."""
    width, height, pad = 640, 400, 45
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, (label, pts) in enumerate(series.items()):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 * i + 12}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def _out_dir_name(args) -> str:
    """--out-dir, else the directory of an --out file, else $BRIDGELAB_OUT_DIR, else '.'."""
    if args.out_dir:
        return args.out_dir
    if getattr(args, "out", None):
        return os.path.dirname(args.out) or "."
    return os.environ.get(_OUT_DIR_ENV) or "."


def _ensure_out_dir(args) -> str:
    out_dir = _out_dir_name(args)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        _usage_error(f"cannot make output directory {out_dir}: {exc.strerror or exc}")
    return out_dir


def _check_out_file(args) -> None:
    """Reject, before any output, an --out that is a directory or whose directory
    neither exists nor is the --out-dir."""
    if not args.out:
        return
    out = os.path.abspath(args.out)
    out_dir = os.path.abspath(args.out_dir) if args.out_dir else None
    parent = os.path.dirname(out)
    if os.path.isdir(out) or out == out_dir or not (parent == out_dir or os.path.isdir(parent)):
        _usage_error(f"--out {args.out} must name a file in an existing directory or in --out-dir")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v != "")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: either 'start:stop:count' or a comma-separated list."""
    if ":" in text:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.array(_parse_floats(text))


def _parse_overrides(items: list[str] | None) -> dict:
    overrides = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        try:
            bound = float(value)
        except ValueError:
            bound = math.nan
        if not sep or math.isnan(bound):
            _usage_error(f"bad override {item!r}, expected name=number")
        overrides[name] = bound
    return overrides


def _add_task_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="gaussian_shift", choices=["gaussian_shift", "moons_rotate", "grid_colorize", "signal_refine"])
    p.add_argument("--dim", type=int, default=2, help="task dimension (gaussian_shift, signal_refine)")
    p.add_argument("--shift", type=_parse_floats, default=(2.0, 0.0), help="shift vector, comma separated")
    p.add_argument("--angle", type=float, default=0.7853981633974483, help="rotation angle (moons_rotate)")
    p.add_argument("--grid-size", type=int, default=4, help="grid side (grid_colorize)")
    p.add_argument("--repeat", type=int, default=4, help="repeat factor k (signal_refine)")
    p.add_argument("--task-seed", type=int, default=0)


def _task_from_args(args) -> TaskSpec:
    if args.task == "gaussian_shift":
        shift = args.shift
        if len(shift) != args.dim:
            _usage_error(f"--shift needs {args.dim} components, got {len(shift)}")
        return TaskSpec(name="gaussian_shift", dimension=args.dim, shift=shift, seed=args.task_seed)
    if args.task == "moons_rotate":
        return TaskSpec(name="moons_rotate", dimension=2, angle=args.angle, seed=args.task_seed)
    if args.task == "grid_colorize":
        return TaskSpec(
            name="grid_colorize",
            dimension=3 * args.grid_size**2,
            grid_size=args.grid_size,
            seed=args.task_seed,
        )
    return TaskSpec(
        name="signal_refine", dimension=args.dim, repeat=args.repeat, seed=args.task_seed
    )


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=_parse_ints, default=(32, 32), help="hidden widths, comma separated")
    p.add_argument("--time-features", type=int, default=8)
    p.add_argument("--activation", default="tanh", choices=["tanh", "smooth_relu"])
    p.add_argument("--zero-context", action="store_true", help="train/evaluate with conditioning zeroed")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", default="stabilized_velocity", choices=[k.value for k in ObjectiveKind])
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=["sgd", "adam"])
    p.add_argument("--log-every", type=int, default=50)


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, default=16)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--mode", default="corrected", choices=["standard", "corrected"])
    p.add_argument("--runs", type=int, default=1024)


def _model_config(args, spec: TaskSpec) -> ModelConfig:
    if not args.hidden:
        raise ValueError("--hidden needs at least one width")
    return ModelConfig(
        input_dim=spec.dimension,
        hidden=args.hidden,
        time_features=args.time_features,
        context_dim=spec.context_dim,
        activation=args.activation,
    )


def _resolved_config(args) -> dict:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in sorted(vars(args).items())
        if key not in ("config", "func", "command")
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_out_file(args)
    overrides = _parse_overrides(args.override)
    report = _usage_checked(run_suite, args.suite, args.seed, args.mc, overrides)
    text = report_to_json(report)
    outputs = []
    if args.out_dir is not None or args.out is not None:
        out_dir = _ensure_out_dir(args)
        out_path = args.out or os.path.join(out_dir, "verify_report.json")
        _atomic_write(out_path, text)
        outputs.append(out_path)
        _write_manifest(out_dir, "verify", _resolved_config(args), outputs)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['suite']}.{check['name']}: measured={check['measured']:.6g} bound={check['bound']:.6g}")
    print(f"{'PASS' if report['passed'] else 'FAIL'} suite={args.suite} checks={len(report['checks'])}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_profile(args) -> int:
    d = args.dim
    if d < 1 or not (math.isfinite(args.distance2) and args.distance2 >= 0.0):
        _usage_error("profile needs --dim >= 1 and a finite --distance2 >= 0")
    _usage_checked(check_noise_scale, args.s)
    x1 = np.full((1, d), np.sqrt(args.distance2 / d))
    pair = EndpointPair(np.zeros((1, d)), x1)
    kind = ObjectiveKind(args.objective)
    grid = _usage_checked(_parse_grid, args.grid)
    rng = RngStream(seed=args.seed, stream=600) if args.mc > 0 else None
    s_values, c_values = _usage_checked(target_profile, kind, pair, args.s, grid, args.mc, rng)
    t_values = grid.tolist()
    out_dir = _ensure_out_dir(args)
    csv_path = os.path.join(out_dir, f"profile_{kind.value}.csv")
    _write_csv(csv_path, ["t", "S", "C"], zip(t_values, s_values.tolist(), c_values.tolist()))
    outputs = [csv_path]
    if args.svg:
        svg_path = os.path.join(out_dir, f"profile_{kind.value}.svg")
        _write_svg(
            svg_path,
            {
                "S(t)": list(zip(t_values, s_values.tolist())),
                "C(t)": list(zip(t_values, c_values.tolist())),
            },
            f"target contributions: {kind.value}",
        )
        outputs.append(svg_path)
    _write_manifest(out_dir, "profile", _resolved_config(args), outputs)
    print(f"wrote {csv_path} ({len(t_values)} grid points)")
    return EXIT_OK


def _train_config(args, objective: "ObjectiveKind | str", noise_scale: float) -> TrainConfig:
    return TrainConfig(
        objective=objective,
        noise_scale=noise_scale,
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
        log_every=args.log_every,
    )


def _train_once(args, spec: TaskSpec, mconfig: ModelConfig, config: TrainConfig, observer=None):
    params = init(mconfig, RngStream(seed=args.seed, stream=900))
    provider = pair_provider(spec, zero_context=args.zero_context)
    return train(params, mconfig, provider, config, observer=observer)


class _AlphaAudit:
    """Per-step normalization-factor statistics, written as debug CSV."""

    def __init__(self):
        self.rows = []

    def __call__(self, step, batch, sample, alpha_sq, targets):
        self.rows.append([step, float(np.mean(alpha_sq)), float(np.max(alpha_sq))])

    def write(self, path: str) -> None:
        _write_csv(path, ["step", "mean_alpha_sq", "max_alpha_sq"], self.rows)


def cmd_train(args) -> int:
    spec = _usage_checked(_task_from_args, args)
    mconfig = _usage_checked(_model_config, args, spec)
    config = _usage_checked(_train_config, args, args.objective, args.s)
    out_dir = _ensure_out_dir(args)
    audit = _AlphaAudit() if args.debug else None
    params, stats = _train_once(args, spec, mconfig, config, observer=audit)
    params_path = os.path.join(out_dir, "params.bin")
    stats_path = os.path.join(out_dir, "stats.csv")
    save_parameters(params_path, mconfig, params, config.objective)
    _write_csv(
        stats_path,
        ["step", "loss", "max_target_sqnorm", "grad_norm", "ms"],
        ([r.step, r.loss, r.max_target_sqnorm, r.grad_norm, r.ms] for r in stats.rows),
    )
    outputs = [params_path, stats_path]
    if audit is not None:
        debug_path = os.path.join(out_dir, "debug.csv")
        audit.write(debug_path)
        outputs.append(debug_path)
    resolved = _resolved_config(args)
    resolved["train_config"] = config.to_dict()
    resolved["sample_stream_digest"] = stats.sample_stream_digest
    _write_manifest(out_dir, "train", resolved, outputs)
    final = stats.rows[-1]
    print(
        f"trained {args.steps} steps: final loss={final.loss:.6g} "
        f"grad_norm={final.grad_norm:.6g} -> {params_path}"
    )
    return EXIT_OK


def _load_trained(args, spec: TaskSpec) -> tuple[ModelConfig, np.ndarray, ObjectiveKind]:
    """The --params container and the objective it records, checked against the task:
    the model's state and context widths must be the task's."""
    try:
        mconfig, params, objective = load_parameters(args.params)
    except OSError as exc:
        _usage_error(f"cannot read --params {args.params}: {exc.strerror or exc}")
    if (mconfig.input_dim, mconfig.context_dim) != (spec.dimension, spec.context_dim):
        raise ValueError(
            f"--params {args.params} holds a model of input_dim {mconfig.input_dim} and "
            f"context_dim {mconfig.context_dim}, but task {spec.name} has dimension "
            f"{spec.dimension} and context_dim {spec.context_dim}"
        )
    return mconfig, params, objective


def cmd_sample(args) -> int:
    spec = _usage_checked(_task_from_args, args)
    schedule = _usage_checked(shifted, args.N, args.gamma)
    if args.oracle == (args.params is not None):
        _usage_error("sample needs exactly one of --oracle and --params FILE")
    if args.runs < 1:
        _usage_error(f"--runs must be >= 1, got {args.runs}")
    _usage_checked(check_noise_scale, args.s)
    if args.oracle:
        make_field = lambda batch: oracle_field(batch.x1)  # noqa: E731
    else:
        mconfig, params, objective = _usage_checked(_load_trained, args, spec)
        make_field = lambda batch: velocity_field_from(  # noqa: E731
            params, mconfig, objective, batch.context
        )
    out_dir = _ensure_out_dir(args)
    trajectory: list[list] = []

    def record(k, states):
        trajectory.append([k, float(schedule.points[k])] + states[0].tolist())

    endpoints, report = evaluate(
        make_field,
        pair_provider(spec, zero_context=args.zero_context),
        schedule,
        args.mode,
        args.s,
        args.runs,
        RngStream(seed=args.seed, stream=700),
        record if args.trajectories else None,
    )
    d = spec.dimension
    endpoints_path = os.path.join(out_dir, "endpoints.csv")
    _write_csv(
        endpoints_path,
        ["run"] + [f"coord_{i}" for i in range(d)],
        ([r] + endpoints[r].tolist() for r in range(args.runs)),
    )
    eval_path = os.path.join(out_dir, "eval.json")
    _atomic_write(eval_path, report.to_json() + "\n")
    outputs = [endpoints_path, eval_path]
    if args.trajectories:
        traj_path = os.path.join(out_dir, "trajectory.csv")
        _write_csv(traj_path, ["k", "t"] + [f"coord_{i}" for i in range(d)], trajectory)
        outputs.append(traj_path)
    resolved = _resolved_config(args)
    if not args.oracle:
        resolved["objective"] = objective.value
    resolved["schedule_points"] = [float(t) for t in schedule.points]
    _write_manifest(out_dir, "sample", resolved, outputs)
    print(
        f"sampled {args.runs} endpoints (mode={args.mode}, N={args.N}, gamma={args.gamma}): "
        f"paired_mse={report.paired_mse:.6g} energy_distance={report.energy_distance:.6g}"
    )
    return EXIT_OK


def _ablate_cells(args) -> list[tuple[str, TrainConfig, Schedule]]:
    """(axis value, training configuration, sampling schedule) for each cell."""
    values = [v for v in args.values.split(",") if v != ""]
    if len(values) < 2:
        _usage_error("ablation needs at least 2 axis values")
    if args.runs < 2:
        _usage_error(f"ablation needs --runs >= 2, got {args.runs}")
    cells = []
    for value in values:
        objective, noise_scale = ObjectiveKind(args.objective), args.s
        n_steps, gamma = args.N, args.gamma
        if args.axis == "objective":
            objective = ObjectiveKind(value)
        elif args.axis == "noise_scale":
            noise_scale = float(value)
        elif args.axis == "steps":
            n_steps = int(value)
        else:
            gamma = float(value)
        cells.append((value, _train_config(args, objective, noise_scale), shifted(n_steps, gamma)))
    return cells


def cmd_ablate(args) -> int:
    spec = _usage_checked(_task_from_args, args)
    mconfig = _usage_checked(_model_config, args, spec)
    cells = _usage_checked(_ablate_cells, args)
    out_dir = _ensure_out_dir(args)
    provider = pair_provider(spec, zero_context=args.zero_context)

    header = [
        "axis",
        "value",
        "status",
        "paired_mse",
        "energy_distance",
        "mean_displacement_error",
        "sample_count",
        "final_loss",
        "max_target_sqnorm",
    ]
    rows: list[list] = []

    shared_model = None
    if args.axis in ("steps", "gamma"):
        # Sampling-time axes share one training configuration, so one trained
        # model serves all cells.
        shared_model = _train_once(args, spec, mconfig, cells[0][1])

    for value, config, cell_schedule in cells:
        try:
            params, stats = shared_model or _train_once(args, spec, mconfig, config)
            # a fresh evaluation stream per cell: identical pairs and noise
            # across cells, so rows are directly comparable
            _, report = evaluate(
                lambda batch: velocity_field_from(params, mconfig, config.objective, batch.context),
                provider,
                cell_schedule,
                args.mode,
                config.noise_scale,
                args.runs,
                RngStream(seed=args.seed, stream=800),
            )
            rows.append(
                [
                    args.axis,
                    value,
                    "ok",
                    report.paired_mse,
                    report.energy_distance,
                    report.mean_displacement_error,
                    report.sample_count,
                    stats.rows[-1].loss,
                    stats.max_target_sqnorm_overall,
                ]
            )
        except (TrainingError, IntegrationError, EvaluationError) as exc:
            rows.append([args.axis, value, f"error:{exc}", "", "", "", "", "", ""])

    summary_path = os.path.join(out_dir, f"ablate_{args.axis}.csv")
    _write_csv(summary_path, header, rows)
    _write_manifest(out_dir, "ablate", _resolved_config(args), [summary_path])
    print(f"wrote {summary_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_schedule_dump(args) -> int:
    _check_out_file(args)
    schedule = _usage_checked(shifted, args.N, args.gamma)
    out_dir = _ensure_out_dir(args)
    path = args.out or os.path.join(out_dir, "schedule.csv")
    _write_csv(
        path, ["i", "t"], [[i, float(t)] for i, t in enumerate(schedule.points)]
    )
    _write_manifest(out_dir, "schedule_dump", _resolved_config(args), [path])
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgelab",
        description="Brownian-bridge translation models: verify, profile, train, sample, ablate.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a statistical verification suite")
    p.add_argument("--suite", default="all", choices=list(SUITES))
    p.add_argument("--mc", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--override", action="append", help="tolerance override name=value")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile", help="loss-contribution profile S(t), C(t)")
    p.add_argument("--objective", default="stabilized_velocity", choices=[k.value for k in ObjectiveKind])
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--distance2", type=float, default=1.0, help="squared endpoint distance")
    p.add_argument("--s", type=float, default=1.0, help="noise scale")
    p.add_argument("--grid", default="0:0.999:1000", help="'start:stop:count' or comma list")
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo draws per point (0 = closed form)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train a velocity model on a synthetic task")
    _add_task_args(p)
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--debug", action="store_true", help="also write per-step alpha stats (debug.csv)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample endpoints and evaluate against ground truth")
    _add_task_args(p)
    field = p.add_mutually_exclusive_group()
    field.add_argument("--params", default=None, help="trained parameter container for this task")
    field.add_argument("--oracle", action="store_true", help="use the analytic conditional drift")
    p.add_argument("--zero-context", action="store_true")
    _add_sampler_args(p)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trajectories", action="store_true", help="also write run 0's path; its last row is row 0 of endpoints.csv")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ablate", help="train+evaluate along one axis")
    _add_task_args(p)
    _add_model_args(p)
    p.add_argument("--axis", required=True, choices=["objective", "noise_scale", "steps", "gamma"])
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_train_args(p)
    _add_sampler_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("schedule", help="schedule utilities")
    sched_sub = p.add_subparsers(dest="schedule_command", required=True)
    pd = sched_sub.add_parser("dump", help="emit the discretization grid as CSV")
    pd.add_argument("--N", type=int, required=True)
    pd.add_argument("--gamma", type=float, default=1.0)
    pd.add_argument("--out", default=None)
    pd.add_argument("--out-dir", default=None)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=cmd_schedule_dump)

    return parser


def _iter_parsers(parser: argparse.ArgumentParser):
    yield parser
    if parser._subparsers is not None:  # noqa: SLF001
        for group_action in parser._subparsers._group_actions:  # noqa: SLF001
            for sub in group_action.choices.values():
                yield from _iter_parsers(sub)


def _config_value(action: argparse.Action, value):
    """A --config value, read as the parser reads its flag's text; ValueError if it cannot be.

    A flag without an argument takes a JSON bool. Any other option takes a
    string or a number, a list becomes its comma-separated text (one item per
    use for a repeatable option), and each text goes through the option's
    ``type`` and ``choices``.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    repeated = isinstance(action, argparse._AppendAction)  # noqa: SLF001
    items = value if repeated and isinstance(value, list) else [value]
    converted = []
    for item in items:
        if isinstance(item, list) and not repeated:
            item = ",".join(map(str, item))
        if isinstance(item, (bool, list, dict)) or item is None:
            raise ValueError("expected a string, a number or a list")
        item = action.type(str(item)) if action.type is not None else str(item)
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"expected one of {', '.join(map(str, action.choices))}")
        converted.append(item)
    return converted if repeated else converted[0]


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Seed parser defaults from --config JSON so explicit flags keep precedence.

    Every key must name an option of some subcommand, and every value must
    be one its flag would accept; otherwise the run exits 2 before any output.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        _usage_error(f"cannot read --config {known.config}: {exc.strerror or exc}")
    except ValueError as exc:
        _usage_error(f"--config {known.config} is not a JSON file: {exc}")
    if not isinstance(loaded, dict):
        _usage_error(f"--config {known.config} must hold a JSON object")
    options = [
        (sub, action)
        for sub in _iter_parsers(parser)
        for action in sub._actions  # noqa: SLF001
        if action.option_strings and not isinstance(action, argparse._HelpAction)  # noqa: SLF001
    ]
    for key, value in loaded.items():
        dest = key.replace("-", "_")
        matches = [(sub, action) for sub, action in options if action.dest == dest]
        if not matches:
            _usage_error(f"--config {known.config}: no option is named {key}")
        for sub, action in matches:
            try:
                sub.set_defaults(**{dest: _config_value(action, value)})
            except ValueError as exc:
                _usage_error(f"--config {known.config}: bad value {value!r} for {key}: {exc}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IntegrationError, TrainingError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
