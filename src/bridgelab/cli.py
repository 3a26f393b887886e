"""Command-line surface: verify, profile, train, sample, ablate, schedule dump.

Every artifact-producing command computes first and then writes through one
run record, which puts its outputs in one directory and then, only on
success, a ``manifest.json`` holding the resolved configuration, seed,
library version, output paths and a timestamp. Two fields hold wall-clock
time: the ``ms`` column of ``stats.csv`` and the manifest's ``created_utc``.
Every other byte of every artifact is deterministic given the seed (for
outputs of a trained network, on the same CPU kernels; see README).
Configuration precedence is CLI flags > JSON config file > built-in
defaults, and the resolved union is echoed into the manifest.

Exit codes: 0 success, 1 check or assertion failure, 2 usage error,
3 numerical failure. ``main`` alone maps exceptions to codes: a ValueError
(which the library raises for any input it rejects) or a MemoryError (numpy's
refusal of a size no address space holds) is a usage error, and a
NumericalError is a numerical failure.
The out dir is made at a command's first write, so exits 2 and 3 raised
while it computes leave nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bridge import EndpointPair
from .model import (
    ACTIVATIONS,
    ModelConfig,
    atomic_open,
    init,
    load_parameters,
    save_parameters,
    velocity_field_from,
)
from .numerics import NumericalError, RngStream
from .objectives import ObjectiveKind, target_profile
from .sampler import oracle_field
from .schedules import Schedule, shifted
from .tasks import TASK_NAMES, EvalReport, TaskSpec, evaluate, pair_provider
from .trainer import OPTIMIZERS, TrainConfig, _block_steps, step_blocks, train
from .verify import SUITES, report_to_json, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# small deterministic writers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``rows``, any iterable of lists, one line at a time."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


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


class _Run:
    """One command's outputs: hands out and registers each output's path,
    making the out dir at the first, and ``close`` writes ``manifest.json`` last.

    The out dir is --out-dir, else '.'. A command asks for its first path only
    once it has computed everything, so a run that fails before then leaves no
    out dir, and one that fails later leaves its outputs but no manifest. An
    out dir that cannot be made is a ValueError, raised at that first path.
    """

    def __init__(self, args, command: str):
        self.args, self.command, self.names = args, command, []
        self.dir = args.out_dir or "."

    def path(self, name: str) -> str:
        """Where output ``name`` goes in the out dir."""
        if not self.names:
            try:
                os.makedirs(self.dir, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"cannot make output directory {self.dir}: {exc.strerror or exc}")
        self.names.append(name)
        return os.path.join(self.dir, name)

    def csv(self, name: str, header: list[str], rows) -> str:
        path = self.path(name)
        _write_csv(path, header, rows)
        return path

    def text(self, name: str, text: str) -> None:
        _atomic_write(self.path(name), text)

    def close(self, **extra_config) -> None:
        """Write the manifest: the resolved configuration, with ``extra_config``
        (values the run computed) added, and the outputs' names in the out dir."""
        config = {**_resolved_config(self.args), **extra_config}
        manifest = {
            "command": self.command,
            "config": config,
            "seed": config.get("seed"),
            "version": __version__,
            "outputs": sorted(self.names),
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        _atomic_write(os.path.join(self.dir, "manifest.json"), text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v != "")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: either 'start:stop:count' or a comma-separated list."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            return np.linspace(float(start), float(stop), int(count))
        return np.array(_parse_floats(text))
    except ValueError as exc:
        raise ValueError(f"bad --grid {text!r}, expected 'start:stop:count' or a comma list: {exc}")


def _parse_overrides(items: list[str] | None) -> dict:
    overrides = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        try:
            bound = float(value)
        except ValueError:
            bound = math.nan
        if not sep or math.isnan(bound):
            raise ValueError(f"bad override {item!r}, expected name=number")
        overrides[name] = bound
    return overrides


def _add_task_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="gaussian_shift", choices=TASK_NAMES)
    p.add_argument("--dim", type=int, default=2, help="task dimension (gaussian_shift, signal_refine)")
    p.add_argument("--shift", type=_parse_floats, default=(2.0, 0.0), help="shift vector, comma separated")
    p.add_argument("--angle", type=float, default=0.7853981633974483, help="rotation angle (moons_rotate)")
    p.add_argument("--grid-size", type=int, default=4, help="grid side (grid_colorize)")
    p.add_argument("--repeat", type=int, default=4, help="repeat factor k (signal_refine)")
    p.add_argument("--task-seed", type=int, default=0)


def _task_from_args(args) -> TaskSpec:
    if args.task == "gaussian_shift":
        return TaskSpec(name="gaussian_shift", dimension=args.dim, shift=args.shift, seed=args.task_seed)
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
    p.add_argument("--activation", default="tanh", choices=ACTIVATIONS)
    p.add_argument("--zero-context", action="store_true", help="train/evaluate with conditioning zeroed")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", default="stabilized_velocity", choices=[k.value for k in ObjectiveKind])
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=OPTIMIZERS)
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
    overrides = _parse_overrides(args.override)
    report = run_suite(args.suite, args.seed, args.mc, overrides)
    if args.out_dir is not None:
        run = _Run(args, "verify")
        run.text("verify_report.json", report_to_json(report))
        run.close()
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['suite']}.{check['name']}: measured={check['measured']:.6g} bound={check['bound']:.6g}")
    print(f"{'PASS' if report['passed'] else 'FAIL'} suite={args.suite} checks={len(report['checks'])}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_profile(args) -> int:
    d = args.dim
    if d < 1 or not (math.isfinite(args.distance2) and args.distance2 >= 0.0):
        raise ValueError("profile needs --dim >= 1 and a finite --distance2 >= 0")
    x1 = np.full((1, d), np.sqrt(args.distance2 / d))
    pair = EndpointPair(np.zeros((1, d)), x1)
    kind = ObjectiveKind(args.objective)
    grid = _parse_grid(args.grid)
    s_values, c_values = target_profile(kind, pair, args.s, grid)
    t_values = grid.tolist()
    run = _Run(args, "profile")
    csv_path = run.csv(
        f"profile_{kind.value}.csv", ["t", "S", "C"], zip(t_values, s_values.tolist(), c_values.tolist())
    )
    if args.svg:
        _write_svg(
            run.path(f"profile_{kind.value}.svg"),
            {
                "S(t)": list(zip(t_values, s_values.tolist())),
                "C(t)": list(zip(t_values, c_values.tolist())),
            },
            f"target contributions: {kind.value}",
        )
    run.close()
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


def _train_once(args, spec: TaskSpec, mconfig: ModelConfig, config: TrainConfig):
    params = init(mconfig, RngStream(seed=args.seed, stream=900))
    provider = pair_provider(spec, zero_context=args.zero_context)
    return train(params, mconfig, provider, config)


def cmd_train(args) -> int:
    spec = _task_from_args(args)
    mconfig = _model_config(args, spec)
    config = _train_config(args, args.objective, args.s)
    run = _Run(args, "train")
    params, stats = _train_once(args, spec, mconfig, config)
    if args.debug:  # the draws depend on no parameters, so a second pass replays them
        provider = pair_provider(spec, zero_context=args.zero_context)
        blocks = step_blocks(provider, config, _block_steps(config, mconfig))
        alpha_sq = np.concatenate([block[2] for block in blocks]).reshape(config.steps, -1)
    params_path = run.path("params.bin")
    save_parameters(params_path, mconfig, params, config.objective)
    run.csv(
        "stats.csv",
        ["step", "loss", "max_target_sqnorm", "grad_norm", "ms"],
        ([r.step, r.loss, r.max_target_sqnorm, r.grad_norm, r.ms] for r in stats.rows),
    )
    if args.debug:
        run.csv(
            "debug.csv",
            ["step", "mean_alpha_sq", "max_alpha_sq"],
            ([k, float(np.mean(a)), float(np.max(a))] for k, a in enumerate(alpha_sq, 1)),
        )
    run.close(train_config=config.to_dict(), sample_stream_digest=stats.sample_stream_digest)
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
        raise ValueError(f"cannot read --params {args.params}: {exc.strerror or exc}")
    if (mconfig.input_dim, mconfig.context_dim) != (spec.dimension, spec.context_dim):
        raise ValueError(
            f"--params {args.params} holds a model of input_dim {mconfig.input_dim} and "
            f"context_dim {mconfig.context_dim}, but task {spec.name} has dimension "
            f"{spec.dimension} and context_dim {spec.context_dim}"
        )
    return mconfig, params, objective


def cmd_sample(args) -> int:
    spec = _task_from_args(args)
    schedule = shifted(args.N, args.gamma)
    if args.oracle == (args.params is not None):
        raise ValueError("sample needs exactly one of --oracle and --params FILE")
    if args.oracle:
        make_field = lambda batch: oracle_field(batch.x1)  # noqa: E731
    else:
        mconfig, params, objective = _load_trained(args, spec)
        make_field = lambda batch: velocity_field_from(  # noqa: E731
            params, mconfig, objective, batch.context
        )
    run = _Run(args, "sample")
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
    coords = [f"coord_{i}" for i in range(spec.dimension)]
    run.csv("endpoints.csv", ["run"] + coords, ([r] + endpoints[r].tolist() for r in range(args.runs)))
    run.text("eval.json", report.to_json() + "\n")
    if args.trajectories:
        run.csv("trajectory.csv", ["k", "t"] + coords, trajectory)
    extra = {} if args.oracle else {"objective": objective.value}
    run.close(schedule_points=[float(t) for t in schedule.points], **extra)
    print(
        f"sampled {args.runs} endpoints (mode={args.mode}, N={args.N}, gamma={args.gamma}): "
        f"paired_mse={report.paired_mse:.6g} energy_distance={report.energy_distance:.6g}"
    )
    return EXIT_OK


def _ablate_cells(args) -> list[tuple[str, TrainConfig, Schedule]]:
    """(axis value, training configuration, sampling schedule) for each cell."""
    values = [v for v in args.values.split(",") if v != ""]
    if len(values) < 2:
        raise ValueError("ablation needs at least 2 axis values")
    if args.runs < 2:
        raise ValueError(f"ablation needs --runs >= 2, got {args.runs}")
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
    spec = _task_from_args(args)
    mconfig = _model_config(args, spec)
    cells = _ablate_cells(args)
    run = _Run(args, "ablate")
    provider = pair_provider(spec, zero_context=args.zero_context)

    scores = [field.name for field in dataclasses.fields(EvalReport)]
    header = ["axis", "value", "status", *scores, "final_loss", "max_target_sqnorm"]
    rows: list[list] = []

    # A cell whose training configuration equals that of the last model
    # trained (so every cell of a sampling-time axis) reuses that model.
    # Training runs inside a cell, so a training failure is an error row
    # there; a failed training is not kept, so a later cell with its
    # configuration retrains and fails the same way.
    trained = None  # (config, (params, stats)) of the last training that succeeded
    for value, config, cell_schedule in cells:
        try:
            if trained is None or trained[0] != config:
                trained = config, _train_once(args, spec, mconfig, config)
            params, stats = trained[1]
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
                    *report.to_dict().values(),
                    stats.rows[-1].loss,
                    stats.max_target_sqnorm_overall,
                ]
            )
        except NumericalError as exc:
            rows.append([args.axis, value, f"error:{exc}"] + [""] * (len(header) - 3))

    summary_path = run.csv(f"ablate_{args.axis}.csv", header, rows)
    run.close()
    print(f"wrote {summary_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_schedule_dump(args) -> int:
    schedule = shifted(args.N, args.gamma)
    run = _Run(args, "schedule_dump")
    path = run.csv("schedule.csv", ["i", "t"], [[i, float(t)] for i, t in enumerate(schedule.points)])
    run.close()
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgelab",
        description="Brownian-bridge translation models: verify, profile, train, sample, ablate.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--config", action=_ConfigFile, default=None,
        help="JSON config file, given before the subcommand (flags override it)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a statistical verification suite", allow_abbrev=False)
    p.add_argument("--suite", default="all", choices=list(SUITES))
    p.add_argument("--mc", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--override", action="append", help="tolerance override name=value")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile", help="loss-contribution profile S(t), C(t)", allow_abbrev=False)
    p.add_argument("--objective", default="stabilized_velocity", choices=[k.value for k in ObjectiveKind])
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--distance2", type=float, default=1.0, help="squared endpoint distance")
    p.add_argument("--s", type=float, default=1.0, help="noise scale")
    p.add_argument("--grid", default="0:0.999:1000", help="'start:stop:count' or comma list")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train a velocity model on a synthetic task", allow_abbrev=False)
    _add_task_args(p)
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--debug", action="store_true", help="also write per-step alpha stats (debug.csv)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "sample", help="sample endpoints and evaluate against ground truth", allow_abbrev=False
    )
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

    p = sub.add_parser("ablate", help="train+evaluate along one axis", allow_abbrev=False)
    _add_task_args(p)
    _add_model_args(p)
    p.add_argument("--axis", required=True, choices=["objective", "noise_scale", "steps", "gamma"])
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_train_args(p)
    _add_sampler_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("schedule", help="schedule utilities", allow_abbrev=False)
    sched_sub = p.add_subparsers(dest="schedule_command", required=True)
    pd = sched_sub.add_parser("dump", help="emit the discretization grid as CSV", allow_abbrev=False)
    pd.add_argument("--N", type=int, required=True)
    pd.add_argument("--gamma", type=float, default=1.0)
    pd.add_argument("--out-dir", default=None)
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


class _ConfigFile(argparse.Action):
    """``--config FILE`` seeds every parser's defaults from the JSON object in
    FILE, so explicit flags keep precedence. Only the top-level parser takes
    it, and argparse runs it before the subcommand's parser reads its flags.

    Every key must name an option of some subcommand, and every value must
    be one its flag would accept; otherwise it raises ValueError.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        setattr(namespace, self.dest, path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --config {path}: {exc.strerror or exc}")
        except ValueError as exc:
            raise ValueError(f"--config {path} is not a JSON file: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {path} must hold a JSON object")
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
                raise ValueError(f"--config {path}: no option is named {key}")
            for sub, action in matches:
                try:
                    sub.set_defaults(**{dest: _config_value(action, value)})
                except ValueError as exc:
                    raise ValueError(f"--config {path}: bad value {value!r} for {key}: {exc}")
                action.required = False  # the file's value stands in for the flag


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
