"""Acceptance suite: one test per criterion, each printing a pass line.

Statistical criteria run at frozen seeds (their tolerances are exact
3-sigma / fixed-percentage gates, verified to hold at these seeds with
margin); run `bridgelab verify --suite all` for seed-robust versions with
family-wise bounds.
"""

import json
import math
import os
import time

import numpy as np

from bridgelab.bridge import (
    EndpointPair,
    conditional_variance,
    interpolate,
    marginal_variance,
)
from bridgelab.bridge import sample_state
from bridgelab.cli import main
from bridgelab.model import (
    ModelConfig,
    backward,
    forward,
    init,
    input_rows,
    parameter_count,
    velocity_field_from,
)
from bridgelab.numerics import RngStream, gaussian
from bridgelab.objectives import (
    ObjectiveKind,
    alpha_factor,
    loss,
    objective_alpha_sq,
    raw_target,
)
from bridgelab.sampler import endpoint_statistics, integrate, oracle_field
from bridgelab.schedules import Schedule, shifted
from bridgelab.tasks import (
    TaskSpec,
    energy_distance,
    evaluate,
    generate_pairs,
    pair_provider,
)
from bridgelab.trainer import TrainConfig, step_blocks, train

from conftest import ABLATION_SEED

PAIR = EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_bridge_statistics():
    """Marginal mean within 3 sigma and variance within 3% at M=1e5."""
    started = time.perf_counter()
    mc = 10**5
    rng = RngStream(seed=0, stream=1)
    worst_var = 0.0
    for i, t in enumerate((0.1, 0.5, 0.9)):
        for j, s in enumerate((0.5, 1.0, 2.0)):
            eps = gaussian(rng.split(10 * i + j), (mc, 2))
            states = interpolate(PAIR, t) + s * math.sqrt(t * (1.0 - t)) * eps
            mean_bound = 3.0 * s * math.sqrt(t * (1.0 - t) / mc)
            mean_dev = float(np.max(np.abs(states.mean(axis=0) - interpolate(PAIR, t))))
            assert mean_dev < mean_bound
            var_dev = float(
                np.max(np.abs(states.var(axis=0, ddof=1) / marginal_variance(t, s) - 1.0))
            )
            assert var_dev < 0.03
            worst_var = max(worst_var, var_dev)
    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    report(1, f"bridge statistics (worst var dev {worst_var:.2%}, {elapsed:.2f}s)")


def test_criterion_02_conditional_variance():
    """The corrected sampler's step from t1 to t2 adds the bridge's conditional
    variance s^2 (t2-t1)(1-t2)/(1-t1), within 3% over 1e5 paths."""
    worst = 0.0
    field = oracle_field(PAIR.x1)
    for k, (t1, t2) in enumerate(((0.25, 0.5), (0.5, 0.75), (0.1, 0.9))):
        path = []
        integrate(
            np.broadcast_to(PAIR.x0, (10**5, 2)),
            field,
            Schedule([0.0, t1, t2, 1.0]),
            "corrected",
            1.0,
            RngStream(seed=0, stream=50 + k),
            lambda _, states: path.append(states),
        )
        _, states1, states2, _ = path
        residual = states2 - states1 - (t2 - t1) * field(states1, t1)
        dev = float(
            np.max(np.abs(residual.var(axis=0, ddof=1) / conditional_variance(t1, t2, 1.0) - 1.0))
        )
        assert dev < 0.03
        worst = max(worst, dev)
    report(2, f"conditional variance (worst dev {worst:.2%})")


def test_criterion_03_alpha_law():
    """E||u/alpha||^2 = ||x1-x0||^2 within 3 sigma at every grid point, and
    E||u||^2/||x1-x0||^2 matches alpha^2 within 3%."""
    dist_sq = float(np.sum((PAIR.x1 - PAIR.x0) ** 2))
    grid = np.concatenate([np.arange(0.05, 0.951, 0.05), [0.995]])
    draws = 25_000
    worst_z, worst_ratio = 0.0, 0.0
    for i, (t, alpha_sq) in enumerate(zip(grid.tolist(), alpha_factor(PAIR, grid, 1.0))):
        eps = gaussian(RngStream(seed=4, stream=60).split(i), (draws, 2))
        u = (PAIR.x1 - PAIR.x0) - math.sqrt(t / (1.0 - t)) * eps
        u_sqnorms = np.sum(u * u, axis=1)
        stabilized = u_sqnorms / alpha_sq
        se = float(np.std(stabilized, ddof=1)) / math.sqrt(draws)
        assert abs(float(np.mean(stabilized)) - dist_sq) < 3.0 * se
        worst_z = max(worst_z, abs(float(np.mean(stabilized)) - dist_sq) / (3.0 * se))
        ratio_dev = abs(float(np.mean(u_sqnorms)) / dist_sq / alpha_sq - 1.0)
        assert ratio_dev < 0.03
        worst_ratio = max(worst_ratio, ratio_dev)
    report(3, f"alpha law (worst z {3 * worst_z:.2f} sigma, worst ratio dev {worst_ratio:.2%})")


def test_criterion_04_profile_reproduction(tmp_path):
    """Profile CSVs give the divergent / early-dominated / balanced trichotomy."""
    values = {}
    for kind in ("velocity", "displacement", "stabilized_velocity"):
        out = str(tmp_path / kind)
        assert (
            main(
                [
                    "profile",
                    "--objective",
                    kind,
                    "--dim",
                    "1",
                    "--distance2",
                    "1",
                    "--s",
                    "1",
                    "--out-dir",
                    out,
                ]
            )
            == 0
        )
        with open(os.path.join(out, f"profile_{kind}.csv")) as fh:
            header = fh.readline().strip()
            assert header == "t,S,C"
            rows = [line.strip().split(",") for line in fh]
        values[kind] = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]

    c_velocity = min(values["velocity"], key=lambda r: abs(r[0] - 0.9))[2]
    assert abs(c_velocity - 1.0 / 3.0) <= 0.02
    c_displacement = min(values["displacement"], key=lambda r: abs(r[0] - 0.5))[2]
    assert abs(c_displacement - 0.751) <= 0.02
    worst_linear = max(abs(c - t / 0.999) for t, _s, c in values["stabilized_velocity"])
    assert worst_linear <= 0.01
    report(
        4,
        f"profiles (C_vel(0.9)={c_velocity:.4f}, C_disp(0.5)={c_displacement:.4f}, "
        f"stabilized linear dev {worst_linear:.1e})",
    )


def test_criterion_05_sampler_exactness():
    """Corrected mode lands on x1 with MSE <= 1e-20 across every (N, gamma, s);
    standard mode leaves endpoint variance s^2 dt_last within 5% at 1e4 runs."""
    started = time.perf_counter()
    worst_mse = 0.0
    for n in (1, 2, 4, 16, 64):
        for g in (1.0, 5.0):
            sch = shifted(n, g)
            for s in (0.0, 1.0, 2.0):
                stats = endpoint_statistics(
                    "corrected", oracle_field(PAIR.x1), PAIR, sch, s, 8, RngStream(seed=0, stream=n)
                )
                assert stats.mse <= 1e-20
                worst_mse = max(worst_mse, stats.mse)

    worst_var = 0.0
    for n in (1, 2, 4, 16, 64):
        for g in (1.0, 5.0):
            sch = shifted(n, g)
            for s in (1.0, 2.0):
                stats = endpoint_statistics(
                    "standard",
                    oracle_field(PAIR.x1),
                    PAIR,
                    sch,
                    s,
                    10**4,
                    RngStream(seed=0, stream=70 + n),
                )
                expected = s * s * float(sch.points[-1] - sch.points[-2])
                dev = abs(stats.variance / expected - 1.0)
                assert dev < 0.05
                worst_var = max(worst_var, dev)
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    report(
        5,
        f"sampler exactness (worst corrected MSE {worst_mse:.1e}, worst standard "
        f"var dev {worst_var:.2%}, {elapsed:.2f}s)",
    )


def test_criterion_06_gradient_correctness():
    """Full training-loss gradients match central differences at 1e-6 relative
    across the model matrix and all three loss kinds."""
    h = 1e-5
    checked = 0
    for input_dim in (1, 2, 8):
        for hidden in ((16,), (32, 32)):
            config = ModelConfig(input_dim=input_dim, hidden=hidden)
            rng = RngStream(seed=6, stream=input_dim * 10 + len(hidden))
            params = gaussian(rng, (parameter_count(config),)) * 0.3
            pair = EndpointPair(gaussian(rng, (1, input_dim)), gaussian(rng, (1, input_dim)))
            sample = sample_state(pair, 0.6, gaussian(rng, (1, input_dim)), 1.0)
            for kind in ObjectiveKind:
                targets = raw_target(kind, pair, sample)
                alpha_sq = objective_alpha_sq(kind, pair, sample.t, 1.0)

                rows = input_rows(config, sample.state, sample.t)

                def objective_value(theta):
                    pred = forward(theta, config, rows)
                    return float(np.mean(loss(pred, targets, alpha_sq)[0]))

                tape: list = []
                pred = forward(params, config, rows, tape=tape)
                grad_params = backward(params, config, rows, tape, loss(pred, targets, alpha_sq)[1])
                probes = np.unique(
                    (np.abs(gaussian(rng, (32,))) * params.size * 0.37).astype(int) % params.size
                )[:16]
                for idx in probes:
                    bumped = params.copy()
                    bumped[idx] += h
                    up = objective_value(bumped)
                    bumped[idx] -= 2 * h
                    down = objective_value(bumped)
                    fd = (up - down) / (2.0 * h)
                    denom = max(abs(fd), abs(float(grad_params[idx])), 1e-8)
                    assert abs(float(grad_params[idx]) - fd) / denom < 1e-6
                    checked += 1
    report(6, f"gradient correctness ({checked} probes across 6 architectures x 3 losses)")


def test_criterion_07_schedule_contract():
    """Boundaries exact, strictly increasing, non-decreasing steps, gamma=1
    bitwise uniform, over N up to 1e4 and gamma up to 100."""
    for n in (1, 2, 3, 7, 64, 1000, 10_000):
        for gamma in (1.0, 1.5, 2.0, 5.0, 100.0):
            sch = shifted(n, gamma)
            assert sch.points[0] == 0.0
            assert sch.points[-1] == 1.0
            diffs = np.diff(sch.points)
            assert np.all(diffs > 0.0)
            if gamma > 1.0:
                assert np.all(np.diff(diffs) >= 0.0)
        assert np.array_equal(shifted(n, 1.0).points, np.arange(n + 1) / n)
    report(7, "schedule contract (N up to 1e4, gamma up to 100)")


def test_criterion_08_objective_ablation(shift_task, trained_shift_models):
    """Desk-scale objective comparison: stabilized reaches <= 0.1x the
    source-target energy distance and no worse than raw velocity, whose
    targets blow past 1e3 squared magnitude."""
    models, build_seconds = trained_shift_models
    started = time.perf_counter()
    schedule = shifted(16, 1.0)
    eval_runs = 4096

    eval_pairs = generate_pairs(shift_task, eval_runs, RngStream(seed=ABLATION_SEED, stream=800).split(1))
    ed_baseline = energy_distance(eval_pairs.x0, eval_pairs.x1)

    ed = {}
    for objective, (params, mconfig, _stats) in models.items():
        _, report_obj = evaluate(
            lambda batch: velocity_field_from(params, mconfig, objective),
            pair_provider(shift_task),
            schedule,
            "corrected",
            1.0,
            eval_runs,
            RngStream(seed=ABLATION_SEED, stream=800),
        )
        ed[objective] = report_obj.energy_distance

    stabilized = ed[ObjectiveKind.STABILIZED_VELOCITY]
    velocity = ed[ObjectiveKind.VELOCITY]
    assert stabilized <= 0.1 * ed_baseline
    assert stabilized <= velocity

    velocity_stats = models[ObjectiveKind.VELOCITY][2]
    assert velocity_stats.max_target_sqnorm_overall > 1e3

    elapsed = build_seconds + (time.perf_counter() - started)
    assert elapsed <= 300.0
    report(
        8,
        f"objective ablation (ED stab {stabilized:.4f} <= min(0.1x{ed_baseline:.3f}, "
        f"vel {velocity:.4f}), max vel target sqnorm "
        f"{velocity_stats.max_target_sqnorm_overall:.3g}, {elapsed:.1f}s)",
    )


def test_criterion_09_noise_scale_sweep(tmp_path):
    """The s in {0, 0.5, 1, 2, 4} sweep completes into a summary CSV; the s=0
    run degenerates to rectified flow (alpha = 1, noise-independent path)."""
    out = str(tmp_path)
    code = main(
        [
            "ablate",
            "--axis",
            "noise_scale",
            "--values",
            "0,0.5,1,2,4",
            "--task",
            "gaussian_shift",
            "--steps",
            "400",
            "--runs",
            "512",
            "--seed",
            "9",
            "--out-dir",
            out,
        ]
    )
    assert code == 0
    with open(os.path.join(out, "ablate_noise_scale.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert [r["value"] for r in rows] == ["0", "0.5", "1", "2", "4"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["energy_distance"]) >= 0.0 for r in rows)

    # s=0 degeneration: every per-sample alpha is exactly 1 ...
    mconfig = ModelConfig(input_dim=2, hidden=(16,))
    task = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
    config = TrainConfig(objective="stabilized_velocity", noise_scale=0.0, steps=20, seed=9)
    blocks = step_blocks(pair_provider(task), config, mconfig)
    alphas = np.concatenate([alpha_sq for _, _, alpha_sq, _, _ in blocks])
    assert len(alphas) and all(a == 1.0 for a in alphas)
    params = init(mconfig, RngStream(seed=9, stream=900))
    params, _ = train(params, mconfig, pair_provider(task), config)

    # ... and the sampler path is noise-independent: different noise streams
    # produce identical endpoints.
    x0 = generate_pairs(task, 32, RngStream(seed=9, stream=801)).x0
    field = velocity_field_from(params, mconfig, config.objective)
    a = integrate(x0, field, shifted(8, 1.0), "corrected", 0.0, RngStream(seed=1, stream=1))
    b = integrate(x0, field, shifted(8, 1.0), "corrected", 0.0, RngStream(seed=2, stream=2))
    assert np.array_equal(a, b)
    report(9, "noise sweep (5/5 rows ok; s=0: alpha = 1, deterministic path)")


def test_criterion_10_determinism(tmp_path):
    """Rerunning verify/train/sample with identical seeds reproduces the
    numerical artifacts byte for byte (wall-clock fields excluded: the stats
    ms column and manifest timestamps record real time)."""

    def read_bytes(path):
        with open(path, "rb") as fh:
            return fh.read()

    def stats_without_ms(path):
        with open(path, "r", encoding="utf-8") as fh:
            return "\n".join(",".join(line.split(",")[:4]) for line in fh.read().splitlines())

    def manifest_without_timestamp(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("created_utc", None)
        data["config"].pop("out_dir", None)  # the two runs write to different dirs
        return json.dumps(data, sort_keys=True)

    for run in ("a", "b"):
        out = str(tmp_path / f"verify_{run}")
        main(["verify", "--suite", "all", "--mc", "20000", "--seed", "7", "--out-dir", out])
    assert read_bytes(str(tmp_path / "verify_a" / "verify_report.json")) == read_bytes(
        str(tmp_path / "verify_b" / "verify_report.json")
    )

    for run in ("a", "b"):
        out = str(tmp_path / f"train_{run}")
        assert (
            main(
                [
                    "train",
                    "--task",
                    "gaussian_shift",
                    "--steps",
                    "200",
                    "--seed",
                    "7",
                    "--out-dir",
                    out,
                ]
            )
            == 0
        )
    assert read_bytes(str(tmp_path / "train_a" / "params.bin")) == read_bytes(
        str(tmp_path / "train_b" / "params.bin")
    )
    assert stats_without_ms(str(tmp_path / "train_a" / "stats.csv")) == stats_without_ms(
        str(tmp_path / "train_b" / "stats.csv")
    )
    assert manifest_without_timestamp(
        str(tmp_path / "train_a" / "manifest.json")
    ) == manifest_without_timestamp(str(tmp_path / "train_b" / "manifest.json"))

    for run in ("a", "b"):
        out = str(tmp_path / f"sample_{run}")
        assert (
            main(
                [
                    "sample",
                    "--oracle",
                    "--N",
                    "8",
                    "--runs",
                    "256",
                    "--seed",
                    "7",
                    "--out-dir",
                    out,
                ]
            )
            == 0
        )
    for name in ("endpoints.csv", "eval.json"):
        assert read_bytes(str(tmp_path / "sample_a" / name)) == read_bytes(
            str(tmp_path / "sample_b" / name)
        )
    report(10, "determinism (verify/train/sample artifacts byte-identical)")
