"""Training loop: stream sharing, algorithm fidelity, convergence, instability."""

import hashlib
import math

import numpy as np
import pytest

from bridgelab.bridge import EndpointPair, interpolate
from bridgelab.errors import TrainingError
from bridgelab import model
from bridgelab.model import ModelConfig, init
from bridgelab.numerics import RngStream, squared_norm
from bridgelab.objectives import ObjectiveKind, alpha_factor
from bridgelab.tasks import TaskSpec, pair_provider
from bridgelab.trainer import TrainConfig, train

SHIFT_TASK = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))


def run_training(objective, steps=200, observer=None, **overrides):
    defaults = dict(noise_scale=1.0, batch_size=16, seed=7, log_every=50)
    defaults.update(overrides)
    config = TrainConfig(objective=objective, steps=steps, **defaults)
    mconfig = ModelConfig(input_dim=2, hidden=(16,))
    params = init(mconfig, RngStream(seed=config.seed, stream=900))
    return train(params, mconfig, pair_provider(SHIFT_TASK), config, observer=observer)


class TestDeterminism:
    def test_identical_runs_bitwise_identical(self):
        _, stats_a = run_training(ObjectiveKind.STABILIZED_VELOCITY)
        params_b, stats_b = run_training(ObjectiveKind.STABILIZED_VELOCITY)
        params_a, _ = run_training(ObjectiveKind.STABILIZED_VELOCITY)
        assert np.array_equal(params_a, params_b)
        assert [r.loss for r in stats_a.rows] == [r.loss for r in stats_b.rows]
        assert stats_a.sample_stream_digest == stats_b.sample_stream_digest

    def test_objectives_consume_identical_sample_streams(self):
        """Differences between objective runs are attributable to the target
        alone: the (pair, t, eps) stream digests coincide."""
        digests = set()
        for objective in ObjectiveKind:
            _, stats = run_training(objective)
            digests.add(stats.sample_stream_digest)
        assert len(digests) == 1


# SHA-256 of the trained parameters' bytes and the sample-stream digest of a
# 50-step run per (task, objective). The values were recorded with a training
# loop that handled one pair at a time; the batched step must keep every bit.
PINNED_RUNS = {
    ("shift", "displacement"): (
        "cb284281743cf9e879b2782d3f0147ca9bdaf28530f53eb81a72c10fa582dc54",
        "548e239c66ae3da88bf2af33cf7b73ed46c24909b9f24b1a13b6af0302e4671a",
    ),
    ("shift", "velocity"): (
        "1bd78edb77b25044be31f6dfc9d8308ed39821c6099ae88b28aeb57e563c7918",
        "548e239c66ae3da88bf2af33cf7b73ed46c24909b9f24b1a13b6af0302e4671a",
    ),
    ("shift", "stabilized_velocity"): (
        "c880a3619001fc01e53ef6a5488dfa897ff7a7b7ca2d93ce441abdec19947f26",
        "548e239c66ae3da88bf2af33cf7b73ed46c24909b9f24b1a13b6af0302e4671a",
    ),
    ("moons", "displacement"): (
        "6fbd27cb0257b0a8b03263e432837f12a71f9b31475d93c6076d9c31b464929c",
        "5866adb8311ca8c06305e78c73ef3abc433f10f8685e66699ac14287fe00d1a6",
    ),
    ("moons", "velocity"): (
        "a749b604d59449224ec018c96a3b01a51e0de89ab948d84c779f97123d866a2b",
        "5866adb8311ca8c06305e78c73ef3abc433f10f8685e66699ac14287fe00d1a6",
    ),
    ("moons", "stabilized_velocity"): (
        "e16467d341108ad8bc1c60eac0ad7507da65d1e73cc5f54e8f61c079158ee2de",
        "5866adb8311ca8c06305e78c73ef3abc433f10f8685e66699ac14287fe00d1a6",
    ),
}


class TestPinnedRegression:
    @pytest.mark.parametrize("task,objective", sorted(PINNED_RUNS))
    def test_params_and_stream_digest_unchanged(self, task, objective):
        spec = {
            "shift": SHIFT_TASK,
            "moons": TaskSpec(name="moons_rotate", dimension=2, angle=0.7853981633974483),
        }[task]
        mconfig = ModelConfig(input_dim=2, hidden=(16, 16), context_dim=spec.context_dim)
        config = TrainConfig(objective=objective, steps=50, batch_size=16, seed=11)
        params = init(mconfig, RngStream(seed=11, stream=900))
        params, stats = train(params, mconfig, pair_provider(spec), config)
        assert (hashlib.sha256(params.tobytes()).hexdigest(), stats.sample_stream_digest) == (
            PINNED_RUNS[task, objective]
        )


class TestAlgorithmFidelity:
    def test_observed_samples_satisfy_state_invariant(self):
        """Every constructed state equals interpolation + s sqrt(t(1-t)) eps
        for the drawn eps, the recorded alpha matches the normalization
        module, and the target is the conditional drift of that state."""
        seen = []
        observer = lambda step, batch, sample, alpha_sq, targets: seen.extend(
            (
                EndpointPair(batch.x0[i : i + 1], batch.x1[i : i + 1]),
                float(sample.t[i]),
                sample.epsilon[i : i + 1].copy(),
                sample.state[i : i + 1].copy(),
                float(alpha_sq[i]),
                targets[i : i + 1].copy(),
            )
            for i in range(len(batch))
        )
        run_training(ObjectiveKind.STABILIZED_VELOCITY, steps=5, observer=observer)
        assert len(seen) == 5 * 16
        for pair, t, eps, state, alpha_sq, target in seen:
            rebuilt = interpolate(pair, t) + math.sqrt(t * (1.0 - t)) * eps
            np.testing.assert_array_equal(rebuilt, state)
            assert alpha_sq == alpha_factor(pair, t, 1.0)
            np.testing.assert_allclose(
                target, (pair.x1 - state) / (1.0 - t), rtol=1e-12, atol=1e-12
            )

    def test_first_step_loss_is_mean_stabilized_sqnorm(self):
        """Zero-initialized model: first batch loss = mean ||u/alpha||^2."""
        seen = []
        observer = lambda step, batch, sample, alpha_sq, targets: seen.extend(
            squared_norm(target) / a for target, a in zip(targets, alpha_sq)
        )
        _, stats = run_training(
            ObjectiveKind.STABILIZED_VELOCITY, steps=1, log_every=1, observer=observer
        )
        assert stats.rows[0].loss == pytest.approx(float(np.mean(seen)), rel=1e-12)

    def test_zero_noise_scale_alpha_identically_one(self):
        alphas = []
        observer = lambda step, batch, sample, alpha_sq, targets: alphas.extend(alpha_sq)
        run_training(ObjectiveKind.STABILIZED_VELOCITY, steps=20, noise_scale=0.0, observer=observer)
        assert alphas and all(a == 1.0 for a in alphas)

    def test_network_runs_once_per_step(self, monkeypatch):
        """The gradient reuses the step's forward pass: with two hidden layers,
        3 steps activate 6 times (a second pass for the gradient would make 12)."""
        calls = []
        activate = model._activate

        def counted(z, kind):
            calls.append(kind)
            return activate(z, kind)

        monkeypatch.setattr(model, "_activate", counted)
        mconfig = ModelConfig(input_dim=2, hidden=(8, 8))
        params = init(mconfig, RngStream(seed=1, stream=900))
        train(params, mconfig, pair_provider(SHIFT_TASK), TrainConfig(steps=3, batch_size=4, seed=1))
        assert len(calls) == 6


class TestConvergence:
    def test_linear_model_convex_case(self):
        """s=0 reduces to least squares onto the constant shift; plain
        gradient descent reaches loss < 1e-4 well within 500 steps."""
        mconfig = ModelConfig(input_dim=2, hidden=(), time_features=2)
        config = TrainConfig(
            objective=ObjectiveKind.STABILIZED_VELOCITY,
            noise_scale=0.0,
            steps=500,
            batch_size=32,
            learning_rate=0.1,
            optimizer="sgd",
            seed=7,
            log_every=100,
        )
        params = init(mconfig, RngStream(seed=7, stream=900))
        params, stats = train(params, mconfig, pair_provider(SHIFT_TASK), config)
        assert stats.rows[-1].loss < 1e-4

    def test_monotone_ish_convergence(self):
        """Convex toy: loss(2k) <= 1.05 * loss(k) for k in {250, 500, 1000}."""
        mconfig = ModelConfig(input_dim=2, hidden=(), time_features=2)
        config = TrainConfig(
            objective=ObjectiveKind.STABILIZED_VELOCITY,
            noise_scale=0.0,
            steps=2000,
            batch_size=32,
            learning_rate=0.1,
            optimizer="sgd",
            seed=7,
            log_every=50,
        )
        params = init(mconfig, RngStream(seed=7, stream=900))
        _, stats = train(params, mconfig, pair_provider(SHIFT_TASK), config)
        by_step = {r.step: r.loss for r in stats.rows}
        for k in (250, 500, 1000):
            assert by_step[2 * k] <= 1.05 * by_step[k]

    def test_stabilized_run_all_logged_losses_finite(self):
        _, stats = run_training(ObjectiveKind.STABILIZED_VELOCITY, steps=2000, batch_size=32)
        assert all(np.isfinite(r.loss) for r in stats.rows)


class TestInstabilityEvidence:
    def test_velocity_targets_hit_extreme_magnitudes(self):
        """Raw velocity targets exceed ~1e4 * D over a 2000-step run: the
        uniform time draws reach the clamp boundary where the target scale is
        t/(1-t) ~ 1e5 (statistical bound at 99% confidence, frozen seed)."""
        _, stats = run_training(ObjectiveKind.VELOCITY, steps=2000, batch_size=32)
        assert stats.max_target_sqnorm_overall > 1e4 * SHIFT_TASK.dimension

    def test_displacement_targets_shrink_near_t_one(self):
        """Mean squared displacement magnitude above t=0.9 is under 20% of the
        mean below t=0.1: late times contribute almost nothing to the loss."""
        buckets = {"early": [], "late": []}

        def observer(step, batch, sample, alpha_sq, targets):
            for t, target in zip(sample.t, targets):
                if t > 0.9:
                    buckets["late"].append(squared_norm(target))
                elif t < 0.1:
                    buckets["early"].append(squared_norm(target))

        run_training(ObjectiveKind.DISPLACEMENT, steps=2000, batch_size=32, observer=observer)
        assert buckets["early"] and buckets["late"]
        assert np.mean(buckets["late"]) < 0.2 * np.mean(buckets["early"])

    def test_non_finite_loss_raises_with_step_and_objective(self):
        """A divergent learning rate aborts loudly instead of logging NaNs."""
        mconfig = ModelConfig(input_dim=2, hidden=(), time_features=2)
        config = TrainConfig(
            objective=ObjectiveKind.VELOCITY,
            noise_scale=1.0,
            steps=2000,
            batch_size=4,
            learning_rate=5.0,
            optimizer="sgd",
            seed=3,
        )
        params = init(mconfig, RngStream(seed=3, stream=900))
        with pytest.raises(TrainingError) as err:
            train(params, mconfig, pair_provider(SHIFT_TASK), config)
        assert err.value.step_index >= 1
        assert err.value.objective == "velocity"


class TestOtherTasks:
    @pytest.mark.parametrize(
        "spec",
        [
            TaskSpec(name="signal_refine", dimension=16, repeat=4),
            TaskSpec(name="grid_colorize", dimension=48, grid_size=4),
        ],
        ids=["signal_refine", "grid_colorize"],
    )
    def test_short_runs_stay_finite(self, spec):
        mconfig = ModelConfig(input_dim=spec.dimension, hidden=(16,))
        config = TrainConfig(objective="stabilized_velocity", steps=50, batch_size=8, seed=5)
        params = init(mconfig, RngStream(seed=5, stream=900))
        params, stats = train(params, mconfig, pair_provider(spec), config)
        assert all(np.isfinite(r.loss) for r in stats.rows)
        assert np.all(np.isfinite(params))


class TestConfigValidation:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(log_every=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="prodigy")
        with pytest.raises(ValueError):
            TrainConfig(noise_scale=-1.0)

    def test_objective_coerced_from_string(self):
        config = TrainConfig(objective="velocity")
        assert config.objective is ObjectiveKind.VELOCITY
