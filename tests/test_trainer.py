"""Training loop: stream sharing, algorithm fidelity, convergence, instability."""

import hashlib
import math
import re
import threading
import time

import numpy as np
import pytest

from bridgelab.bridge import EndpointPair, interpolate
from bridgelab import model, trainer
from bridgelab.model import ModelConfig, init
from bridgelab.numerics import NumericalError, RngStream
from bridgelab.objectives import ObjectiveKind, alpha_factor
from bridgelab.tasks import TaskSpec, pair_provider
from bridgelab.trainer import OptimizerState, TrainConfig, step_blocks, train, train_step
from conftest import blas_thread_count, kernel_fingerprint

SHIFT_TASK = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))


def _configs(objective, steps, overrides):
    defaults = dict(noise_scale=1.0, batch_size=16, seed=7, log_every=50)
    defaults.update(overrides)
    config = TrainConfig(objective=objective, steps=steps, **defaults)
    return config, ModelConfig(input_dim=2, hidden=(16,))


def run_training(objective, steps=200, **overrides):
    config, mconfig = _configs(objective, steps, overrides)
    params = init(mconfig, RngStream(seed=config.seed, stream=900))
    return train(params, mconfig, pair_provider(SHIFT_TASK), config)


def training_blocks(objective, steps=200, **overrides):
    """The (pairs, sample, alpha^2, targets, rows) blocks that run_training reads."""
    config, mconfig = _configs(objective, steps, overrides)
    return list(step_blocks(pair_provider(SHIFT_TASK), config, mconfig))


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


MOONS_TASK = TaskSpec(name="moons_rotate", dimension=2, angle=0.7853981633974483)

# (task, steps, batch size, hidden widths) of each pinned run. "shift" and
# "moons" run 50 steps of 16 pairs. The next three are sized so that a trainer
# that builds the data of several steps at once must cross step-group
# boundaries: "shift_blocks" is 70 steps of 256 2-d pairs, "moons_blocks" 150
# steps of 128 pairs with context, and "grid" 3 steps of 400 48-d pairs.
# "shift_bench" is the CLI's default shift run, 1000 steps of 32 2-d pairs
# through (32, 32) hidden layers: several groups and a shorter tail.
PINNED_TASKS = {
    "shift": (SHIFT_TASK, 50, 16, (16, 16)),
    "moons": (MOONS_TASK, 50, 16, (16, 16)),
    "shift_blocks": (SHIFT_TASK, 70, 256, (16, 16)),
    "moons_blocks": (MOONS_TASK, 150, 128, (16, 16)),
    "grid": (TaskSpec(name="grid_colorize", dimension=48, grid_size=4), 3, 400, (16, 16)),
    "shift_bench": (SHIFT_TASK, 1000, 32, (32, 32)),
}

# SHA-256 of the trained parameters' bytes and the sample-stream digest of the
# run per (task, objective). The 50-step values were recorded with a training
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
    ("shift_blocks", "stabilized_velocity"): (
        "f421b2a74ae0aa3906a83d0a8ef7406a528026f99632d8669a0be40dee56d89e",
        "459ecfff5bd2ce319dd927a0b58a80e860f4b546fbf87f14cffc1236be6161f8",
    ),
    ("moons_blocks", "velocity"): (
        "112c9f3166e77921af7bddf3e34f55746e48d7a23eba0ddff33414762d99fe50",
        "823b3e757ffe768f7d0df365c7bc3527135dc96731798eaa90d0f0c40b1331ef",
    ),
    ("grid", "stabilized_velocity"): (
        "ee2f35c0aa1e9217e9f8342d04ae963f615457a923124bfd5408a05b66625a3e",
        "fa175c47bc4a4927b75300bf7bc8acb5906df76f5e5965d22563b0348f0fa6ac",
    ),
    ("shift_bench", "stabilized_velocity"): (
        "d86cdb917ebd638b4bb467691b554c2dfc45b68e841a6e9514fafd6ad854d853",
        "6ad719382e89f089a016ff67e18d7a8a9c0a19163ba4c349d6f12bc14a2a8d1c",
    ),
}


def pinned_inputs(task, objective="stabilized_velocity", **overrides):
    """(task spec, model config, train config, initial parameters) of a pinned run."""
    spec, steps, batch_size, hidden = PINNED_TASKS[task]
    mconfig = ModelConfig(input_dim=spec.dimension, hidden=hidden, context_dim=spec.context_dim)
    settings = {"objective": objective, "steps": steps, "batch_size": batch_size, "seed": 11}
    config = TrainConfig(**{**settings, **overrides})
    return spec, mconfig, config, init(mconfig, RngStream(seed=11, stream=900))


class TestPinnedRegression:
    @pytest.mark.parametrize("task,objective", sorted(PINNED_RUNS))
    def test_params_and_stream_digest_unchanged(self, task, objective):
        spec, mconfig, config, params = pinned_inputs(task, objective)
        params, stats = train(params, mconfig, pair_provider(spec), config)
        assert (hashlib.sha256(params.tobytes()).hexdigest(), stats.sample_stream_digest) == (
            PINNED_RUNS[task, objective]
        ), kernel_fingerprint()


class TestOverlappedDataHalf:
    """Where blocks are one step and the network is small, ``train`` builds
    each next block on a worker thread: the results, and the order in which
    steps and errors happen, are those of the sequential loop."""

    def test_which_runs_overlap(self, refused_worker):
        """One step of ``train`` asks ``numerics.worker_pays`` once. Of the
        pinned runs only grid's blocks are one step (400 56-wide rows, more
        than 2^13 input-row values), through 1920 multiply-adds per 106 values
        handed over a row. Rows are (D, hidden, B): grid8 at B = 64 has 12,800
        input-row values, so one-step blocks. Against the old rule of at most
        2^25 multiply-adds a step, five rows changed answer: 128x128 at
        B = 1024 (169 multiply-adds a handed-over value), 32x32 at B = 4096
        (34), 256x256 at B = 256 (421) and 448x448 at B = 128 (955) now run
        ahead, and D = 2 128x128 at B = 1024 (1280) no longer does."""
        overlapped = set()
        for task in PINNED_TASKS:
            spec, mconfig, config, params = pinned_inputs(task, steps=1)
            refused_worker.clear()
            train(params, mconfig, pair_provider(spec), config)
            if refused_worker == [True]:
                overlapped.add(task)
        assert overlapped == {"grid"}
        rows = {
            (192, (128, 128), 128): True,  # grid8's train
            (192, (128, 128), 64): True,
            (192, (1024, 1024), 1024): False,
            (192, (128, 128), 1024): True,  # was False
            (192, (32, 32), 4096): True,  # was False
            (192, (256, 256), 256): True,  # was False
            (192, (448, 448), 128): True,  # was False
            (192, (384, 384), 96): True,
            (2, (128, 128), 1024): False,  # was True
        }
        for (dim, hidden, batch), overlaps in rows.items():
            mconfig = ModelConfig(input_dim=dim, hidden=hidden)
            pairs = EndpointPair(np.zeros((batch, dim)), np.ones((batch, dim)))
            refused_worker.clear()
            config = TrainConfig(steps=1, batch_size=batch)
            train(init(mconfig, RngStream(seed=1)), mconfig, lambda b, rng: pairs, config)
            assert refused_worker == [overlaps], (dim, hidden, batch)

    @pytest.mark.parametrize("task", ["grid", "shift_blocks"])
    def test_train_equals_the_sequential_loop(self, task):
        """Bit for bit in one process, so on any CPU kernel: parameters, logged
        rows, the largest target and the stream digest. Only the overlapped run
        calls its provider off the calling thread."""
        spec, mconfig, config, params = pinned_inputs(task, log_every=1)
        callers = set()
        provider = pair_provider(spec)

        def recorded(batch_size, rng):
            callers.add(threading.get_ident())
            return provider(batch_size, rng)

        trained, stats = train(params, mconfig, recorded, config)
        assert (threading.get_ident() in callers) == (task != "grid")

        opt_state, digest = OptimizerState(config.optimizer), hashlib.sha256()
        rows_seen, losses, largest = 0, [], 0.0
        for pair, sample, alpha_sq, targets, rows in step_blocks(pair_provider(spec), config, mconfig):
            digest.update(np.concatenate([pair.x0, pair.x1, sample.t[:, None], sample.epsilon], axis=1))
            largest = max(largest, float(np.max(np.sum(targets * targets, axis=-1))))
            for lo in range(0, len(rows), config.batch_size):
                step = slice(lo, lo + config.batch_size)
                rows_seen += 1
                params, batch_loss, _ = train_step(
                    params, mconfig, opt_state, rows[step], targets[step], alpha_sq[step], config, rows_seen
                )
                losses.append(batch_loss)
        assert np.array_equal(trained, params)
        assert [r.loss for r in stats.rows] == losses
        assert stats.max_target_sqnorm_overall == largest
        assert stats.sample_stream_digest == digest.hexdigest()

    @pytest.mark.parametrize("fault", ["wrong-size", "raised"])
    def test_provider_error_arrives_after_the_steps_before_it(self, monkeypatch, fault):
        """The 4th batch fails. Steps are slowed, so the worker, two blocks
        ahead, fails while step 2 runs; the caller still gets the error after
        exactly 3 steps."""
        spec, mconfig, config, params = pinned_inputs("grid", steps=6)
        provider, calls, steps_run = pair_provider(spec), [], []
        error = ValueError("no 4th batch")

        def failing(batch_size, rng):
            calls.append(None)
            if len(calls) < 4:
                return provider(batch_size, rng)
            if fault == "raised":
                raise error
            return provider(batch_size - 1, rng)

        def slow_step(*args):
            steps_run.append(None)
            time.sleep(0.02)
            return train_step(*args)

        monkeypatch.setattr(trainer, "train_step", slow_step)
        message = "^(no 4th batch|provider returned 399 pairs for a batch of 400)$"
        with pytest.raises(ValueError, match=message) as caught:
            train(params, mconfig, failing, config)
        assert len(steps_run) == 3
        assert fault == "wrong-size" or caught.value is error

    def test_numerical_error_stops_the_worker(self, monkeypatch):
        """A learning rate that blows up at step 18 of 30: the error reaches the
        caller, no thread is left, and OpenBLAS, held to one thread while the
        steps ran, is back at its count from before."""
        spec, mconfig, config, params = pinned_inputs(
            "grid", objective="velocity", steps=30, learning_rate=1e8, optimizer="sgd"
        )
        counts = []

        def counted_step(*args):
            counts.append(blas_thread_count())
            return train_step(*args)

        monkeypatch.setattr(trainer, "train_step", counted_step)
        before_count, before_threads = blas_thread_count(), set(threading.enumerate())
        with pytest.raises(NumericalError, match="^non-finite loss at step 18$"):
            train(params, mconfig, pair_provider(spec), config)
        assert set(threading.enumerate()) == before_threads
        if before_count is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        assert blas_thread_count() == before_count
        assert counts == [1] * 18


class TestAlgorithmFidelity:
    def test_observed_samples_satisfy_state_invariant(self):
        """Every constructed state equals interpolation + s sqrt(t(1-t)) eps
        for the drawn eps, the recorded alpha matches the normalization
        module, and the target is the conditional drift of that state."""
        seen = [
            (
                EndpointPair(batch.x0[i : i + 1], batch.x1[i : i + 1]),
                float(sample.t[i]),
                sample.epsilon[i : i + 1].copy(),
                sample.state[i : i + 1].copy(),
                float(alpha_sq[i]),
                targets[i : i + 1].copy(),
            )
            for batch, sample, alpha_sq, targets, _ in training_blocks(
                ObjectiveKind.STABILIZED_VELOCITY, steps=5
            )
            for i in range(len(batch))
        ]
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
        kind, overrides = ObjectiveKind.STABILIZED_VELOCITY, dict(steps=1, log_every=1)
        [(_, _, alpha_sq, targets, _)] = training_blocks(kind, **overrides)
        seen = [float(np.sum(target * target)) / a for target, a in zip(targets, alpha_sq)]
        _, stats = run_training(kind, **overrides)
        assert stats.rows[0].loss == pytest.approx(float(np.mean(seen)), rel=1e-12)

    def test_zero_noise_scale_alpha_identically_one(self):
        blocks = training_blocks(ObjectiveKind.STABILIZED_VELOCITY, steps=20, noise_scale=0.0)
        alphas = np.concatenate([alpha_sq for _, _, alpha_sq, _, _ in blocks])
        assert len(alphas) == 20 * 16 and np.all(alphas == 1.0)

    def test_blocks_hold_whole_steps(self):
        """130 steps of 32 pairs with 10-wide input rows run in blocks of 51,
        51 and 28 steps; each yielded array holds a block's rows."""
        blocks = training_blocks(ObjectiveKind.STABILIZED_VELOCITY, steps=130, batch_size=32)
        sizes = [
            (len(batch), len(sample.t), len(sample.state), len(alpha_sq), len(targets), len(rows))
            for batch, sample, alpha_sq, targets, rows in blocks
        ]
        assert sizes == [(1632,) * 6, (1632,) * 6, (896,) * 6]

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
        for _, sample, _, targets, _ in training_blocks(
            ObjectiveKind.DISPLACEMENT, steps=2000, batch_size=32
        ):
            for t, target in zip(sample.t, targets):
                if t > 0.9:
                    buckets["late"].append(float(np.sum(target * target)))
                elif t < 0.1:
                    buckets["early"].append(float(np.sum(target * target)))

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
        with pytest.raises(NumericalError, match="^non-finite .* at step [1-9][0-9]*$"):
            train(params, mconfig, pair_provider(SHIFT_TASK), config)


    def test_non_finite_update_raises_with_step_and_objective(self):
        """An update that overflows the parameters aborts at its own step,
        so no non-finite parameters are returned."""
        config = TrainConfig(steps=3, batch_size=4, learning_rate=1e308, optimizer="sgd", seed=1)
        mconfig = ModelConfig(input_dim=2, hidden=(4,))
        params = init(mconfig, RngStream(seed=1, stream=900))
        with pytest.raises(NumericalError, match="^non-finite parameters after the update at step 1$"):
            train(params, mconfig, pair_provider(SHIFT_TASK), config)


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
        with pytest.raises(ValueError, match="learning_rate must be >= 0"):
            TrainConfig(learning_rate=-1.0)
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize(
        "name,value", [("steps", 2.5), ("batch_size", 2.0), ("batch_size", True), ("log_every", 1.5)]
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64])
    def test_seed_checked_at_construction(self, seed):
        """A seed that is no Philox key word is rejected here, not at the first draw."""
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\^64\), got {seed!r}$"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_learning_rate_must_be_a_real_number(self, value):
        """A bool trained at rate 1, and a string raised TypeError."""
        with pytest.raises(ValueError, match=f"^learning_rate must be a real number, got {value!r}$"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [[1.0], None, True, "1"], ids=["list", "None", "bool", "str"])
    def test_noise_scale_must_be_a_real_number(self, value):
        """A list or None raised TypeError, which the CLI does not map, and a
        bool or a string trained at s = 1."""
        message = rf"^noise scale must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(noise_scale=value)

    def test_checked_reals_are_stored_as_floats(self):
        """The manifest records the float that was checked, not the value given."""
        config = TrainConfig(noise_scale=np.float16(1), learning_rate=np.float32(0.5), seed=np.uint64(3))
        assert config.to_dict() == {**TrainConfig().to_dict(), "noise_scale": 1.0, "learning_rate": 0.5, "seed": 3}
        assert [type(v) for v in (config.noise_scale, config.learning_rate, config.seed)] == [float, float, int]

    def test_numpy_integer_counts_become_ints(self):
        config = TrainConfig(steps=np.int64(3), batch_size=np.int32(4), log_every=np.uint8(1))
        assert [type(v) for v in (config.steps, config.batch_size, config.log_every)] == [int] * 3

    def test_provider_batch_of_wrong_size_rejected(self):
        """A provider batch that is not batch_size pairs is an error, not a
        silently smaller step."""
        provider = pair_provider(SHIFT_TASK)
        short = lambda batch_size, rng: provider(batch_size - 1, rng)
        mconfig = ModelConfig(input_dim=2, hidden=(4,))
        params = init(mconfig, RngStream(seed=1, stream=900))
        with pytest.raises(ValueError, match="7 pairs for a batch of 8"):
            train(params, mconfig, short, TrainConfig(steps=3, batch_size=8, seed=1))

    def test_objective_coerced_from_string(self):
        config = TrainConfig(objective="velocity")
        assert config.objective is ObjectiveKind.VELOCITY
