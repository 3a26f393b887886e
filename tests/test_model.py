"""Velocity network: forward, exact reverse-mode gradients, serialization."""

import numpy as np
import pytest
from scipy.special import expit

from bridgelab.model import (
    ModelConfig,
    _activate_grad,
    _views,
    forward,
    init,
    linearize,
    load_parameters,
    parameter_count,
    save_parameters,
    time_feature_matrix,
    velocity_field_from,
)
from bridgelab.numerics import RngStream, gaussian
from bridgelab.objectives import ObjectiveKind


def random_params(config: ModelConfig, seed: int) -> np.ndarray:
    """Dense random parameters (unlike init, the output layer is nonzero)."""
    return gaussian(RngStream(seed=seed), (parameter_count(config),)) * 0.3


class TestForward:
    def test_zero_init_predicts_zero_everywhere(self):
        config = ModelConfig(input_dim=3, hidden=(16,))
        params = init(config, RngStream(seed=1))
        for t in (0.0, 0.5, 0.99):
            out = forward(params, config, gaussian(RngStream(seed=2), (1, 3)), t)
            np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_output_shape_matches_input(self):
        config = ModelConfig(input_dim=4, hidden=(8, 8))
        params = random_params(config, 3)
        single = forward(params, config, np.ones((1, 4)), 0.3)
        batch = forward(params, config, np.ones((5, 4)), 0.3)
        assert single.shape == (1, 4)
        assert batch.shape == (5, 4)

    def test_time_sensitivity(self):
        """Nonzero random parameters distinguish t=0 from t=0.9."""
        config = ModelConfig(input_dim=2, hidden=(16,))
        params = random_params(config, 4)
        x = np.array([[0.4, -0.2]])
        assert not np.allclose(forward(params, config, x, 0.0), forward(params, config, x, 0.9))

    def test_batched_matches_single(self):
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 5)
        xs = gaussian(RngStream(seed=6), (4, 2))
        ts = np.array([0.1, 0.4, 0.7, 0.9])
        batch = forward(params, config, xs, ts)
        for i in range(4):
            row = forward(params, config, xs[i : i + 1], ts[i])
            np.testing.assert_allclose(batch[i : i + 1], row, rtol=1e-12)

    def test_hidden_unit_permutation_symmetry(self):
        """Swapping two identical hidden units leaves the output unchanged."""
        config = ModelConfig(input_dim=2, hidden=(4,))
        params = random_params(config, 7).copy()
        (w0, b0), (w1, _) = _views(params, config)
        # make unit 1 a clone of unit 0 (incoming and outgoing weights, bias)
        w0[:, 1] = w0[:, 0]
        b0[1] = b0[0]
        w1[1, :] = w1[0, :]
        x = np.array([[0.3, 0.8]])
        base = forward(params, config, x, 0.5)
        swapped = params.copy()
        (sw0, sb0), (sw1, _) = _views(swapped, config)
        sw0[:, [0, 1]] = sw0[:, [1, 0]]
        sb0[[0, 1]] = sb0[[1, 0]]
        sw1[[0, 1], :] = sw1[[1, 0], :]
        np.testing.assert_allclose(forward(swapped, config, x, 0.5), base, rtol=1e-12)

    def test_context_required_when_configured(self):
        config = ModelConfig(input_dim=2, hidden=(8,), context_dim=2)
        params = random_params(config, 8)
        with pytest.raises(ValueError):
            forward(params, config, np.zeros((1, 2)), 0.5)
        out = forward(params, config, np.zeros((1, 2)), 0.5, context=np.array([[1.0, -1.0]]))
        assert out.shape == (1, 2)

    def test_shape_mismatch_rejected(self):
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 9)
        with pytest.raises(ValueError):
            forward(params, config, np.zeros((1, 3)), 0.5)
        with pytest.raises(ValueError, match=r"not a \(B, 2\) batch"):
            forward(params, config, np.zeros(2), 0.5)
        with pytest.raises(ValueError, match=r"time shape \(3,\) is neither"):
            forward(params, config, np.zeros((2, 2)), np.array([0.1, 0.2, 0.3]))


class TestTimeFeatures:
    def test_shape_and_range(self):
        feats = time_feature_matrix(np.array([0.0, 0.5, 1.0]), 8)
        assert feats.shape == (3, 8)
        assert np.all(np.abs(feats) <= 1.0)
        np.testing.assert_array_equal(time_feature_matrix(0.5, 8), feats[1])

    def test_even_count_required(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=2, time_features=7)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            {"input_dim": 2.0},
            {"input_dim": True},
            {"context_dim": 0.0},
            {"context_dim": False},
            {"time_features": 8.0},
            {"hidden": (2.5,)},
            {"hidden": (4.0,)},
            {"hidden": (True,)},
            {"hidden": ("4",)},
        ],
    )
    def test_integer_fields_reject_non_integers(self, fields):
        with pytest.raises(ValueError, match="must be an integer"):
            ModelConfig(**{"input_dim": 2, **fields})

    def test_numpy_integers_become_ints(self, tmp_path):
        """Integer fields are stored as int, so the parameter header stays JSON."""
        config = ModelConfig(input_dim=np.int64(2), hidden=[np.int32(4)], context_dim=np.int8(1))
        assert config == ModelConfig(input_dim=2, hidden=(4,), context_dim=1)
        assert all(type(v) is int for v in (config.input_dim, config.context_dim, *config.hidden))
        path = str(tmp_path / "params.bin")
        save_parameters(path, config, init(config, RngStream(seed=1)), "velocity")
        assert load_parameters(path)[0] == config


class TestBackward:
    @pytest.mark.parametrize("hidden", [(16,), (32, 32)])
    @pytest.mark.parametrize("input_dim", [1, 2, 8])
    @pytest.mark.parametrize("activation", ["tanh", "smooth_relu"])
    def test_gradients_match_central_differences(self, input_dim, hidden, activation):
        """Reverse-mode grads agree with finite differences at 1e-6 relative
        on 64 randomly probed parameters."""
        config = ModelConfig(input_dim=input_dim, hidden=hidden, activation=activation)
        params = random_params(config, 11)
        rng = RngStream(seed=12)
        x = gaussian(rng, (1, input_dim))
        upstream = gaussian(rng, (1, input_dim))
        t = 0.37
        prediction, pullback = linearize(params, config, x, t)
        np.testing.assert_array_equal(prediction, forward(params, config, x, t))
        grad_params, grad_x = pullback(upstream)

        probe_idx = np.unique(
            (np.abs(gaussian(rng, (96,))) * params.size * 0.13).astype(int) % params.size
        )[:64]
        h = 1e-5
        for idx in probe_idx:
            bumped = params.copy()
            bumped[idx] += h
            up = float(np.sum(forward(bumped, config, x, t) * upstream))
            bumped[idx] -= 2 * h
            down = float(np.sum(forward(bumped, config, x, t) * upstream))
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(float(grad_params[idx])), 1e-8)
            assert abs(float(grad_params[idx]) - fd) / denom < 1e-6

        for i in range(input_dim):
            bumped = x.copy()
            bumped[0, i] += h
            up = float(np.sum(forward(params, config, bumped, t) * upstream))
            bumped[0, i] -= 2 * h
            down = float(np.sum(forward(params, config, bumped, t) * upstream))
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(float(grad_x[0, i])), 1e-8)
            assert abs(float(grad_x[0, i]) - fd) / denom < 1e-6

    def test_zero_upstream_zero_gradients(self):
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 13)
        pullback = linearize(params, config, np.ones((1, 2)), 0.5)[1]
        grad_params, grad_x = pullback(np.zeros((1, 2)))
        assert np.array_equal(grad_params, np.zeros_like(params))
        assert np.array_equal(grad_x, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="does not match states"):
            pullback(np.zeros(2))

    def test_linearity_in_upstream(self):
        """pullback(a+b) = pullback(a) + pullback(b) within 1e-12."""
        config = ModelConfig(input_dim=3, hidden=(8,))
        params = random_params(config, 14)
        rng = RngStream(seed=15)
        x = gaussian(rng, (1, 3))
        a, b = gaussian(rng, (1, 3)), gaussian(rng, (1, 3))
        _, pullback = linearize(params, config, x, 0.4)
        ga, _ = pullback(a)
        gb, _ = pullback(b)
        gab, _ = pullback(a + b)
        np.testing.assert_allclose(gab, ga + gb, atol=1e-12)

    def test_batched_gradient_sums_over_batch(self):
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 16)
        xs = gaussian(RngStream(seed=17), (3, 2))
        ups = gaussian(RngStream(seed=18), (3, 2))
        ts = np.array([0.2, 0.5, 0.8])
        batch_grad, _ = linearize(params, config, xs, ts)[1](ups)
        total = np.zeros_like(params)
        for i in range(3):
            gi, _ = linearize(params, config, xs[i : i + 1], ts[i])[1](ups[i : i + 1])
            total += gi
        np.testing.assert_allclose(batch_grad, total, rtol=1e-10, atol=1e-12)


class TestActivationGradient:
    def test_smooth_relu_gradient_is_logistic_sigmoid(self):
        """The tanh form of the sigmoid matches scipy's expit and never overflows."""
        z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), np.linspace(-40.0, 40.0, 80_001)])
        h = np.logaddexp(0.0, z)
        with np.errstate(all="raise"):
            grad = _activate_grad(z, h, "smooth_relu")
        np.testing.assert_allclose(grad, expit(z), rtol=0.0, atol=4.5e-16)


class TestInit:
    def test_same_seed_identical(self):
        config = ModelConfig(input_dim=2, hidden=(16, 16))
        a = init(config, RngStream(seed=20))
        b = init(config, RngStream(seed=20))
        assert np.array_equal(a, b)

    def test_hidden_layers_nonzero_output_zero(self):
        config = ModelConfig(input_dim=2, hidden=(16,))
        params = init(config, RngStream(seed=21))
        (w0, _), (w1, _) = _views(params, config)
        assert np.any(w0 != 0.0)
        assert np.all(w1 == 0.0)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        config = ModelConfig(input_dim=3, hidden=(8, 4), context_dim=2, activation="smooth_relu")
        params = random_params(config, 22)
        path = str(tmp_path / "params.bin")
        save_parameters(path, config, params, "displacement")
        loaded_config, loaded, objective = load_parameters(path)
        assert loaded_config == config
        assert np.array_equal(loaded, params)
        assert objective is ObjectiveKind.DISPLACEMENT

    def test_round_trip_forward_identical(self, tmp_path):
        config = ModelConfig(input_dim=2, hidden=(16,))
        params = random_params(config, 23)
        path = str(tmp_path / "params.bin")
        save_parameters(path, config, params, ObjectiveKind.VELOCITY)
        _, loaded, _ = load_parameters(path)
        x = gaussian(RngStream(seed=24), (1, 2))
        assert np.array_equal(forward(params, config, x, 0.7), forward(loaded, config, x, 0.7))

    def test_rejects_foreign_file(self, tmp_path):
        path = str(tmp_path / "bogus.bin")
        with open(path, "wb") as fh:
            fh.write(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_parameters(path)


class TestVelocityFieldAdapter:
    def test_displacement_output_rescaled(self):
        """Displacement-trained nets are divided by (1-t) to yield velocity."""
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 25)
        x = np.array([[0.2, -0.5]])
        t = 0.75
        raw = forward(params, config, x, t)
        field = velocity_field_from(params, config, "displacement")
        np.testing.assert_allclose(field(x, t), raw / (1.0 - t), rtol=1e-14)

    def test_velocity_objectives_pass_through(self):
        config = ModelConfig(input_dim=2, hidden=(8,))
        params = random_params(config, 26)
        x = np.array([[0.2, -0.5]])
        for objective in ("velocity", "stabilized_velocity"):
            field = velocity_field_from(params, config, objective)
            np.testing.assert_array_equal(field(x, 0.4), forward(params, config, x, 0.4))

    def test_context_is_one_row_per_run(self):
        """A (B, C) context conditions run i by row i; a shared (C,) vector is rejected."""
        config = ModelConfig(input_dim=2, hidden=(8,), context_dim=1)
        params = random_params(config, 27)
        states = np.array([[0.2, -0.5], [1.0, 0.3]])
        rows = velocity_field_from(params, config, "velocity", np.array([[0.7], [-0.7]]))
        np.testing.assert_allclose(
            rows(states, 0.4)[1:],
            forward(params, config, states[1:], 0.4, np.array([[-0.7]])),
            rtol=1e-14,
        )
        shared = velocity_field_from(params, config, "velocity", np.array([0.7]))
        with pytest.raises(ValueError, match=r"context shape \(1,\) is not \(2, 1\)"):
            shared(states, 0.4)
