"""Training targets, the normalization law, and loss-contribution profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab.bridge import T_CLAMP, EndpointPair, sample_state, velocity_target
from bridgelab.numerics import RngStream, gaussian
from bridgelab.objectives import (
    ObjectiveKind,
    alpha_factor,
    default_profile_grid,
    expected_target_sqnorm,
    loss,
    objective_alpha_sq,
    raw_target,
    target_profile,
)


def objective_loss(kind, pred, pair, sample, s):
    """The objective's loss with its targets and alpha^2 taken as train_step takes them."""
    return loss(pred, raw_target(kind, pair, sample), objective_alpha_sq(kind, pair, sample.t, s))


@pytest.fixture()
def pair2d():
    return EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))


class TestAlphaFactor:
    def test_one_at_t_zero(self, pair2d):
        for s in (0.0, 0.5, 1.0, 4.0):
            assert alpha_factor(pair2d, 0.0, s) == 1.0

    def test_one_for_zero_noise_scale(self, pair2d):
        for t in (0.0, 0.3, 0.9):
            assert alpha_factor(pair2d, t, 0.0) == 1.0

    def test_unit_case(self, unit_pair):
        assert alpha_factor(unit_pair, 0.5, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_substitution_with_scale_two(self):
        pair = EndpointPair(np.zeros((1, 4)), np.array([[2.0, 0.0, 0.0, 0.0]]))
        assert alpha_factor(pair, 0.5, 2.0) == pytest.approx(5.0, rel=1e-14)

    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bad_noise_scale_rejected(self, pair2d, s):
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            alpha_factor(pair2d, 0.5, s)

    def test_identical_endpoints_floored_not_rejected(self):
        pair = EndpointPair(np.ones((1, 3)), np.ones((1, 3)))
        (alpha_sq,) = alpha_factor(pair, 0.5, 1.0)
        assert math.isfinite(alpha_sq)
        assert alpha_sq >= 1.0

    def test_rejects_clamped_time(self, pair2d):
        with pytest.raises(ValueError, match="alpha factor requires 0 <= t <= "):
            alpha_factor(pair2d, 1.0, 1.0)

    @given(
        t1=st.floats(0.0, 0.99),
        t2=st.floats(0.0, 0.99),
        s1=st.floats(0.0, 4.0),
        s2=st.floats(0.0, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_time_and_scale(self, t1, t2, s1, s2):
        """alpha^2 never decreases when t or s grows, and never drops below 1."""
        pair = EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))
        lo_t, hi_t = sorted((t1, t2))
        lo_s, hi_s = sorted((s1, s2))
        assert alpha_factor(pair, lo_t, 1.0) <= alpha_factor(pair, hi_t, 1.0)
        assert alpha_factor(pair, 0.5, lo_s) <= alpha_factor(pair, 0.5, hi_s)
        assert alpha_factor(pair, lo_t, lo_s) >= 1.0

    def test_monte_carlo_normalization_law(self, pair2d):
        """E||u/alpha||^2 is constant in t and equals ||x1-x0||^2 (3-sigma)."""
        dist_sq = float(np.sum((pair2d.x1 - pair2d.x0) ** 2))
        rng = RngStream(seed=21)
        draws = 10**4
        for i, t in enumerate(np.linspace(0.05, 0.995, 12)):
            t = float(t)
            eps = gaussian(rng.split(i), (draws, 2))
            u = (pair2d.x1 - pair2d.x0) - math.sqrt(t / (1.0 - t)) * eps
            stab = np.sum(u * u, axis=1) / alpha_factor(pair2d, t, 1.0)
            se = float(np.std(stab, ddof=1)) / math.sqrt(draws)
            assert abs(float(np.mean(stab)) - dist_sq) < 3.0 * se


class TestLoss:
    def test_zero_at_exact_target(self, pair2d):
        sample = sample_state(pair2d, 0.4, np.array([[0.5, -1.0]]), 1.0)
        for kind in ObjectiveKind:
            target = (
                pair2d.x1 - sample.state
                if kind is ObjectiveKind.DISPLACEMENT
                else velocity_target(pair2d, sample)
            )
            assert objective_loss(kind, target, pair2d, sample, 1.0)[0] == 0.0

    def test_stabilized_substitution(self, unit_pair):
        """pred=0 against u=0.8 with alpha^2=2 gives 0.64/2 = 0.32."""
        sample = sample_state(unit_pair, 0.5, np.array([[0.2]]), 1.0)
        pred = np.array([[0.0]])
        value, _ = objective_loss(ObjectiveKind.STABILIZED_VELOCITY, pred, unit_pair, sample, 1.0)
        assert value == pytest.approx(0.32, rel=1e-12)

    def test_stabilized_is_velocity_over_alpha_squared(self, pair2d):
        sample = sample_state(pair2d, 0.7, np.array([[0.3, 0.9]]), 1.5)
        pred = np.array([[0.1, -0.4]])
        v_loss, _ = objective_loss(ObjectiveKind.VELOCITY, pred, pair2d, sample, 1.5)
        s_loss, _ = objective_loss(ObjectiveKind.STABILIZED_VELOCITY, pred, pair2d, sample, 1.5)
        alpha_sq = alpha_factor(pair2d, 0.7, 1.5)
        assert s_loss == pytest.approx(v_loss / alpha_sq, rel=1e-12)

    def test_positive_when_prediction_differs(self, pair2d):
        sample = sample_state(pair2d, 0.4, np.array([[0.5, -1.0]]), 1.0)
        target = velocity_target(pair2d, sample)
        assert objective_loss(ObjectiveKind.VELOCITY, target + 1e-9, pair2d, sample, 1.0)[0] > 0.0

    def test_shape_mismatch(self, pair2d):
        sample = sample_state(pair2d, 0.4, np.array([[0.5, -1.0]]), 1.0)
        with pytest.raises(ValueError):
            objective_loss(ObjectiveKind.VELOCITY, np.zeros((1, 3)), pair2d, sample, 1.0)
        with pytest.raises(ValueError, match=r"\(2,\) is not the targets' \(B, D\) shape"):
            loss(np.zeros(2), np.zeros(2), 1.0)

    def test_alpha_sq_only_for_stabilized(self, pair2d):
        batch = EndpointPair(np.tile(pair2d.x0, (3, 1)), np.tile(pair2d.x1, (3, 1)))
        t = np.array([0.0, 0.5, 0.9])
        for kind in (ObjectiveKind.DISPLACEMENT, ObjectiveKind.VELOCITY):
            np.testing.assert_array_equal(objective_alpha_sq(kind, batch, t, 1.5), np.ones(3))
            assert objective_alpha_sq(kind, pair2d, 0.5, 1.5) == 1.0
        stabilized = objective_alpha_sq(ObjectiveKind.STABILIZED_VELOCITY, batch, t, 1.5)
        np.testing.assert_array_equal(stabilized, alpha_factor(batch, t, 1.5))
        assert objective_alpha_sq(ObjectiveKind.STABILIZED_VELOCITY, pair2d, 0.5, 1.5) == (
            alpha_factor(pair2d, 0.5, 1.5)
        )


class TestLossGradient:
    def test_zero_at_target(self, pair2d):
        sample = sample_state(pair2d, 0.3, np.array([[0.2, 0.1]]), 1.0)
        target = velocity_target(pair2d, sample)
        _, grad = objective_loss(ObjectiveKind.VELOCITY, target, pair2d, sample, 1.0)
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_central_difference_oracle(self):
        """Analytic gradient matches central differences at 1e-6 relative."""
        rng = RngStream(seed=5)
        pair = EndpointPair(gaussian(rng, (1, 8)), gaussian(rng, (1, 8)))
        sample = sample_state(pair, 0.6, gaussian(rng, (1, 8)), 1.0)
        pred = gaussian(rng, (1, 8))
        h = 1e-5
        for kind in ObjectiveKind:
            _, grad = objective_loss(kind, pred, pair, sample, 1.0)
            for i in range(8):
                bump = np.zeros((1, 8))
                bump[0, i] = h
                fd = (
                    objective_loss(kind, pred + bump, pair, sample, 1.0)[0][0]
                    - objective_loss(kind, pred - bump, pair, sample, 1.0)[0][0]
                ) / (2.0 * h)
                denom = max(abs(fd), abs(float(grad[0, i])), 1e-10)
                assert abs(float(grad[0, i]) - fd) / denom < 1e-6

    def test_stabilized_is_velocity_over_alpha_squared(self, pair2d):
        sample = sample_state(pair2d, 0.8, np.array([[1.1, -0.2]]), 2.0)
        pred = np.array([[0.5, 0.5]])
        _, g_v = objective_loss(ObjectiveKind.VELOCITY, pred, pair2d, sample, 2.0)
        _, g_s = objective_loss(ObjectiveKind.STABILIZED_VELOCITY, pred, pair2d, sample, 2.0)
        alpha_sq = alpha_factor(pair2d, 0.8, 2.0)
        np.testing.assert_allclose(g_s, g_v / alpha_sq, rtol=1e-12)


class TestBatchedMatchesPerPair:
    @given(
        data=st.data(),
        b=st.integers(1, 8),
        d=st.integers(1, 5),
        s=st.floats(0.0, 3.0),
        kind=st.sampled_from(list(ObjectiveKind)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_single_pair_calls_bitwise(self, data, b, d, s, kind, seed):
        """A (B, D) batch gives, row for row, the bits of the (1, D) calls at
        that row's time; the gradient is 2 (pred - target) (1/alpha^2) / B
        from those rows."""
        t = np.array(data.draw(st.lists(st.floats(0.0, 1.0 - T_CLAMP), min_size=b, max_size=b)))
        coincide = data.draw(st.lists(st.booleans(), min_size=b, max_size=b))
        rng = RngStream(seed=seed)
        x0 = gaussian(rng, (b, d))
        x1 = np.where(np.array(coincide)[:, None], x0, gaussian(rng, (b, d)))
        eps = gaussian(rng, (b, d))
        pred = gaussian(rng, (b, d))
        batch = EndpointPair(x0, x1)
        assert len(batch) == b and batch.dimension == d

        sample = sample_state(batch, t, eps, s)
        targets = raw_target(kind, batch, sample)
        alphas = alpha_factor(batch, t, s)
        losses, grad = objective_loss(kind, pred, batch, sample, s)
        assert alphas.shape == losses.shape == (b,)
        for i in range(b):
            rows = slice(i, i + 1)
            pair = EndpointPair(x0[rows], x1[rows])
            row = sample_state(pair, t[i], eps[rows], s)
            target = raw_target(kind, pair, row)
            (alpha_sq,) = alpha_factor(pair, t[i], s)
            np.testing.assert_array_equal(sample.state[rows], row.state)
            np.testing.assert_array_equal(targets[rows], target)
            assert alphas[i] == alpha_sq
            assert losses[rows] == objective_loss(kind, pred[rows], pair, row, s)[0]
            weight = 1.0 / alpha_sq if kind is ObjectiveKind.STABILIZED_VELOCITY else 1.0
            np.testing.assert_array_equal(grad[rows], 2.0 * (pred[rows] - target) * (weight / b))

    def test_single_pair_has_length_one(self, pair2d):
        assert len(pair2d) == 1
        assert alpha_factor(pair2d, 0.5, 1.0).shape == (1,)


class TestClosedFormProfiles:
    def test_velocity_sqnorm(self, unit_pair):
        """S(t) = 1/(1-t) for unit distance, one dimension, unit scale."""
        for t in (0.0, 0.5, 0.9):
            assert expected_target_sqnorm(
                ObjectiveKind.VELOCITY, unit_pair, 1.0, t
            ) == pytest.approx(1.0 / (1.0 - t), rel=1e-12)

    def test_displacement_sqnorm(self, unit_pair):
        """S(t) = (1-t) for unit distance, one dimension, unit scale."""
        for t in (0.0, 0.5, 0.9):
            assert expected_target_sqnorm(
                ObjectiveKind.DISPLACEMENT, unit_pair, 1.0, t
            ) == pytest.approx(1.0 - t, rel=1e-12)

    def test_stabilized_sqnorm_constant(self, pair2d):
        dist_sq = float(np.sum((pair2d.x1 - pair2d.x0) ** 2))
        for t in (0.0, 0.3, 0.9, 0.99):
            assert expected_target_sqnorm(
                ObjectiveKind.STABILIZED_VELOCITY, pair2d, 1.7, t
            ) == pytest.approx(dist_sq, rel=1e-12)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_time_one_rejected(self, unit_pair, kind):
        with pytest.raises(ValueError, match="profile time must be in"):
            expected_target_sqnorm(kind, unit_pair, 1.0, 1.0)

    def test_velocity_divergence_bound(self, pair2d):
        """S_v(t)/S_v(0) >= 0.5/(1-t) on t >= 0.5 when D s^2 >= ||x1-x0||^2."""
        dist_sq = float(np.sum((pair2d.x1 - pair2d.x0) ** 2))
        s = math.sqrt(dist_sq / pair2d.dimension) + 0.1
        s0 = expected_target_sqnorm(ObjectiveKind.VELOCITY, pair2d, s, 0.0)
        for t in np.linspace(0.5, 0.99, 25):
            ratio = expected_target_sqnorm(ObjectiveKind.VELOCITY, pair2d, s, float(t)) / s0
            assert ratio >= 0.5 / (1.0 - float(t))

    def test_displacement_vanishing_bound(self, pair2d):
        """S_d(t) <= (1-t) (||x1-x0||^2 + s^2 D) for all t."""
        dist_sq = float(np.sum((pair2d.x1 - pair2d.x0) ** 2))
        s = 1.3
        for t in np.linspace(0.0, 0.99, 50):
            value = expected_target_sqnorm(ObjectiveKind.DISPLACEMENT, pair2d, s, float(t))
            assert value <= (1.0 - float(t)) * (dist_sq + s * s * pair2d.dimension) + 1e-12


class TestTargetProfile:
    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_bad_noise_scale_rejected(self, pair2d, s, kind):
        """Closed-form S(t) and its profile check s as Monte-Carlo draws do."""
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            expected_target_sqnorm(kind, pair2d, s, 0.5)
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            target_profile(kind, pair2d, s, default_profile_grid(10))

    def test_stabilized_cumulative_is_linear(self, unit_pair):
        grid = default_profile_grid(500)
        s_values, c_values = target_profile(ObjectiveKind.STABILIZED_VELOCITY, unit_pair, 1.0, grid)
        assert s_values.shape == c_values.shape == grid.shape
        np.testing.assert_allclose(c_values, grid / 0.999, rtol=0.0, atol=1e-9)

    def test_velocity_cumulative_at_09(self, unit_pair):
        """C(0.9) = ln(10)/ln(1000) = 1/3 within the grid's trapezoid error."""
        grid = default_profile_grid(1000)
        _, c_values = target_profile(ObjectiveKind.VELOCITY, unit_pair, 1.0, grid)
        idx = int(np.argmin(np.abs(grid - 0.9)))
        assert c_values[idx] == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_displacement_cumulative_at_05(self, unit_pair):
        """C(0.5) = (0.5 - 0.125) / (0.999 - 0.999^2/2) ~ 0.75."""
        grid = default_profile_grid(1000)
        _, c_values = target_profile(ObjectiveKind.DISPLACEMENT, unit_pair, 1.0, grid)
        idx = int(np.argmin(np.abs(grid - 0.5)))
        exact = 0.375 / (0.999 - 0.999**2 / 2.0)
        assert c_values[idx] == pytest.approx(exact, abs=1e-6)
        assert c_values[idx] == pytest.approx(0.751, abs=0.02)

    def test_grid_validation(self, unit_pair):
        for grid, points in (([], 0), ([0.5], 1)):
            with pytest.raises(ValueError, match=f"at least 2 points, got {points}"):
                target_profile(ObjectiveKind.VELOCITY, unit_pair, 1.0, grid)
        with pytest.raises(ValueError):
            target_profile(ObjectiveKind.VELOCITY, unit_pair, 1.0, [0.5, 0.4])
        with pytest.raises(ValueError, match=r"profile grid must lie within \[0, 0.999\]"):
            target_profile(ObjectiveKind.VELOCITY, unit_pair, 1.0, [0.5, 0.9995])

    def test_profile_is_of_one_pair(self):
        batch = EndpointPair(np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="one pair"):
            target_profile(ObjectiveKind.VELOCITY, batch, 1.0, [0.1, 0.2])

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_closed_form_over_the_grid_matches_each_time(self, kind):
        """S on the whole grid in one call has the bits of one call per time."""
        rng = RngStream(seed=8)
        pair = EndpointPair(gaussian(rng, (1, 5)), gaussian(rng, (1, 5)))
        grid = default_profile_grid(1000)
        s_values, _ = target_profile(kind, pair, 1.3, grid)
        per_time = [expected_target_sqnorm(kind, pair, 1.3, t)[0] for t in grid.tolist()]
        np.testing.assert_array_equal(s_values, per_time)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    @pytest.mark.parametrize(
        "x1,noise_scale",
        [([1.0], 1e200), ([1e154], 1.0)],
        # "-0", no Monte-Carlo draws, keeps the ids these cases have always had
        ids=["noise-scale-overflows-0", "distance-overflows-0"],
    )
    def test_overflow_raises(self, kind, x1, noise_scale):
        """S(t) or its integral past float64's range is an error, never a NaN profile."""
        pair = EndpointPair(np.array([[0.0]]), np.array([x1]))
        with pytest.raises(ValueError, match="not finite"):
            target_profile(kind, pair, noise_scale, default_profile_grid(1000))
