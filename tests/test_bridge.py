"""Closed-form bridge math: states, targets, variances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab.bridge import (
    T_CLAMP,
    BridgeSample,
    EndpointPair,
    conditional_variance,
    displacement_target,
    interpolate,
    marginal_variance,
    sample_state,
    velocity_target,
)
from bridgelab.numerics import RngStream, gaussian, uniform
from bridgelab.objectives import alpha_factor
from bridgelab.sampler import integrate, oracle_field
from bridgelab.schedules import Schedule


@pytest.fixture()
def pair2d():
    return EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))


class TestInterpolate:
    def test_midpoint(self, unit_pair):
        np.testing.assert_allclose(interpolate(unit_pair, 0.5), [[0.5]])

    def test_endpoint_identity(self, unit_pair):
        assert np.array_equal(interpolate(unit_pair, 0.0), unit_pair.x0)
        assert np.array_equal(interpolate(unit_pair, 1.0), unit_pair.x1)

    def test_direct_substitution(self):
        pair = EndpointPair(np.array([[1.0, 2.0]]), np.array([[3.0, 6.0]]))
        np.testing.assert_allclose(interpolate(pair, 0.25), [[1.5, 3.0]])

    def test_domain_error_outside_unit_interval(self, unit_pair):
        with pytest.raises(ValueError, match=r"interpolation time must be in \[0, 1\]"):
            interpolate(unit_pair, -0.1)
        with pytest.raises(ValueError, match=r"interpolation time must be in \[0, 1\]"):
            interpolate(unit_pair, 1.1)


class TestSampleState:
    def test_explicit_value(self, unit_pair):
        sample = sample_state(unit_pair, 0.5, np.array([[0.2]]), 1.0)
        np.testing.assert_allclose(sample.state, [[0.6]])

    def test_zero_noise_scale_degenerates_to_interpolation(self, pair2d):
        eps = np.array([[3.0, -2.0]])
        sample = sample_state(pair2d, 0.37, eps, 0.0)
        assert np.array_equal(sample.state, interpolate(pair2d, 0.37))

    def test_t_one_rejected(self, unit_pair):
        with pytest.raises(ValueError, match="state construction requires 0 <= t < 1"):
            sample_state(unit_pair, 1.0, np.array([[0.0]]), 1.0)

    def test_shape_mismatch_rejected(self, unit_pair):
        with pytest.raises(ValueError):
            sample_state(unit_pair, 0.5, np.zeros((1, 2)), 1.0)

    @pytest.mark.parametrize("shape", [(1,), (4, 1), (1, 4), (3,)])
    def test_time_shape_neither_shared_nor_per_pair_rejected(self, shape):
        """A time is () for the whole batch or (B,) per pair; a (B, 1) column
        or a length-1 vector would broadcast the batch into the wrong shape."""
        batch = EndpointPair(np.zeros((4, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match=r"time shape .* is neither \(\) nor \(4,\)"):
            sample_state(batch, np.full(shape, 0.5), np.zeros((4, 2)), 1.0)

    def test_empirical_variance_matches_marginal(self):
        """Degenerate pair x0 = x1 = 0: Var(state at 0.5) = 0.25 within 2%."""
        pair = EndpointPair(np.zeros((1, 1)), np.zeros((1, 1)))
        eps = gaussian(RngStream(seed=31), (10**5, 1))
        states = math.sqrt(0.5 * 0.5) * eps[:, 0]
        for i in (0, 17, 999):  # vectorized construction agrees with sample_state
            assert sample_state(pair, 0.5, eps[i : i + 1], 1.0).state[0, 0] == states[i]
        emp = float(np.var(states, ddof=1))
        assert abs(emp / 0.25 - 1.0) < 0.02


class TestVelocityTarget:
    def test_explicit_value(self, unit_pair):
        sample = sample_state(unit_pair, 0.5, np.array([[0.2]]), 1.0)
        np.testing.assert_allclose(velocity_target(unit_pair, sample), [[0.8]])

    def test_zero_noise_gives_constant_velocity(self, pair2d):
        for t in (0.0, 0.25, 0.7, 0.99):
            sample = sample_state(pair2d, t, np.zeros((1, 2)), 1.0)
            np.testing.assert_allclose(
                velocity_target(pair2d, sample), pair2d.x1 - pair2d.x0, atol=1e-12
            )

    def test_expansion_substitution(self, unit_pair):
        """t=0.9, unit noise: (x1-x0) - sqrt(t/(1-t)) = 1 - 3 = -2."""
        sample = sample_state(unit_pair, 0.9, np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(velocity_target(unit_pair, sample), [[-2.0]], rtol=1e-12)

    def test_clamped_time_rejected(self, unit_pair):
        bad = sample_state(unit_pair, 1.0 - T_CLAMP / 2.0, np.array([[0.1]]), 1.0)
        with pytest.raises(ValueError, match="velocity target undefined for t > "):
            velocity_target(unit_pair, bad)


class TestDisplacementTarget:
    def test_explicit_value(self, unit_pair):
        sample = sample_state(unit_pair, 0.5, np.array([[0.2]]), 1.0)
        np.testing.assert_allclose(displacement_target(unit_pair, sample), [[0.4]])

    def test_zero_at_target(self, unit_pair):
        sample = BridgeSample(t=np.array(0.3), epsilon=np.zeros((1, 1)), state=unit_pair.x1.copy())
        assert np.array_equal(displacement_target(unit_pair, sample), np.zeros((1, 1)))

    @given(
        t=st.floats(0.0, 0.99),
        s=st.floats(0.0, 4.0),
        e0=st.floats(-3.0, 3.0),
        e1=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_displacement_is_one_minus_t_times_velocity(self, t, s, e0, e1):
        """d = (1-t) u holds to one-ulp scale for every valid sample."""
        pair = EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))
        sample = sample_state(pair, t, np.array([[e0, e1]]), s)
        d = displacement_target(pair, sample)
        u = velocity_target(pair, sample)
        np.testing.assert_allclose(d, (1.0 - t) * u, rtol=1e-15, atol=1e-15)


class TestExpansionIdentity:
    def test_velocity_equals_expanded_form(self, pair2d):
        """(x1-state)/(1-t) == (x1-x0) - s sqrt(t/(1-t)) eps within 1e-12."""
        rng = RngStream(seed=77)
        for _ in range(200):
            t = float(uniform(rng, ())) * 0.99
            s = float(uniform(rng, ())) * 3.0
            eps = gaussian(rng, (1, 2))
            sample = sample_state(pair2d, t, eps, s)
            u = velocity_target(pair2d, sample)
            expanded = (pair2d.x1 - pair2d.x0) - s * math.sqrt(t / (1.0 - t)) * eps
            np.testing.assert_allclose(u, expanded, atol=1e-12)


class TestMarginalVariance:
    def test_maximal_at_midpoint(self):
        assert marginal_variance(0.5, 1.0) == 0.25

    def test_pinned_endpoints(self):
        assert marginal_variance(0.0, 1.0) == 0.0
        assert marginal_variance(1.0, 1.0) == 0.0

    def test_noise_scale_squares(self):
        assert marginal_variance(0.5, 2.0) == 1.0

    def test_monte_carlo_mean_and_variance(self, pair2d):
        """Empirical state mean and variance match within 3-sigma at M=1e5."""
        mc = 10**5
        t, s = 0.35, 1.5
        eps = gaussian(RngStream(seed=101), (mc, 2))
        states = interpolate(pair2d, t) + s * math.sqrt(t * (1.0 - t)) * eps
        mean_bound = 3.0 * s * math.sqrt(t * (1.0 - t) / mc)
        assert np.max(np.abs(states.mean(axis=0) - interpolate(pair2d, t))) < mean_bound
        rel_dev = np.abs(states.var(axis=0, ddof=1) / marginal_variance(t, s) - 1.0)
        assert np.max(rel_dev) < 3.0 * math.sqrt(2.0 / mc) * 1.5


class TestConditionalVariance:
    def test_substitution(self):
        assert conditional_variance(0.25, 0.5, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_reduces_to_marginal_at_t1_zero(self):
        for t2 in (0.1, 0.5, 0.9):
            assert conditional_variance(0.0, t2, 1.3) == pytest.approx(
                marginal_variance(t2, 1.3), rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="conditional variance requires 0 <= t1 <= t2 <= 1"):
            conditional_variance(0.6, 0.5, 1.0)
        with pytest.raises(ValueError, match="conditional variance requires 0 <= t1 <= t2 <= 1"):
            conditional_variance(1.0, 1.0, 1.0)

    def test_joint_simulation_matches(self, pair2d):
        """Empirical Var(X_t2 | X_t1) from 1e5 corrected-sampler paths within 3%."""
        t1, t2, s = 0.5, 0.75, 1.0
        field = oracle_field(pair2d.x1)
        path = []
        integrate(
            np.broadcast_to(pair2d.x0, (10**5, 2)),
            field,
            Schedule([0.0, t1, t2, 1.0]),
            "corrected",
            s,
            RngStream(seed=55),
            lambda k, states: path.append(states),
        )
        _, states1, states2, _ = path
        emp = np.var(states2 - states1 - (t2 - t1) * field(states1, t1), axis=0, ddof=1)
        assert np.max(np.abs(emp / conditional_variance(t1, t2, s) - 1.0)) < 0.03


class TestEndpointPair:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EndpointPair(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_single_pair_is_a_one_row_batch(self):
        """(D,) endpoints are rejected: one pair is a (1, D) batch."""
        with pytest.raises(ValueError, match=r"endpoints must be a \(B, D\) batch"):
            EndpointPair(np.zeros(2), np.ones(2))
        assert len(EndpointPair(np.zeros((1, 2)), np.ones((1, 2)))) == 1

    def test_dimension(self, pair2d):
        assert pair2d.dimension == 2

    def test_identical_endpoints_allowed(self):
        pair = EndpointPair(np.ones((1, 3)), np.ones((1, 3)))
        assert pair.dimension == 3

    def test_batch_axis(self):
        batch = EndpointPair(np.zeros((4, 3)), np.ones((4, 3)), context=np.zeros((4, 1)))
        assert len(batch) == 4
        assert batch.dimension == 3

    def test_bad_batch_shapes_rejected(self):
        with pytest.raises(ValueError):
            EndpointPair(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            EndpointPair(np.zeros((4, 2)), np.zeros((4, 2)), context=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            EndpointPair(np.zeros((4, 2)), np.zeros((4, 2)), context=np.zeros(1))


class TestRangeChecksOnEveryTimeForm:
    """Every time a caller passes, a float, a numpy scalar or one time per
    pair, is read as one ndarray and range-checked the same way."""

    FORMS = {
        "float": lambda t: t,
        "np_float64": np.float64,
        "array": lambda t: np.array([0.25, t, 0.5]),
    }
    # function -> pattern of its ValueError's message
    REJECTS = {
        "interpolate": r"interpolation time must be in \[0, 1\]",
        "sample_state": r"state construction requires 0 <= t < 1",
        "velocity_target": r"velocity target undefined for t > ",
        "alpha_factor": r"alpha factor requires 0 <= t <= ",
    }

    @staticmethod
    def call(name: str, t):
        shape = (3, 2) if np.ndim(t) == 1 else (1, 2)
        pair = EndpointPair(np.zeros(shape), np.ones(shape))
        if name == "interpolate":
            return interpolate(pair, t)
        if name == "sample_state":
            return sample_state(pair, t, np.full(shape, 0.5), 1.0).state
        if name == "velocity_target":
            sample = BridgeSample(t=t, epsilon=np.zeros(shape), state=np.full(shape, 0.5))
            return velocity_target(pair, sample)
        return alpha_factor(pair, t, 1.0)

    @pytest.mark.parametrize("name", list(REJECTS))
    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("bad", [1.5, math.nan], ids=["out-of-range", "nan"])
    def test_bad_time_rejected(self, name, form, bad):
        with pytest.raises(ValueError, match=self.REJECTS[name]) as caught:
            self.call(name, self.FORMS[form](bad))
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("name", list(REJECTS))
    @pytest.mark.parametrize("form", ["np_float64", "array"])
    def test_good_time_matches_the_float_form(self, name, form):
        expected = self.call(name, 0.25)
        got = self.call(name, self.FORMS[form](0.25))
        assert np.array_equal(got[1:2] if form == "array" else got, expected)
