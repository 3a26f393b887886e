"""Discretization grid contract: boundaries, monotonicity, densification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab.errors import DomainError
from bridgelab.schedules import Schedule, shifted


class TestUniform:
    """The uniform grid is ``shifted(n, 1.0)``."""

    def test_quarter_grid(self):
        np.testing.assert_allclose(shifted(4, 1.0).points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        np.testing.assert_array_equal(shifted(1, 1.0).points, [0.0, 1.0])

    def test_zero_steps_rejected(self):
        with pytest.raises(DomainError):
            shifted(0, 1.0)


class TestShifted:
    def test_gamma_one_is_uniform_bitwise(self):
        for n in (1, 2, 3, 7, 64, 1000):
            assert np.array_equal(shifted(n, 1.0).points, np.arange(n + 1) / n)

    def test_known_grid(self):
        """gamma=5, N=4 gives [0, 1/16, 1/6, 3/8, 1]."""
        np.testing.assert_allclose(
            shifted(4, 5.0).points, [0.0, 1.0 / 16.0, 1.0 / 6.0, 3.0 / 8.0, 1.0], rtol=1e-15
        )

    def test_gamma_below_one_rejected(self):
        with pytest.raises(DomainError):
            shifted(4, 0.99)

    @given(
        n=st.integers(1, 2000),
        gamma=st.floats(1.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_contract(self, n, gamma):
        """Exact boundaries, strict monotonicity, non-decreasing steps.

        Step growth is asserted with one-ulp slack: for gamma barely above 1
        the analytically equal steps round to values differing in the last
        bit.
        """
        sch = shifted(n, gamma)
        assert sch.points[0] == 0.0
        assert sch.points[-1] == 1.0
        diffs = np.diff(sch.points)
        assert np.all(diffs > 0.0)
        if gamma > 1.0:
            assert np.all(np.diff(diffs) >= -4.0 * np.finfo(np.float64).eps)

    def test_contract_at_extremes(self):
        for n in (1, 10, 10_000):
            for gamma in (1.0, 5.0, 100.0):
                sch = shifted(n, gamma)
                assert sch.points[0] == 0.0 and sch.points[-1] == 1.0
                assert np.all(np.diff(sch.points) > 0.0)

    def test_early_densification(self):
        """First step shrinks below 1/N for every gamma > 1."""
        for n in (2, 4, 64, 1000):
            for gamma in (1.5, 5.0, 100.0):
                assert shifted(n, gamma).points[1] < 1.0 / n

    def test_initial_density_scales_like_inverse_gamma(self):
        """dt/du at u=0 is 1/gamma: the first of N steps is ~1/(gamma N)."""
        n = 10_000
        for gamma in (2.0, 5.0, 50.0):
            first = shifted(n, gamma).points[1]
            assert first == pytest.approx(1.0 / (gamma * n), rel=1e-2)


class TestScheduleType:
    def test_validates_boundaries(self):
        with pytest.raises(ValueError):
            Schedule(np.array([0.0, 0.5, 0.9]))

    def test_validates_monotonicity(self):
        with pytest.raises(ValueError):
            Schedule(np.array([0.0, 0.6, 0.5, 1.0]))

    def test_needs_two_points(self):
        for points in ([], [1.0], [[0.0, 1.0]]):
            with pytest.raises(ValueError):
                Schedule(points)

    def test_step_count_is_points_minus_one(self):
        assert Schedule([0.0, 1.0]).n_steps == 1
        assert Schedule([0.0, 0.25, 0.75, 1.0]).n_steps == 3
        for n in (1, 7, 64):
            assert shifted(n, 1.0).n_steps == shifted(n, 5.0).n_steps == n
            assert shifted(n, 5.0).points.size == n + 1

    def test_compares_and_hashes_by_identity(self):
        """An ndarray field must not reach the generated __eq__ and __hash__."""
        a, b = shifted(4, 1.0), shifted(4, 1.0)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_points_are_immutable(self):
        sch = shifted(4, 1.0)
        with pytest.raises(ValueError):
            sch.points[0] = 0.5
