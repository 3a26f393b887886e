"""Stochastic integration: step amplitudes, exactness, endpoint statistics."""

import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import sampler
from bridgelab.bridge import EndpointPair
from bridgelab.model import ModelConfig, init, velocity_field_from
from bridgelab.numerics import NumericalError, RngStream, gaussian
from bridgelab.sampler import (
    endpoint_statistics,
    integrate,
    oracle_field,
    plan_steps,
)
from bridgelab.schedules import Schedule, shifted
from bridgelab.verify import run_suite
from conftest import blas_thread_count


@pytest.fixture()
def pair2d():
    return EndpointPair(np.array([[0.3, -1.2]]), np.array([[1.7, 0.4]]))


class TestNoiseAmplitude:
    """plan_steps gives each transition's dt and noise amplitude eta as (N,) arrays."""

    def test_corrected_interior_step(self):
        """Uniform N=4, step 0.5 -> 0.75, s=1: sqrt(0.25 * 0.25/0.5)."""
        dt, eta = plan_steps(shifted(4, 1.0), "corrected", 1.0)
        np.testing.assert_array_equal(dt, np.diff(shifted(4, 1.0).points))
        assert eta[2] == pytest.approx(math.sqrt(0.125), rel=1e-15)

    def test_corrected_formula(self):
        sch = shifted(16, 5.0)
        t = sch.points
        _, eta = plan_steps(sch, "corrected", 1.5)
        for k in range(16):
            dt = t[k + 1] - t[k]
            assert eta[k] == 1.5 * math.sqrt(dt * (1.0 - t[k + 1]) / (1.0 - t[k]))

    def test_standard_formula(self):
        sch = shifted(16, 5.0)
        _, eta = plan_steps(sch, "standard", 1.5)
        for k in range(16):
            assert eta[k] == 1.5 * math.sqrt(sch.points[k + 1] - sch.points[k])

    def test_corrected_final_step_is_zero(self):
        for n in (1, 4, 64):
            for gamma in (1.0, 5.0):
                assert plan_steps(shifted(n, gamma), "corrected", 2.0)[1][-1] == 0.0

    def test_standard_final_step_keeps_noise(self):
        """The residual endpoint noise of the uncorrected scheme: sqrt(1/4)."""
        assert plan_steps(shifted(4, 1.0), "standard", 1.0)[1][-1] == 0.5

    def test_scales_linearly_with_noise_scale(self):
        for mode in ("standard", "corrected"):
            _, base = plan_steps(shifted(8, 2.0), mode, 1.0)
            _, doubled = plan_steps(shifted(8, 2.0), mode, 2.0)
            np.testing.assert_array_equal(doubled, 2.0 * base)

    def test_modes_agree_as_steps_shrink(self):
        """Corrected/standard ratio sqrt((1-t2)/(1-t1)) -> 1 as dt -> 0."""
        for dt in (1e-3, 1e-6):
            sch = Schedule([0.0, 0.5, 0.5 + dt, 1.0])
            ratio = plan_steps(sch, "corrected", 1.0)[1][1] / plan_steps(sch, "standard", 1.0)[1][1]
            assert abs(ratio - 1.0) < 2.0 * dt

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="euler"):
            plan_steps(shifted(4, 1.0), "euler", 1.0)

    def test_bad_interval_rejected(self):
        """A zero-length step cannot reach plan_steps: the schedule rejects it."""
        with pytest.raises(ValueError):
            Schedule([0.0, 0.5, 0.5, 1.0])


def run(mode, x0, field, schedule, s, rng):
    """Integrate a (B, D) block; returns every recorded state [x_{t_0}, ..., x_{t_N}]."""
    states = []
    integrate(x0, field, schedule, mode, s, rng, lambda k, x: states.append(x))
    return states


@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_bad_noise_scale_rejected(pair2d, s):
    """Every path that reads s checks it before any step runs."""
    schedule, field = shifted(4, 1.0), oracle_field(pair2d.x1)
    with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
        plan_steps(schedule, "standard", s)
    with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
        integrate(pair2d.x0, field, schedule, "standard", s, RngStream(seed=1))
    with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
        endpoint_statistics("corrected", field, pair2d, schedule, s, 8, RngStream(seed=1))


class TestStep:
    def test_update_formula(self, pair2d):
        """Each step is x + dt * v(x, t_k), plus eta * eps drawn only where eta != 0."""
        field = oracle_field(pair2d.x1)
        x0 = np.array([[0.5, 0.5], [-1.0, 2.0]])
        rng = RngStream(seed=4)
        states = run("corrected", x0, field, shifted(4, 1.0), 1.0, rng)
        replay = RngStream(seed=4)
        dt, eta = plan_steps(shifted(4, 1.0), "corrected", 1.0)
        for k, t in enumerate(shifted(4, 1.0).points[:-1]):
            expected = states[k] + dt[k] * field(states[k], t)
            if eta[k] != 0.0:
                expected += eta[k] * gaussian(replay, x0.shape)
            np.testing.assert_array_equal(states[k + 1], expected)
        assert rng.counter == replay.counter == 3 * x0.size  # the noiseless final step draws nothing

    def test_non_finite_field_reports_step_index(self):
        bad_field = lambda x, t: np.full_like(x, np.nan if t > 0.0 else 0.0)
        with pytest.raises(NumericalError, match="^velocity field returned non-finite values at step 1$"):
            integrate(np.zeros((1, 2)), bad_field, shifted(4, 1.0), "corrected", 1.0, RngStream(seed=1))

    def test_overflowing_state_reports_step_index(self):
        """A finite drift that carries the states past float64's range."""
        huge_field = lambda x, t: np.full_like(x, 1e308)
        with pytest.raises(NumericalError, match="^state became non-finite at step 0$"):
            integrate(np.full((1, 2), 1e308), huge_field, shifted(1, 1.0), "corrected", 1.0, RngStream(seed=1))


class TestArrayOwnership:
    """integrate writes only arrays it made: never x0, never a recorded block."""

    def test_writable_x0_unchanged(self, pair2d):
        x0 = np.array([[0.5, 0.5], [-1.0, 2.0], [0.0, 0.0]])
        before = x0.copy()
        integrate(x0, oracle_field(pair2d.x1), shifted(8, 1.0), "standard", 1.0, RngStream(seed=3))
        np.testing.assert_array_equal(x0, before)

    @pytest.mark.parametrize("mode", ["standard", "corrected"])
    def test_each_recorded_block_is_fresh_and_kept(self, pair2d, mode):
        x0 = np.array([[0.5, 0.5], [-1.0, 2.0], [0.0, 0.0]])
        seen, copies = [], []

        def record(k, states):
            seen.append(states)
            copies.append(states.copy())

        integrate(x0, oracle_field(pair2d.x1), shifted(8, 1.0), mode, 1.0, RngStream(seed=3), record)
        assert len(seen) == 9
        assert len({id(states) for states in seen}) == len(seen)
        for states, copy in zip(seen, copies):
            np.testing.assert_array_equal(states, copy)


class TestSample:
    def test_oracle_corrected_hits_target_exactly(self, pair2d):
        """Final step is noiseless and analytically forced onto x1."""
        for n in (1, 2, 4, 16, 64):
            for gamma in (1.0, 5.0):
                for s in (0.0, 1.0, 2.0):
                    traj = run(
                        "corrected",
                        pair2d.x0,
                        oracle_field(pair2d.x1),
                        shifted(n, gamma),
                        s,
                        RngStream(seed=3, stream=n),
                    )
                    assert len(traj) == n + 1
                    np.testing.assert_allclose(traj[-1], pair2d.x1, atol=1e-10)

    def test_zero_scale_constant_field_is_linear_path(self, pair2d):
        """s=0 with the constant displacement field reproduces interpolation."""
        shift = pair2d.x1 - pair2d.x0
        field = lambda x, t: np.broadcast_to(shift, x.shape)
        sch = shifted(8, 1.0)
        traj = run("corrected", pair2d.x0, field, sch, 0.0, RngStream(seed=5))
        for t, state in zip(sch.points, traj):
            np.testing.assert_allclose(state, pair2d.x0 + t * shift, atol=1e-12)

    def test_trajectory_determinism(self, pair2d):
        a = run("standard", pair2d.x0, oracle_field(pair2d.x1), shifted(8, 1.0), 1.0, RngStream(seed=9))
        b = run("standard", pair2d.x0, oracle_field(pair2d.x1), shifted(8, 1.0), 1.0, RngStream(seed=9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)

    def test_streaming_final_only(self, pair2d):
        """Without a recorder only the endpoint block comes back; it is the last recorded state."""
        full = run("corrected", pair2d.x0, oracle_field(pair2d.x1), shifted(16, 1.0), 1.0, RngStream(seed=2))
        lean = integrate(
            pair2d.x0, oracle_field(pair2d.x1), shifted(16, 1.0), "corrected", 1.0, RngStream(seed=2)
        )
        assert len(full) == 17
        np.testing.assert_array_equal(lean, full[-1])

    def test_blowup_carries_step_index(self, pair2d):
        def exploding(x, t):
            with np.errstate(over="ignore"):
                return x * 1e200

        with pytest.raises(NumericalError, match="non-finite .*at step [0-7]$"):
            run("corrected", pair2d.x0, exploding, shifted(8, 1.0), 0.0, RngStream(seed=1))

    def test_rejects_unbatched_start(self, pair2d):
        with pytest.raises(ValueError):
            integrate(pair2d.x0[0], oracle_field(pair2d.x1), shifted(4, 1.0), "corrected", 1.0, RngStream(seed=1))

    @given(
        b=st.integers(1, 8),
        d=st.integers(1, 5),
        n=st.integers(1, 32),
        gamma=st.floats(1.0, 10.0),
        mode=st.sampled_from(["standard", "corrected"]),
        s=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_runs_match_single_runs(self, b, d, n, gamma, mode, s, seed):
        """s=0: row i of a batch is bitwise the run of row i alone. Corrected
        mode with the oracle field lands on x1 for any s."""
        x0 = gaussian(RngStream(seed=seed, stream=1), (b, d))
        x1 = gaussian(RngStream(seed=seed, stream=2), (b, d))
        sch = shifted(n, gamma)
        batched = integrate(x0, oracle_field(x1), sch, mode, 0.0, RngStream(seed=seed))
        for i in range(b):
            alone = integrate(x0[i : i + 1], oracle_field(x1[i]), sch, mode, 0.0, RngStream(seed=seed))
            assert np.array_equal(batched[i : i + 1], alone)
        if mode == "corrected":
            noisy = integrate(x0, oracle_field(x1), sch, mode, s, RngStream(seed=seed))
            np.testing.assert_allclose(noisy, x1, rtol=0.0, atol=1e-10)


class TestEndpointStatistics:
    def test_oracle_corrected_mse_tiny(self, pair2d):
        for n in (1, 4, 16):
            st = endpoint_statistics(
                "corrected", oracle_field(pair2d.x1), pair2d, shifted(n, 1.0), 1.0, 16, RngStream(seed=4)
            )
            assert st.mse <= 1e-20

    def test_standard_endpoint_variance_law(self, pair2d):
        """Var of the endpoint is s^2 dt_{N-1}: only last-step noise survives
        the oracle drift's contraction."""
        for n in (4, 16, 64):
            st = endpoint_statistics(
                "standard", oracle_field(pair2d.x1), pair2d, shifted(n, 1.0), 1.0, 10_000, RngStream(seed=6)
            )
            assert st.variance == pytest.approx(1.0 / n, rel=0.05)

    def test_driftless_accumulates_step_amplitudes(self):
        """field = 0: endpoint variance is the sum of squared amplitudes."""
        pair = EndpointPair(np.zeros((1, 1)), np.zeros((1, 1)))
        sch = shifted(8, 1.0)
        field = lambda x, t: np.zeros_like(x)
        st = endpoint_statistics("corrected", field, pair, sch, 1.0, 50_000, RngStream(seed=8))
        predicted = float(np.sum(plan_steps(sch, "corrected", 1.0)[1] ** 2))
        assert st.variance == pytest.approx(predicted, rel=0.03)

    def test_corrected_tracks_bridge_marginal(self):
        """With the conditional drift toward a zero target, the state variance
        follows s^2 t (1-t) at every grid point and pins to 0 at t=1."""
        runs, s = 100_000, 1.0
        sch = shifted(8, 1.0)
        checked = []

        def track(k, states):
            t = float(sch.points[k])
            expected = s * s * t * (1.0 - t)
            if expected > 0.0:
                assert float(np.var(states, ddof=1)) == pytest.approx(expected, rel=0.03)
                checked.append(k)

        states = integrate(
            np.zeros((runs, 1)), oracle_field(np.zeros(1)), sch, "corrected", s, RngStream(seed=10), track
        )
        assert checked == list(range(1, 8))
        assert float(np.var(states)) == 0.0

    def test_requires_two_runs(self, pair2d):
        with pytest.raises(ValueError):
            endpoint_statistics(
                "corrected", oracle_field(pair2d.x1), pair2d, shifted(4, 1.0), 1.0, 1, RngStream(seed=1)
            )

    @pytest.mark.parametrize("runs", [2.5, np.float64(4.0)], ids=["float", "numpy-float"])
    def test_runs_must_be_an_integer(self, pair2d, runs):
        """A float run count raised TypeError in numpy's broadcast."""
        with pytest.raises(ValueError, match=f"^{re.escape(f'runs must be an integer, got {runs!r}')}$"):
            endpoint_statistics(
                "corrected", oracle_field(pair2d.x1), pair2d, shifted(4, 1.0), 1.0, runs, RngStream(seed=1)
            )


def network_field(dim=192, hidden=(128, 128)):
    """A velocity field of an untrained network that states its cost, as the
    grid8 task's model with its default time features."""
    config = ModelConfig(input_dim=dim, hidden=hidden)
    return velocity_field_from(init(config, RngStream(seed=11)), config, "velocity")


class TestOverlappedNoise:
    """Where a network field is cheap for its noise blocks, ``integrate`` draws
    each next noise block on a worker thread: every state, the stream's
    counter and the failing step of an error are those of the one-thread loop."""

    @pytest.mark.parametrize(
        "dim, hidden, runs, s, overlaps",
        [
            (192, (128, 128), 1024, 1.0, True),
            (2, (32, 32), 1024, 1.0, True),
            (192, (128, 128), 32, 1.0, True),
            (192, (512, 512), 1024, 1.0, False),
            (2, (64, 64), 1024, 1.0, False),
            (192, (128, 128), 1024, 0.0, False),
            (2, (32, 32), 256, 1.0, False),
            (192, (32, 32), 4096, 1.0, True),
            (192, (256, 256), 256, 1.0, True),
            (192, (384, 384), 96, 1.0, False),
            (2, (128, 128), 1024, 1.0, False),
        ],
        ids=[
            "grid8-sample", "shift2d-sample", "grid8-32-runs", "512x512", "2d-64x64", "s0", "small-block",
            "32x32-4096-runs", "256x256-256-runs", "384x384-96-runs", "2d-128x128",
        ],
    )
    def test_which_runs_overlap(self, refused_worker, dim, hidden, runs, s, overlaps):
        """``integrate`` asks ``numerics.worker_pays`` once. grid8's sample
        (1024 runs of 192 values, 347 multiply-adds per noise value),
        shift2d's (2048 values a block, 704 a value) and 32 runs of grid8's
        network run ahead. A 512x512 network's 2411 multiply-adds a value, a
        D=2 64x64 network's 2432, a noiseless run and a block under 2^10
        values do not; neither does a field that states no cost. The rows
        where the trainer's rule changed answer keep theirs here: 32x32 (71 a
        value) and 256x256 (864) run ahead, 384x384 (1552) and D=2 128x128
        (8960) do not."""
        field = network_field(dim, hidden)
        x0 = np.zeros((runs, dim))
        for f in (field, lambda x, t: field(x, t)):
            integrate(x0, f, shifted(2, 1.0), "corrected", s, RngStream(seed=13))
        assert refused_worker == [overlaps, False]

    def test_no_verify_suite_starts_the_worker(self, refused_worker):
        """verify's fields state no cost, so its integrations, which already
        share the second core, never start the noise worker."""
        assert run_suite("all", seed=0, mc=0)["passed"]
        assert refused_worker and not any(refused_worker)

    @pytest.mark.parametrize(
        "mode, dim, hidden, runs",
        [
            ("standard", 192, (128, 128), 128),
            ("corrected", 192, (128, 128), 128),
            ("standard", 2, (32, 32), 1024),
            ("corrected", 2, (32, 32), 1024),
        ],
        ids=["standard", "corrected", "shift2d-standard", "shift2d-corrected"],
    )
    def test_integrate_equals_the_sequential_loop(self, monkeypatch, mode, dim, hidden, runs):
        """Bit for bit: every recorded state, the endpoints and the stream's
        counter after the return. Only the network field's noise is drawn off
        the calling thread; the same field wrapped in a lambda states no cost."""
        field = network_field(dim, hidden)
        x0 = gaussian(RngStream(seed=12), (runs, dim))
        drawn_on = []

        def recorded_gaussian(rng, shape):
            drawn_on.append(threading.get_ident())
            return gaussian(rng, shape)

        monkeypatch.setattr(sampler, "gaussian", recorded_gaussian)
        runs = {}
        for name, f in (("overlapped", field), ("sequential", lambda x, t: field(x, t))):
            rng, states, drawn_on[:] = RngStream(seed=13), [], []
            end = integrate(x0, f, shifted(16, 2.0), mode, 1.5, rng, lambda k, x: states.append(x))
            runs[name] = end, states, rng.counter, set(drawn_on)
        (end, states, counter, threads), (end1, states1, counter1, threads1) = runs.values()
        assert np.array_equal(end, end1)
        assert len(states) == len(states1) == 17
        assert all(np.array_equal(a, b) for a, b in zip(states, states1))
        noisy = 16 if mode == "standard" else 15
        assert counter == counter1 == noisy * x0.size
        assert threads1 == {threading.get_ident()}
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_numerical_error_stops_the_worker(self):
        """NaN from the field at step 5, after the worker has drawn ahead: the
        error names step 5, no thread is left, OpenBLAS read one thread in each
        field call and is back at its count from before, and the counter is
        past the noise of steps 0-4 only."""
        field = network_field()
        counts = []

        def failing(states, t):
            counts.append(blas_thread_count())
            out = field(states, t)
            if len(counts) == 6:
                time.sleep(0.05)  # the worker draws ahead meanwhile
                out[0, 0] = np.nan
            return out

        failing.forward_macs = field.forward_macs
        x0 = gaussian(RngStream(seed=12), (128, 192))
        rng = RngStream(seed=13)
        before_count, before_threads = blas_thread_count(), set(threading.enumerate())
        with pytest.raises(NumericalError, match="^velocity field returned non-finite values at step 5$"):
            integrate(x0, failing, shifted(16, 2.0), "corrected", 1.0, rng)
        assert set(threading.enumerate()) == before_threads
        assert rng.counter == 5 * x0.size
        if before_count is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        assert blas_thread_count() == before_count
        assert counts == [1] * 6

    def test_shift2d_field_runs_on_one_blas_thread(self):
        """shift2d's field (1024 runs of D=2, hidden 32x32) reads one OpenBLAS
        thread in every call, so it never wakes OpenBLAS's thread pool, and
        the count is back at its value from before once ``integrate`` returns."""
        field = network_field(2, (32, 32))
        counts = []

        def counted(states, t):
            counts.append(blas_thread_count())
            return field(states, t)

        counted.forward_macs = field.forward_macs
        before = blas_thread_count()
        if before is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        x0 = gaussian(RngStream(seed=12), (1024, 2))
        integrate(x0, counted, shifted(16, 2.0), "corrected", 1.0, RngStream(seed=13))
        assert counts == [1] * 16
        assert blas_thread_count() == before
