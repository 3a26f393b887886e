"""The counter-based random source, and the hold on OpenBLAS's thread count."""

import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from bridgelab import sampler
from bridgelab.model import ModelConfig, init, velocity_field_from
from bridgelab.numerics import RngStream, blas_threads, gaussian, openblas, uniform
from bridgelab.sampler import integrate
from bridgelab.schedules import shifted
from bridgelab.tasks import TaskSpec, pair_provider
from bridgelab.trainer import TrainConfig, train


class TestGaussian:
    def test_same_seed_identical_draws(self):
        """Identical (seed, stream, counter) reproduces the sequence bitwise."""
        a = gaussian(RngStream(seed=0), (2,))
        b = gaussian(RngStream(seed=0), (2,))
        assert np.array_equal(a, b)

    def test_counter_advances_by_element_count(self):
        rng = RngStream(seed=0)
        gaussian(rng, (3, 4))
        assert rng.counter == 12

    def test_replay_from_recorded_counter(self):
        rng = RngStream(seed=9)
        gaussian(rng, (5,))
        recorded = RngStream(seed=rng.seed, stream=rng.stream, counter=rng.counter)
        a = gaussian(rng, (7,))
        b = gaussian(recorded, (7,))
        assert np.array_equal(a, b)

    def test_consecutive_draws_differ(self):
        rng = RngStream(seed=0)
        a = gaussian(rng, (4,))
        b = gaussian(rng, (4,))
        assert not np.array_equal(a, b)

    def test_empty_shape_advances_nothing(self):
        rng = RngStream(seed=0)
        out = gaussian(rng, (0,))
        assert out.shape == (0,)
        assert rng.counter == 0

    def test_distinct_streams_differ(self):
        a = gaussian(RngStream(seed=0, stream=1), (8,))
        b = gaussian(RngStream(seed=0, stream=2), (8,))
        assert not np.array_equal(a, b)

    def test_split_is_deterministic_and_independent(self):
        root = RngStream(seed=5)
        a = gaussian(root.split(3), (6,))
        b = gaussian(root.split(3), (6,))
        c = gaussian(root.split(4), (6,))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments_at_one_million_draws(self):
        """Sample mean within +-0.01 and variance in [0.99, 1.01] at M=1e6."""
        draws = gaussian(RngStream(seed=42), (10**6,))
        assert abs(float(draws.mean())) < 0.01
        assert 0.99 < float(draws.var(ddof=1)) < 1.01

    def test_chi_square_goodness_of_fit(self):
        """20 quantile bins over 1e5 draws pass chi-square at alpha=0.001."""
        draws = gaussian(RngStream(seed=7), (10**5,))
        edges = scipy_stats.norm.ppf(np.linspace(0.0, 1.0, 21))
        observed, _ = np.histogram(draws, bins=edges)
        expected = len(draws) / 20.0
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < scipy_stats.chi2.ppf(0.999, df=19)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            gaussian(RngStream(seed=0), (-1,))


class TestUniform:
    def test_range_and_determinism(self):
        a = uniform(RngStream(seed=3), (1000,))
        b = uniform(RngStream(seed=3), (1000,))
        assert np.array_equal(a, b)
        assert float(a.min()) >= 0.0 and float(a.max()) < 1.0

    def test_mean_near_half(self):
        draws = uniform(RngStream(seed=8), (10**5,))
        assert abs(float(draws.mean()) - 0.5) < 0.005


class TestKeyRange:
    """Seeds, streams and split indices are Philox key words: a value outside
    [0, 2^64) is rejected rather than reduced modulo 2^64, which aliased
    seed 5 with 2^64 + 5 and -2^64 + 5."""

    @pytest.mark.parametrize("value", [-1, 2**64, 2**64 + 5, -(2**64) + 5])
    @pytest.mark.parametrize("field", ["seed", "stream"])
    def test_key_word_outside_u64_rejected(self, field, value):
        fields = {"seed": 0, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer in [0, 2^64), got {value}")):
            RngStream(**fields)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_split_index_outside_u64_rejected(self, index):
        with pytest.raises(ValueError, match=re.escape(f"split index must be an integer in [0, 2^64), got {index}")):
            RngStream(seed=0).split(index)

    def test_extremes_accepted(self):
        rng = RngStream(seed=2**64 - 1, stream=2**64 - 1).split(2**64 - 1).split(0)
        assert gaussian(rng, (2,)).shape == (2,)


_U64 = st.integers(0, 2**64 - 1)
# A draw: (seed, stream, counter, shape, method). Counters reach past 2**64,
# where the Philox counter's third word starts to carry.
_DRAWS = st.tuples(
    _U64,
    _U64,
    st.one_of(st.integers(0, 2**66), st.integers(0, 2**192 - 2**20)),
    st.lists(st.integers(0, 5), max_size=3),
    st.sampled_from(["gaussian", "uniform"]),
)


def _fresh_generator_draw(seed, stream, counter, shape, method):
    """The same draw from a Generator(Philox) built for it alone."""
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter << 64))
    n = math.prod(shape)
    draw = gen.standard_normal if method == "gaussian" else gen.random
    return draw(n).reshape(shape)


def _stream_draw(seed, stream, counter, shape, method):
    rng = RngStream(seed=seed, stream=stream, counter=counter)
    out = {"gaussian": gaussian, "uniform": uniform}[method](rng, shape)
    assert rng.counter == counter + math.prod(shape)
    return out


class TestGeneratorReuse:
    """Draws come from one generator per thread whose state is set before
    each draw; they must be the bits of a generator built for that draw."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_DRAWS, min_size=1, max_size=6))
    @example([(0, 0, 2**64 - 1, [3], "gaussian"), (0, 0, 2**64, [3], "gaussian")])
    @example([(2**64 - 1, 2**64 - 1, 2**128 + 7, [2, 3], "uniform"), (1, 2, 0, [1], "gaussian")])
    def test_draws_equal_a_fresh_generator(self, draws):
        for seed, stream, counter, shape, method in draws:
            got = _stream_draw(seed, stream, counter, shape, method)
            want = _fresh_generator_draw(seed, stream, counter, shape, method)
            assert got.shape == tuple(shape)
            assert np.array_equal(got, want)

    def test_two_threads_equal_the_same_draws_in_sequence(self):
        plans = [
            [(seed, 40 + i, 7 * i, [17], "gaussian" if i % 2 else "uniform") for i in range(1000)]
            for seed in (1, 2)
        ]
        expected = [[_stream_draw(*draw) for draw in plan] for plan in plans]
        results: list = [None, None]
        start = threading.Barrier(2)

        def run(k):
            start.wait(timeout=60)
            results[k] = [_stream_draw(*draw) for draw in plans[k]]

        # switch threads often, so that their draws interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))



def test_blas_threads_restores_the_count_on_every_exit():
    """Held to one thread inside the block; the previous count comes back
    after a normal exit and after an exception."""
    lib = openblas()
    if lib is None:
        with blas_threads(1) as held:
            assert held is False
        pytest.skip("numpy bundles no scipy-openblas here")
    count = lib.scipy_openblas_get_num_threads64_
    before = count()
    with blas_threads(1) as held:
        assert held is True and count() == 1
    assert count() == before
    with pytest.raises(KeyError):
        with blas_threads(1):
            raise KeyError("inside")
    assert count() == before


def test_blas_threads_holds_that_overlap_on_two_threads():
    """Holds A and B, on two threads, that do not nest: A enters, B enters, A
    exits, B exits. OpenBLAS stays at one thread until B exits too, and is
    then back at the count from before A."""
    lib = openblas()
    if lib is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    count = lib.scipy_openblas_get_num_threads64_
    before = count()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        if count() != 2:
            pytest.skip("OpenBLAS here runs on one thread only")
        step = threading.Barrier(2, timeout=30)
        seen = []

        def hold_a():
            with blas_threads(1):
                step.wait()  # 1: A holds
                step.wait()  # 2: B holds
            step.wait()  # 3: A has exited
            step.wait()  # 4: the count under B alone is read
            step.wait()  # 5: B has exited

        def hold_b():
            step.wait()  # 1
            with blas_threads(1):
                step.wait()  # 2
                step.wait()  # 3
                seen.append(count())
                step.wait()  # 4
            step.wait()  # 5

        threads = [threading.Thread(target=hold_a), threading.Thread(target=hold_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1]
        assert count() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_train_and_integrate_run_ahead_only_where_worker_pays(monkeypatch, refused_worker):
    """grid8's ``train`` and ``integrate`` would each run a worker, but with
    ``worker_pays`` refusing, ``train`` calls its provider and ``integrate``
    draws its noise only on the calling thread: both decide through it."""
    mconfig = ModelConfig(input_dim=192, hidden=(128, 128))
    provider = pair_provider(TaskSpec("grid_colorize", 192, grid_size=8))
    callers, drawn_on = set(), set()

    def recorded_provider(batch_size, rng):
        callers.add(threading.get_ident())
        return provider(batch_size, rng)

    def recorded_gaussian(rng, shape):
        drawn_on.add(threading.get_ident())
        return gaussian(rng, shape)

    config = TrainConfig(steps=3, batch_size=128)
    params, _ = train(init(mconfig, RngStream(seed=11)), mconfig, recorded_provider, config)
    monkeypatch.setattr(sampler, "gaussian", recorded_gaussian)
    field = velocity_field_from(params, mconfig, "stabilized_velocity")
    x0 = gaussian(RngStream(seed=12), (1024, 192))
    integrate(x0, field, shifted(8, 1.0), "corrected", 1.0, RngStream(seed=13))
    assert refused_worker == [True, True]
    assert callers == drawn_on == {threading.get_ident()}
