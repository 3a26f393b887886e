"""Synthetic translation tasks, energy distance, and evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bridgelab.model import ModelConfig, init, velocity_field_from
from bridgelab.numerics import RngStream, gaussian
from bridgelab.sampler import oracle_field
from bridgelab.schedules import shifted
from bridgelab.tasks import (
    TaskSpec,
    energy_distance,
    evaluate,
    generate_pairs,
    pair_provider,
)
from bridgelab.trainer import TrainConfig, train
from conftest import traced_peak


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"name": "spirals", "dimension": 2}, "unknown task 'spirals'"),
        ({"name": "moons_rotate", "dimension": 3, "angle": 1.0}, "2D task, got dimension 3"),
        ({"name": "moons_rotate", "dimension": 2}, "needs a rotation angle"),
        ({"name": "grid_colorize", "dimension": 10, "grid_size": 2}, "must be 12, got 10"),
        ({"name": "signal_refine", "dimension": 4, "repeat": 1}, "k >= 2, got 1"),
    ],
    ids=["name", "moons-dimension", "moons-angle", "grid-dimension", "repeat"],
)
def test_bad_task_spec_rejected(fields, message):
    with pytest.raises(ValueError, match=message):
        TaskSpec(**fields)


class TestGaussianShift:
    def test_pairing_is_exact_shift(self):
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        batch = generate_pairs(spec, 100, RngStream(seed=1))
        assert len(batch) == 100
        np.testing.assert_allclose(batch.x1 - batch.x0, np.tile([2.0, 0.0], (100, 1)), atol=1e-12)

    def test_displacement_mean_over_many_pairs(self):
        """Sample mean of x1 - x0 over 1e4 pairs lands on the shift vector."""
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        batch = generate_pairs(spec, 10_000, RngStream(seed=2))
        np.testing.assert_allclose((batch.x1 - batch.x0).mean(axis=0), [2.0, 0.0], atol=0.05)
        np.testing.assert_allclose(batch.x0.mean(axis=0), [0.0, 0.0], atol=0.05)

    def test_same_stream_same_pairs(self):
        spec = TaskSpec(name="gaussian_shift", dimension=3, shift=(1.0, 2.0, 3.0))
        a = generate_pairs(spec, 8, RngStream(seed=5))
        b = generate_pairs(spec, 8, RngStream(seed=5))
        assert np.array_equal(a.x0, b.x0) and np.array_equal(a.x1, b.x1)


class TestMoonsRotate:
    def test_rotation_pairing_and_context(self):
        spec = TaskSpec(name="moons_rotate", dimension=2, angle=math.pi / 3)
        batch = generate_pairs(spec, 200, RngStream(seed=3))
        assert batch.context.shape == (200, 1)
        signs = set()
        for x0, x1, context in zip(batch.x0, batch.x1, batch.context):
            angle = float(context[0])
            signs.add(np.sign(angle))
            assert abs(abs(angle) - math.pi / 3) < 1e-12
            rot = np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            np.testing.assert_allclose(x1, rot @ x0, atol=1e-12)
        assert signs == {-1.0, 1.0}

    def test_zero_context_provider_keeps_pairing(self):
        spec = TaskSpec(name="moons_rotate", dimension=2, angle=0.5)
        plain = pair_provider(spec)(16, RngStream(seed=9))
        zeroed = pair_provider(spec, zero_context=True)(16, RngStream(seed=9))
        assert np.array_equal(plain.x0, zeroed.x0) and np.array_equal(plain.x1, zeroed.x1)
        assert zeroed.context.shape == plain.context.shape
        assert np.all(zeroed.context == 0.0)


class TestGridColorize:
    def test_source_is_replicated_luminance(self):
        spec = TaskSpec(name="grid_colorize", dimension=48, grid_size=4)
        batch = generate_pairs(spec, 10, RngStream(seed=4))
        luma = np.array([0.299, 0.587, 0.114])
        for x0, x1 in zip(batch.x0, batch.x1):
            color = x1.reshape(3, 16)
            gray = x0.reshape(3, 16)
            expected = luma @ color
            for channel in range(3):
                np.testing.assert_allclose(gray[channel], expected, atol=1e-12)

    def test_grid_capped_at_eight(self):
        with pytest.raises(ValueError):
            TaskSpec(name="grid_colorize", dimension=3 * 81, grid_size=9)


class TestSignalRefine:
    def test_source_repeats_kept_values(self):
        """Every kept sample appears k times, matching coarse construction."""
        spec = TaskSpec(name="signal_refine", dimension=16, repeat=4)
        batch = generate_pairs(spec, 10, RngStream(seed=5))
        for x0, x1 in zip(batch.x0, batch.x1):
            for block in range(4):
                kept = x1[4 * block]
                np.testing.assert_allclose(x0[4 * block : 4 * block + 4], kept, atol=1e-12)

    def test_length_divisibility_enforced(self):
        with pytest.raises(ValueError):
            TaskSpec(name="signal_refine", dimension=10, repeat=4)


# Scoring two grid8-wide (1024, 192) sets holds one (512, 1024) Gram block,
# two centred (1024, 192) copies and one (512, 192) buffer of scaled rows.
_GRID8_SCORING = 8 * (512 * 1024 + 2 * 1024 * 192 + 512 * 192)
# A near-pair search adds a mask of 2^16 bools, then 2^16 indices and the
# gathered rows, gathered columns and differences of one 2^16-value batch.
_NEAR_SEARCH = 2**16 + 4 * 8 * 2**16


class TestEnergyDistance:
    def test_identical_sets_exactly_zero(self):
        a = gaussian(RngStream(seed=6), (100, 3))
        assert energy_distance(a, a) == 0.0

    def test_symmetry(self):
        a = gaussian(RngStream(seed=7), (64, 2))
        b = gaussian(RngStream(seed=8), (80, 2)) + 1.0
        assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), rel=1e-12)

    def test_translation_invariance(self):
        """ED(A+c, B+c) = ED(A, B) up to rounding of the translated floats."""
        a = gaussian(RngStream(seed=9), (64, 2))
        b = gaussian(RngStream(seed=10), (64, 2)) * 1.3
        c = np.array([2.5, -1.0])
        assert energy_distance(a + c, b + c) == pytest.approx(
            energy_distance(a, b), rel=1e-12, abs=1e-12
        )

    def test_separated_gaussians_reference_value(self):
        """Unit Gaussians two apart in 1D: ED ~ 1.9444 (brute-force/analytic
        folded-normal reference), reproducible within 5% across seeds."""
        values = []
        for seed in (11, 12):
            a = gaussian(RngStream(seed=seed, stream=1), (10_000, 1))
            b = gaussian(RngStream(seed=seed, stream=2), (10_000, 1)) + 2.0
            values.append(energy_distance(a, b))
        for v in values:
            assert v > 0.0
            assert v == pytest.approx(1.9444, rel=0.05)
        assert values[0] == pytest.approx(values[1], rel=0.05)

    def test_chunking_invariant(self):
        a = gaussian(RngStream(seed=13), (300, 2))
        b = gaussian(RngStream(seed=14), (200, 2))
        assert energy_distance(a, b, chunk=64) == pytest.approx(
            energy_distance(a, b, chunk=512), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty sample sets"):
            energy_distance(np.zeros((0, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("chunk", [0, -1, 1.5, 512.0, "512", None, True])
    def test_chunk_must_be_a_positive_int(self, chunk):
        """chunk=-1 used to score every pair as absent and return 0.0."""
        a = gaussian(RngStream(seed=17), (50, 2))
        b = gaussian(RngStream(seed=18), (50, 2)) + 1.0
        with pytest.raises(ValueError, match=r"chunk must be an int >= 1, got"):
            energy_distance(a, b, chunk=chunk)

    def test_numpy_integer_chunk_accepted(self):
        a = gaussian(RngStream(seed=17), (50, 2))
        b = gaussian(RngStream(seed=18), (50, 2)) + 1.0
        assert energy_distance(a, b, chunk=np.int64(7)) == energy_distance(a, b, chunk=7)

    def test_memory_is_one_gram_block(self):
        """Every chunk of all three terms fills one (512, 1024) block, so the
        peak stays under that block plus 1 MiB: a second block alive while
        the next chunk's product is formed would take it to 8 MiB."""
        a = gaussian(RngStream(seed=19), (1024, 2))
        b = gaussian(RngStream(seed=20), (1024, 2)) + 0.5
        distance, peak = traced_peak(energy_distance, a, b)
        assert distance == energy_distance(a, b)
        assert peak <= 512 * 1024 * 8 + 2**20

    def test_memory_at_grid8_width(self):
        """Two (1024, 192) Gaussian sets hold the scoring arrays and the
        diagonal's few near pairs, under half a MiB: a scaled copy of y.T, a
        third centred copy or a near-pair mask the size of the Gram block
        would each break the bound."""
        a = gaussian(RngStream(seed=21), (1024, 192))
        b = gaussian(RngStream(seed=22), (1024, 192)) + 0.5
        distance, peak = traced_peak(energy_distance, a, b)
        assert distance == energy_distance(a, b)
        assert peak <= _GRID8_SCORING + 2**19

    def test_memory_when_every_pair_is_near(self):
        """1024 identical 192-d points: every pair is recomputed from its
        coordinate differences, 2^16 values at a time."""
        same = np.full((1024, 192), 0.3)
        distance, peak = traced_peak(energy_distance, same, same)
        assert distance == 0.0
        assert peak <= _GRID8_SCORING + _NEAR_SEARCH + 2**17

    @pytest.mark.parametrize("shape", [(4, 0), (2, 2, 2)])
    def test_sets_that_are_not_point_clouds_rejected(self, shape):
        """(n, 0) sets used to divide by zero sizing the near-pair batches and
        (2, 2, 2) sets to fail inside einsum."""
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shape} and {shape}")):
            energy_distance(np.zeros(shape), np.zeros(shape))

    @given(shift=st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_up_to_estimator_noise(self, shift):
        a = gaussian(RngStream(seed=15), (128, 1))
        b = gaussian(RngStream(seed=16), (128, 1)) + shift
        assert energy_distance(a, b) >= -1e-9


def _unit_axis(d: int, length: float) -> np.ndarray:
    axis = np.zeros(d)
    axis[0] = length
    return axis


def _two_clusters(rng: RngStream, count: int, d: int) -> np.ndarray:
    """Two clusters 1e-3 wide whose centres are 200 apart."""
    centre = _unit_axis(d, 100.0)
    return np.concatenate(
        [1e-3 * gaussian(rng, (count, d)) + centre, 1e-3 * gaussian(rng, (count, d)) - centre]
    )


def _near_duplicates(rng: RngStream, count: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A set and a copy of it with every point moved by ~1e-9."""
    a = gaussian(rng, (count, d))
    return a, a + 1e-9 * gaussian(rng, (count, d))


# Each case draws (a, b) from a stream and a dimension; every one stresses the
# Gram form of the squared distances in a different way.
_ACCURACY_CASES = {
    "gaussian": lambda rng, d: (gaussian(rng, (150, d)), gaussian(rng, (150, d)) + 0.3),
    "common-offset-1e8": lambda rng, d: (
        gaussian(rng, (150, d)) + 1e8,
        gaussian(rng, (150, d)) + 1e8 + 0.3,
    ),
    "shift-1000-one-axis": lambda rng, d: (
        gaussian(rng, (150, d)),
        gaussian(rng, (150, d)) + _unit_axis(d, 1000.0),
    ),
    "near-duplicates-1e-9": lambda rng, d: _near_duplicates(rng, 150, d),
    "two-clusters-in-a-set": lambda rng, d: (_two_clusters(rng, 75, d), _two_clusters(rng, 75, d)),
    "scale-1e150": lambda rng, d: (
        1e150 * gaussian(rng, (150, d)),
        1e150 * (gaussian(rng, (150, d)) + 0.3),
    ),
    "scale-1e-150": lambda rng, d: (
        1e-150 * gaussian(rng, (150, d)),
        1e-150 * (gaussian(rng, (150, d)) + 0.3),
    ),
    "unequal-sizes": lambda rng, d: (gaussian(rng, (37, d)), gaussian(rng, (211, d)) + 0.2),
}


class TestEnergyDistanceAccuracy:
    """Against scipy's cdist, within 1e-12 of the mean cross distance E||a-b||."""

    @pytest.mark.parametrize("case", sorted(_ACCURACY_CASES))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 192])
    def test_matches_cdist_reference(self, case, d):
        a, b = _ACCURACY_CASES[case](RngStream(seed=31, stream=d), d)
        for x, y in ((a, b), (b, a)):
            cross = float(np.mean(cdist(x, y)))
            reference = 2.0 * cross - float(np.mean(cdist(x, x))) - float(np.mean(cdist(y, y)))
            assert abs(energy_distance(x, y, chunk=64) - reference) <= 1e-12 * cross
            assert abs(energy_distance(x, y) - reference) <= 1e-12 * cross


class TestEvaluate:
    def test_oracle_field_is_numerically_exact(self):
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        endpoints, report = evaluate(
            lambda batch: oracle_field(batch.x1),
            pair_provider(spec),
            shifted(4, 1.0),
            "corrected",
            1.0,
            256,
            RngStream(seed=17),
        )
        assert report.paired_mse <= 1e-10
        assert report.sample_count == 256
        assert endpoints.shape == (256, 2)

    def test_untrained_model_stays_near_source_marginal(self):
        """Zero velocity field: generated set resembles the source, so its
        distance to the target matches ED(source, target) within 20%."""
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        mconfig = ModelConfig(input_dim=2, hidden=(16,))
        params = init(mconfig, RngStream(seed=18, stream=900))
        _, report = evaluate(
            lambda batch: velocity_field_from(params, mconfig, "stabilized_velocity"),
            pair_provider(spec),
            shifted(16, 1.0),
            "corrected",
            1.0,
            2048,
            RngStream(seed=18),
        )
        batch = generate_pairs(spec, 2048, RngStream(seed=18).split(1))
        baseline = energy_distance(batch.x0, batch.x1)
        assert report.energy_distance == pytest.approx(baseline, rel=0.2)

    def test_report_fields_finite_and_nonnegative(self):
        spec = TaskSpec(name="signal_refine", dimension=8, repeat=2)
        _, report = evaluate(
            lambda batch: oracle_field(batch.x1),
            pair_provider(spec),
            shifted(8, 1.0),
            "standard",
            0.5,
            64,
            RngStream(seed=19),
        )
        data = report.to_dict()
        for key in ("paired_mse", "energy_distance", "mean_displacement_error"):
            assert np.isfinite(data[key])
        assert data["paired_mse"] >= 0.0
        assert data["mean_displacement_error"] >= 0.0

    def test_memory_at_grid8_width(self):
        """Scoring 1024 grid8 endpoints holds them, their targets and the
        energy distance's arrays: the batch's sources are released first."""
        spec = TaskSpec(name="grid_colorize", dimension=192, grid_size=8)
        (_, report), peak = traced_peak(
            evaluate,
            lambda batch: oracle_field(batch.x1),
            pair_provider(spec),
            shifted(4, 1.0),
            "corrected",
            1.0,
            1024,
            RngStream(seed=23),
        )
        assert report.sample_count == 1024
        assert peak <= 2 * 1024 * 192 * 8 + _GRID8_SCORING + 2**20


class TestConditioningPathway:
    def test_context_strictly_beats_zeroed_context(self):
        """Per-pair rotation direction is only available through the context;
        at s=0 the zero-context model collapses to the mixture mean while the
        conditioned one resolves both modes (strictly lower energy distance,
        same seeds)."""
        spec = TaskSpec(name="moons_rotate", dimension=2, angle=math.pi / 2)
        results = {}
        for zero_context in (False, True):
            mconfig = ModelConfig(input_dim=2, hidden=(32, 32), context_dim=1)
            config = TrainConfig(
                objective="stabilized_velocity", noise_scale=0.0, steps=1500, seed=0
            )
            params = init(mconfig, RngStream(seed=0, stream=900))
            provider = pair_provider(spec, zero_context=zero_context)
            params, _ = train(params, mconfig, provider, config)
            _, report = evaluate(
                lambda batch: velocity_field_from(params, mconfig, config.objective, batch.context),
                provider,
                shifted(16, 1.0),
                "corrected",
                0.0,
                2048,
                RngStream(seed=0, stream=800),
            )
            results[zero_context] = report.energy_distance
        assert results[False] < results[True]


class TestStepCountTrend:
    def test_finer_schedules_beat_the_coarsest(self, shift_task, trained_shift_models):
        """Every finer corrected-mode schedule matches the target marginal at
        least as well as N=4 (10% slack). Beyond N~8 the energy distances sit
        in the estimator noise floor, so only the coarse-schedule penalty is
        asserted, not pointwise monotonicity."""
        from bridgelab.objectives import ObjectiveKind

        models, _elapsed = trained_shift_models
        params, mconfig, _stats = models[ObjectiveKind.STABILIZED_VELOCITY]
        eds = {}
        for n in (4, 8, 16, 64):
            _, report = evaluate(
                lambda batch: velocity_field_from(params, mconfig, "stabilized_velocity"),
                pair_provider(shift_task),
                shifted(n, 1.0),
                "corrected",
                1.0,
                4096,
                RngStream(seed=11, stream=800),
            )
            eds[n] = report.energy_distance
        for n in (8, 16, 64):
            assert eds[n] <= 1.10 * eds[4]

