"""Synthetic source-to-target translation tasks and bridge evaluation metrics.

Four paired tasks span the translation taxonomy at desk scale:

* ``gaussian_shift``  - deterministic affine pairing: x1 = x0 + shift.
* ``moons_rotate``    - structured nonlinearity: two-moons points rotated by a
  per-pair signed angle, which is exposed as conditioning context.
* ``grid_colorize``   - channel completion: smooth random color grids paired
  with their luminance-only versions (capped at 8x8x3 = 192 dims).
* ``signal_refine``   - coarse-to-fine: a smooth 1D signal paired with its
  block-repeated coarse version (every kept value repeated k times).

Evaluation reports paired MSE, the energy distance between the generated set
and the target marginal, and the norm of the mean endpoint error. Energy
distance uses the V-statistic convention (all index pairs, diagonal
included), which is exactly zero on identical sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bridge import EndpointPair
from .errors import EvaluationError
from .numerics import RngStream, Tensor, gaussian, uniform
from .sampler import integrate
from .schedules import Schedule

TASK_NAMES = ("gaussian_shift", "moons_rotate", "grid_colorize", "signal_refine")

_MOON_NOISE = 0.05
_LUMA = np.array([0.299, 0.587, 0.114])
_MAX_GRID = 8


@dataclass(frozen=True)
class TaskSpec:
    """Task identity plus the parameters its pairing depends on."""

    name: str
    dimension: int
    shift: tuple[float, ...] | None = None
    angle: float | None = None
    grid_size: int | None = None
    repeat: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.name == "gaussian_shift":
            if self.shift is None or len(self.shift) != self.dimension:
                raise ValueError("gaussian_shift needs a shift vector of length dimension")
        elif self.name == "moons_rotate":
            if self.dimension != 2:
                raise ValueError("moons_rotate is a 2D task")
            if self.angle is None:
                raise ValueError("moons_rotate needs a rotation angle")
        elif self.name == "grid_colorize":
            if self.grid_size is None or not 2 <= self.grid_size <= _MAX_GRID:
                raise ValueError(f"grid_colorize needs grid_size in [2, {_MAX_GRID}]")
            if self.dimension != 3 * self.grid_size**2:
                raise ValueError("grid_colorize dimension must be 3 * grid_size^2")
        elif self.name == "signal_refine":
            if self.repeat is None or self.repeat < 2:
                raise ValueError("signal_refine needs repeat factor k >= 2")
            if self.dimension % self.repeat != 0:
                raise ValueError("signal length must be divisible by the repeat factor")

    @property
    def context_dim(self) -> int:
        return 1 if self.name == "moons_rotate" else 0


def _moons_source(count: int, rng: RngStream) -> Tensor:
    arc = uniform(rng, (count,)) * math.pi
    moon = uniform(rng, (count,)) < 0.5
    x = np.where(moon, np.cos(arc), 1.0 - np.cos(arc))
    y = np.where(moon, np.sin(arc), 0.5 - np.sin(arc))
    pts = np.stack([x, y], axis=1)
    return pts + _MOON_NOISE * gaussian(rng, (count, 2))


def _smooth_signal(count: int, length: int, rng: RngStream) -> Tensor:
    """Random band-limited signals: few Fourier modes with 1/m amplitudes."""
    grid = np.arange(length) / length
    modes = np.arange(1, 5)
    coef_cos = gaussian(rng, (count, modes.size)) / modes
    coef_sin = gaussian(rng, (count, modes.size)) / modes
    angles = 2.0 * math.pi * np.outer(modes, grid)
    return coef_cos @ np.cos(angles) + coef_sin @ np.sin(angles)


def _smooth_grid_channels(count: int, g: int, rng: RngStream) -> Tensor:
    """Smooth random fields on a g x g grid, 3 channels, values roughly in [-1, 1]."""
    axis = (np.arange(g) + 0.5) / g
    modes = [(p, q) for p in range(3) for q in range(3)]
    basis = np.stack(
        [
            np.outer(np.cos(math.pi * p * axis), np.cos(math.pi * q * axis)).ravel()
            / (1.0 + p + q)
            for p, q in modes
        ]
    )  # (modes, g*g)
    coef = gaussian(rng, (count, 3, len(modes))) * 0.5
    return np.einsum("bcm,mg->bcg", coef, basis)  # (count, 3, g*g)


def generate_pairs(spec: TaskSpec, count: int, rng: RngStream) -> EndpointPair:
    """Draw ``count`` i.i.d. pairs for the task as one (count, D) batch.

    A pure function of (spec, count, stream state). Consumes one position of
    the parent stream, so repeated calls (e.g. the trainer pulling batch
    after batch) yield fresh pairs while an identical parent state replays
    the identical batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    stream = rng.split(spec.seed).split(rng.counter)
    rng.counter += 1

    if spec.name == "gaussian_shift":
        x0 = gaussian(stream, (count, spec.dimension))
        x1 = x0 + np.asarray(spec.shift, dtype=np.float64)
        return EndpointPair(x0, x1)

    if spec.name == "moons_rotate":
        x0 = _moons_source(count, stream)
        signs = np.where(uniform(stream, (count,)) < 0.5, -1.0, 1.0)
        angles = signs * spec.angle
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        x1 = np.stack(
            [cos_a * x0[:, 0] - sin_a * x0[:, 1], sin_a * x0[:, 0] + cos_a * x0[:, 1]], axis=1
        )
        return EndpointPair(x0, x1, context=angles[:, None])

    if spec.name == "grid_colorize":
        g = spec.grid_size
        color = _smooth_grid_channels(count, g, stream)  # (count, 3, g*g)
        luma = np.einsum("c,bcg->bg", _LUMA, color)
        gray = np.repeat(luma[:, None, :], 3, axis=1)
        return EndpointPair(gray.reshape(count, -1), color.reshape(count, -1))

    # signal_refine: keep every k-th value of the fine signal, repeat it k times
    k = spec.repeat
    fine = _smooth_signal(count, spec.dimension, stream)
    coarse = np.repeat(fine[:, ::k], k, axis=1)
    return EndpointPair(coarse, fine)


def pair_provider(spec: TaskSpec, zero_context: bool = False):
    """Adapt a task to the trainer's pull-based batch contract.

    ``zero_context`` replaces per-pair context with zeros of the same shape
    (same architecture, conditioning information removed).
    """

    def provider(batch_size: int, rng: RngStream) -> EndpointPair:
        batch = generate_pairs(spec, batch_size, rng)
        if zero_context and batch.context is not None:
            batch = replace(batch, context=np.zeros_like(batch.context))
        return batch

    return provider


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


# The Gram form ||x||^2 + ||y||^2 - 2 x.y of a squared distance carries an
# absolute error of a few ulps of ||x||^2 + ||y||^2. Pairs whose squared
# distance is within this factor of that scale are recomputed from
# coordinate differences, so a pair kept in Gram form is off by at most
# about 1e4 ulps of its squared distance, and only short pairs come near that.
_GRAM_NEAR = 1e-4


def _mean_distance(x: Tensor, y: Tensor, chunk: int) -> float:
    """Mean of ||x_i - y_j|| over all (i, j), with squared distances in Gram form.

    Rows of ``x`` are taken ``chunk`` at a time. A pair with d^2 <=
    _GRAM_NEAR * (||x_i||^2 + max_j ||y_j||^2) is recomputed from its
    coordinate differences, in batches no larger than one Gram block.
    """
    xx = np.einsum("ij,ij->i", x, x)
    yy = np.einsum("ij,ij->i", y, y)
    neg_2yt = -2.0 * y.T
    near_scale = _GRAM_NEAR * (xx + np.max(yy))
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        rows = x[lo : lo + chunk]
        sq = rows @ neg_2yt
        sq += xx[lo : lo + chunk, None]
        sq += yy
        near = np.flatnonzero(sq <= near_scale[lo : lo + chunk, None])
        flat = sq.reshape(-1)
        batch = max(1, sq.size // x.shape[1])
        for start in range(0, near.size, batch):
            i, j = np.divmod(near[start : start + batch], y.shape[0])
            diff = rows[i] - y[j]
            flat[near[start : start + batch]] = np.einsum("ij,ij->i", diff, diff)
        total += float(np.sum(np.sqrt(sq, out=sq)))
    return total / (x.shape[0] * y.shape[0])


def energy_distance(a: Tensor, b: Tensor, chunk: int = 512) -> float:
    """V-statistic energy distance 2 E||a-b|| - E||a-a'|| - E||b-b'||.

    All expectations run over every index pair including the diagonal, so
    identical sets give exactly zero: with a == b the cross term repeats the
    self terms' arithmetic. Each self term is centred on its own set's mean
    and the cross term on a's mean, so a common offset, or one set shifted
    far from the other, leaves each set's within-set pairs at their own
    scale. Pairwise distances are computed in row chunks to bound memory at
    large sample counts.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("energy distance needs nonempty sample sets")
    a_mean = np.mean(a, axis=0)
    a_centred = a - a_mean
    b_centred = b - np.mean(b, axis=0)
    return (
        2.0 * _mean_distance(a_centred, b - a_mean, chunk)
        - _mean_distance(a_centred, a_centred, chunk)
        - _mean_distance(b_centred, b_centred, chunk)
    )


@dataclass(frozen=True)
class EvalReport:
    paired_mse: float
    energy_distance: float
    mean_displacement_error: float
    sample_count: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def evaluate(
    make_field,
    provider,
    schedule: Schedule,
    mode: str,
    noise_scale: float,
    runs: int,
    rng: RngStream,
    record=None,
) -> tuple[Tensor, EvalReport]:
    """Carry fresh pairs to endpoints and score them against their targets.

    ``provider(runs, stream)`` draws the batch of evaluation pairs, as it
    draws training batches (see ``pair_provider``). ``make_field(batch)``
    returns the velocity field over the run states for that batch, e.g.
    ``lambda batch: oracle_field(batch.x1)``; ``record`` is passed to
    ``integrate``. Returns the (runs, D) endpoints and their report.
    Evaluation data comes from the provided stream, which callers keep
    disjoint from training streams. Sampler failures propagate, and a score
    that is not finite (finite endpoints far enough apart overflow float64)
    raises :class:`EvaluationError`.
    """
    batch = provider(runs, rng.split(1))
    endpoints = integrate(
        batch.x0, make_field(batch), schedule, mode, noise_scale, rng.split(2), record
    )
    # overflow here is diagnosed by the finiteness check below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        errors = endpoints - batch.x1
        report = EvalReport(
            paired_mse=float(np.mean(errors * errors)),
            energy_distance=energy_distance(endpoints, batch.x1),
            mean_displacement_error=float(np.sqrt(np.sum(np.mean(errors, axis=0) ** 2))),
            sample_count=len(batch),
        )
    non_finite = [name for name, value in report.to_dict().items() if not math.isfinite(value)]
    if non_finite:
        raise EvaluationError(f"non-finite {' and '.join(non_finite)} of the sampled endpoints")
    return endpoints, report
