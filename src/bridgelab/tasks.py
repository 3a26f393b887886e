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
from .numerics import (
    NumericalError,
    RngStream,
    Tensor,
    _check_u64,
    _finite_real,
    _integer,
    gaussian,
    uniform,
)
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
        object.__setattr__(self, "dimension", _integer("dimension", self.dimension))
        object.__setattr__(self, "seed", _check_u64("seed", self.seed))
        for name in ("grid_size", "repeat"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.shift is not None:
            if not isinstance(self.shift, (tuple, list, np.ndarray)):
                raise ValueError(f"shift must be a sequence of real numbers, got {self.shift!r}")
            shift = tuple(_finite_real(f"shift[{i}]", c) for i, c in enumerate(self.shift))
            object.__setattr__(self, "shift", shift)
        if self.angle is not None:
            object.__setattr__(self, "angle", _finite_real("angle", self.angle))
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.name == "gaussian_shift":
            if self.shift is None or len(self.shift) != self.dimension:
                n = len(self.shift or ())
                raise ValueError(f"gaussian_shift needs a shift of length {self.dimension}, got {n}")
        elif self.name == "moons_rotate":
            if self.dimension != 2:
                raise ValueError(f"moons_rotate is a 2D task, got dimension {self.dimension}")
            if self.angle is None:
                raise ValueError("moons_rotate needs a rotation angle")
        elif self.name == "grid_colorize":
            if self.grid_size is None or not 2 <= self.grid_size <= _MAX_GRID:
                raise ValueError(f"grid_colorize needs grid_size in [2, {_MAX_GRID}], got {self.grid_size}")
            if self.dimension != 3 * self.grid_size**2:
                raise ValueError(f"grid_colorize dimension must be {3 * self.grid_size**2}, got {self.dimension}")
        elif self.name == "signal_refine":
            if self.repeat is None or self.repeat < 2:
                raise ValueError(f"signal_refine needs repeat factor k >= 2, got {self.repeat}")
            if self.dimension % self.repeat != 0:
                raise ValueError(f"signal length {self.dimension} is not a multiple of repeat factor {self.repeat}")

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
        raise ValueError(f"count must be >= 1, got {count}")
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
# Near pairs are recomputed at most this many values at a time.
_NEAR_BATCH = 2**16
# Distances are summed by np.sum over blocks of this many rows of x, so it
# fixes the order of the pairwise summation and with it every bit of a score.
_BLOCK_ROWS = 512
# A block is formed in tiles of whole rows; a tile sums at most this many of
# the block's values, or this many rows of them when rows are longer: thinner
# products run far below BLAS speed (two (8192, 192) sets took 1.9 s in
# 16-row tiles against 1.2 s in 128-row ones).
_TILE_VALUES = 2**17
_TILE_ROWS = 128


def _pairwise_sum(leaf, start: int, stop: int, span: int) -> float:
    """np.sum of entries start..stop-1 of a flat float64 array, given as
    ``leaf(lo, hi)``, the np.sum of entries lo..hi-1, for ranges of at most
    ``span`` >= 128 entries. numpy's pairwise summation splits n > 128 entries
    at n // 2 rounded down to a multiple of 8; so does this, and each part it
    hands to ``leaf`` is a subtree of that summation, summed in the same order.
    """
    n = stop - start
    if n <= span:
        return leaf(start, stop)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, start + half, span) + _pairwise_sum(
        leaf, start + half, stop, span
    )


def _mean_distance(x: Tensor, y: Tensor) -> float:
    """Mean of ||x_i - y_j|| over all (i, j), with squared distances in Gram form.

    The distances of each block of _BLOCK_ROWS rows of ``x`` are summed as one
    np.sum of the flattened block, but the block is never formed: each range
    of at most span = max(2^17, 128 len(y)) entries that ``_pairwise_sum``
    leaves is summed from a tile of the rows it touches, at most span //
    len(y) + 2 of them. A tile's rows are scaled by -2 and multiplied by y.T
    into one reused buffer; a pair with d^2 <= _GRAM_NEAR * (||x_i||^2 +
    max_j ||y_j||^2) is recomputed from its coordinate differences, 2^16 // D
    pairs at a time. Beside ``x`` and ``y``, a call holds the tile, its scaled
    rows, a bool mask of the tile and the flat indices of its near pairs.
    """
    m, d = y.shape
    xx = np.einsum("ij,ij->i", x, x)
    yy = np.einsum("ij,ij->i", y, y)
    near_scale = _GRAM_NEAR * (xx + np.max(yy))
    span = max(_TILE_VALUES, _TILE_ROWS * m)
    tile_rows = min(span // m + 2, _BLOCK_ROWS, x.shape[0])
    tile = np.empty(tile_rows * m)
    lhs = np.empty((tile_rows, d))
    batch = max(1, _NEAR_BATCH // d)

    def leaf(start: int, stop: int) -> float:
        """np.sum of distances start..stop-1 of the flattened (len(x), m) matrix."""
        lo, hi = start // m, (stop - 1) // m + 1
        rows = x[lo:hi]
        # -2 is a power of two, so each product is that of rows @ (-2 y.T), bit for bit
        scaled = np.multiply(rows, -2.0, out=lhs[: hi - lo])
        sq = np.matmul(scaled, y.T, out=tile[: (hi - lo) * m].reshape(hi - lo, m))
        sq += xx[lo:hi, None]
        sq += yy
        near = np.flatnonzero(sq <= near_scale[lo:hi, None])
        flat = sq.reshape(-1)
        for first in range(0, near.size, batch):
            pairs = near[first : first + batch]
            i, j = np.divmod(pairs, m)
            diff = rows[i] - y[j]
            flat[pairs] = np.einsum("ij,ij->i", diff, diff)
        part = flat[start - lo * m : stop - lo * m]
        return float(np.sum(np.sqrt(part, out=part)))

    total = 0.0
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        total += _pairwise_sum(leaf, lo * m, min(lo + _BLOCK_ROWS, x.shape[0]) * m, span)
    return total / (x.shape[0] * m)


def energy_distance(a: Tensor, b: Tensor) -> float:
    """V-statistic energy distance 2 E||a-b|| - E||a-a'|| - E||b-b'||.

    ``a`` and ``b`` are (n, D) sample sets with D >= 1; a 1-D array is one
    point. All expectations run over every index pair including the diagonal,
    so identical sets give exactly zero: with a == b the cross term repeats the
    self terms' arithmetic. Each self term is centred on its own set's mean
    and the cross term on a's mean, so a common offset, or one set shifted
    far from the other, leaves each set's within-set pairs at their own
    scale. Pairwise distances are formed in tiles of whole rows that sum at
    most max(2^17, 128 n) values each, n the length of the term's second
    set, and their sums combine in exactly the order of one np.sum over each
    512-row block (see ``_mean_distance``), so the score does not depend on
    the tiling. Beside a tile, a call holds at most two centred (n, D)
    copies, the tile's scaled rows, its bool mask and the indices of its
    near pairs, so memory grows with the set sizes, and past 128 rows not
    with their product.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] == 0 or b.shape[1] == 0:
        raise ValueError(
            "energy distance needs (n, D) sample sets with D >= 1, "
            f"got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("energy distance needs nonempty sample sets")
    a_mean = np.mean(a, axis=0)
    a_centred = a - a_mean
    cross = _mean_distance(a_centred, b - a_mean)
    within_a = _mean_distance(a_centred, a_centred)
    del a_centred  # freed before b's copy, so no more than two copies are ever alive
    b_centred = b - np.mean(b, axis=0)
    return 2.0 * cross - within_a - _mean_distance(b_centred, b_centred)


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
    Once ``integrate`` returns, the batch is released but for its targets, so
    scoring holds the endpoints, the targets and ``energy_distance``'s arrays
    (two centred copies and one tile of at most max(2^17, 128 runs) + 2 runs
    distances with its scaled rows, mask and near-pair indices). With a
    network field, each step's input rows are freed once the network's first
    layer has read them (see ``model.forward``; CPython >= 3.11), so a step
    holds the batch, the states, the drift and the next states, and no
    (runs, feature_dim) rows beside the hidden layers. Evaluation data
    comes from the provided stream, which callers keep disjoint from
    training streams. Sampler failures propagate, and a score
    that is not finite (finite endpoints far enough apart overflow float64)
    raises :class:`NumericalError`.
    """
    batch = provider(runs, rng.split(1))
    endpoints = integrate(
        batch.x0, make_field(batch), schedule, mode, noise_scale, rng.split(2), record
    )
    # scoring reads only the targets: x0 and the context are released first
    targets = batch.x1
    del batch
    # overflow here is diagnosed by the finiteness check below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        # scored before the errors exist, so its tile and they never coexist
        distance = energy_distance(endpoints, targets)
        errors = endpoints - targets
        report = EvalReport(
            paired_mse=float(np.mean(errors * errors)),
            energy_distance=distance,
            mean_displacement_error=float(np.sqrt(np.sum(np.mean(errors, axis=0) ** 2))),
            sample_count=len(targets),
        )
    non_finite = [name for name, value in report.to_dict().items() if not math.isfinite(value)]
    if non_finite:
        raise NumericalError(f"non-finite {' and '.join(non_finite)} of the sampled endpoints")
    return endpoints, report
