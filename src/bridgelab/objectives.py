"""Training targets and losses: displacement, raw velocity, stabilized velocity.

The raw velocity target has conditional second moment

    E ||u_t||^2 = ||x1 - x0||^2 + s^2 t D / (1 - t),

which diverges as t -> 1, while the displacement target's magnitude decays
like (1-t). The stabilized objective divides the velocity residual by the
per-sample factor

    alpha^2 = 1 + s^2 t D / ((1 - t) ||x1 - x0||^2),

chosen exactly so that the rescaled target u_t / alpha has constant expected
squared magnitude ||x1 - x0||^2 at every t. The network always predicts raw
velocity; only the loss residual is rescaled.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .bridge import (
    T_CLAMP,
    BridgeSample,
    EndpointPair,
    check_noise_scale,
    displacement_target,
    sample_state,
    velocity_target,
)
from .numerics import RngStream, Tensor, gaussian

# Guard for coincident endpoints (legal in translation data: unchanged
# regions give x0 == x1). Keeps alpha finite instead of rejecting the pair.
SQNORM_FLOOR_PER_DIM = 1e-8


class ObjectiveKind(str, Enum):
    DISPLACEMENT = "displacement"
    VELOCITY = "velocity"
    STABILIZED_VELOCITY = "stabilized_velocity"


def alpha_factor(pair: EndpointPair, t: "float | Tensor", noise_scale: float) -> Tensor:
    """Per-sample normalization factor alpha^2 of the stabilized objective.

    alpha^2 = 1 + s^2 t D / ((1-t) max(||x1-x0||^2, floor)) >= 1, with
    equality iff t=0 or s=0. Computed per pair, never batch-pooled, and
    elementwise over the pairs (B,) broadcast against t: a () or (B,) t
    gives (B,); a (1, D) pair and a (G,) grid of times give (G,).
    """
    t = np.asarray(t, dtype=np.float64)
    if not ((0.0 <= t) & (t <= 1.0 - T_CLAMP)).all():
        raise ValueError(f"alpha factor requires 0 <= t <= {1.0 - T_CLAMP!r}, got {t}")
    s = check_noise_scale(noise_scale)
    diff = pair.x1 - pair.x0
    dist_sq = np.maximum(np.sum(diff * diff, axis=-1), SQNORM_FLOOR_PER_DIM * pair.dimension)
    return 1.0 + (s * s * t * pair.dimension) / ((1.0 - t) * dist_sq)


def raw_target(kind: ObjectiveKind, pair: EndpointPair, sample: BridgeSample) -> Tensor:
    """The unnormalized regression target the network of the given kind predicts.

    For the stabilized objective this is the raw velocity target: the
    rescaling applies to the residual in the loss, not to the prediction.
    """
    if kind is ObjectiveKind.DISPLACEMENT:
        return displacement_target(pair, sample)
    return velocity_target(pair, sample)


def objective_alpha_sq(
    kind: ObjectiveKind, pair: EndpointPair, t: "float | Tensor", noise_scale: float
) -> Tensor:
    """The alpha^2 that divides the objective's squared residual, (B,):
    alpha_factor for the stabilized objective, ones for the others."""
    if kind is ObjectiveKind.STABILIZED_VELOCITY:
        return alpha_factor(pair, t, noise_scale)
    return np.ones(len(pair))


def loss(prediction: Tensor, targets: Tensor, alpha_sq: Tensor) -> tuple[Tensor, Tensor]:
    """Per-pair squared-error losses ||(pred - target) / alpha||^2 over a
    (B, D) batch, and the gradient of their batch mean with respect to the
    prediction.

    ``targets`` is ``raw_target`` and ``alpha_sq`` is ``objective_alpha_sq``
    for the objective, so

    displacement:        ||pred - (x1 - x_t)||^2
    velocity:            ||pred - u_t||^2
    stabilized velocity: ||(pred - u_t) / alpha||^2

    The losses are (B,). The gradient has the prediction's shape:
    2 (pred - target) / (alpha^2 B) for each of the B pairs.
    """
    prediction = np.asarray(prediction, dtype=np.float64)
    if prediction.ndim != 2 or prediction.shape != np.shape(targets):
        raise ValueError(f"prediction shape {prediction.shape} is not the targets' (B, D) shape")
    weight = 1.0 / np.asarray(alpha_sq, dtype=np.float64)
    residual = prediction - targets
    losses = np.sum(residual * residual, axis=-1) * weight
    return losses, 2.0 * residual * (weight / len(prediction))[..., None]


# ---------------------------------------------------------------------------
# Loss-contribution profiles S(t) and C(t)
# ---------------------------------------------------------------------------

# C(t) is always normalized by the integral of S up to this time.
PROFILE_T_MAX = 0.999


def expected_target_sqnorm(
    kind: ObjectiveKind, pair: EndpointPair, noise_scale: float, t: "float | Tensor"
) -> Tensor:
    """Closed-form S(t) = E ||target_t||^2 over the noise draw, endpoints fixed.

    velocity:     ||x1-x0||^2 + s^2 t D / (1-t)
    displacement: (1-t)^2 ||x1-x0||^2 + s^2 t (1-t) D
    stabilized:   velocity form divided by alpha^2 (constant ||x1-x0||^2
                  whenever the endpoint distance is above the degeneracy floor)

    Elementwise over the pairs broadcast against t, as for ``alpha_factor``.
    """
    t = np.asarray(t, dtype=np.float64)
    if not ((0.0 <= t) & (t <= 1.0 - T_CLAMP)).all():
        raise ValueError(f"profile time must be in [0, {1.0 - T_CLAMP!r}], got {t}")
    s = check_noise_scale(noise_scale)
    diff = pair.x1 - pair.x0
    dist_sq = np.sum(diff * diff, axis=-1)
    d = pair.dimension
    if kind is ObjectiveKind.VELOCITY:
        return dist_sq + s * s * t * d / (1.0 - t)
    if kind is ObjectiveKind.DISPLACEMENT:
        return (1.0 - t) ** 2 * dist_sq + s * s * t * (1.0 - t) * d
    velocity_sqnorm = dist_sq + s * s * t * d / (1.0 - t)
    return velocity_sqnorm / alpha_factor(pair, t, s)


def _mc_target_sqnorms(
    kind: ObjectiveKind,
    pair: EndpointPair,
    noise_scale: float,
    t: float,
    draws: int,
    rng: RngStream,
) -> Tensor:
    """Per-draw ||raw_target||^2 / alpha^2 for one (1, D) pair at time t, (draws,).

    Their mean is the Monte-Carlo estimate of S(t); the pair is broadcast
    over the draws, so each draw runs the (B, D) state, target and alpha^2
    code the trainer uses.
    """
    eps = gaussian(rng, (draws, pair.dimension))
    drawn = EndpointPair(np.broadcast_to(pair.x0, eps.shape), np.broadcast_to(pair.x1, eps.shape))
    targets = raw_target(kind, drawn, sample_state(drawn, t, eps, noise_scale))
    return np.sum(targets * targets, axis=-1) / objective_alpha_sq(kind, drawn, t, noise_scale)


def target_profile(
    kind: ObjectiveKind,
    pair: EndpointPair,
    noise_scale: float,
    t_grid: "np.ndarray | list[float]",
    mc_samples: int = 0,
    rng: RngStream | None = None,
) -> tuple[Tensor, Tensor]:
    """S(t) and C(t) for one (1, D) pair on a grid, each shaped like the grid.

    S(t) = E ||target_t||^2 is the instantaneous contribution, and C(t) its
    cumulative share, accumulated by trapezoidal integration.

    With ``mc_samples == 0`` the closed forms above are used; otherwise S is
    estimated by Monte-Carlo over the noise draw with ``mc_samples`` draws
    per grid point on independent substreams (the closed form remains the
    cross-check oracle either way). C is normalized by the trapezoidal
    integral over the full grid, so the grid should extend to 0.999 for the
    canonical normalization. An S value or normalization integral that
    overflows float64 raises ValueError.
    """
    if len(pair) != 1:
        raise ValueError(f"a profile is of one pair, got {len(pair)}")
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.size < 2:
        raise ValueError(f"profile grid needs at least 2 points, got {grid.size}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("profile grid must be strictly increasing")
    if grid[0] < 0.0 or grid[-1] > PROFILE_T_MAX:
        raise ValueError(f"profile grid must lie within [0, {PROFILE_T_MAX}]")
    if mc_samples < 0:
        raise ValueError(f"Monte-Carlo draw count must be >= 0, got {mc_samples}")
    if mc_samples > 0 and rng is None:
        raise ValueError("Monte-Carlo profile estimation needs an RngStream")

    # Overflow shows up as a non-finite integral, which is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        if mc_samples > 0:
            sqnorms = (
                _mc_target_sqnorms(kind, pair, noise_scale, t, mc_samples, rng.split(i))
                for i, t in enumerate(grid.tolist())
            )
            s_values = np.array([np.mean(v) for v in sqnorms])
        else:
            s_values = expected_target_sqnorm(kind, pair, noise_scale, grid)
        cumulative = np.concatenate(
            ([0.0], np.cumsum(np.diff(grid) * (s_values[1:] + s_values[:-1]) / 2.0))
        )
    # Every S value is >= 0, so one that is not finite makes the integral so too.
    total = cumulative[-1]
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError("profile S(t) or its normalization integral is not finite and positive")
    return s_values, cumulative / total


def default_profile_grid(points: int = 1000) -> np.ndarray:
    """Uniform grid on [0, 0.999], dense enough for the divergent velocity profile."""
    return np.linspace(0.0, PROFILE_T_MAX, points)
