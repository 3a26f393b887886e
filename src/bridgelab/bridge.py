"""Closed-form mathematics of the noise-scaled Brownian bridge.

A bridge pinned at ``x0`` (t=0) and ``x1`` (t=1) with global noise scale
``s`` has Gaussian conditional marginals

    X_t ~ N((1-t) x0 + t x1,  s^2 t (1-t) I),

so an intermediate state is constructed from a standard normal draw eps as

    x_t = (1-t) x0 + t x1 + s sqrt(t (1-t)) eps.

The conditional drift toward the target, used as the velocity regression
target, is (x1 - x_t) / (1-t); substituting x_t gives the equivalent form
(x1 - x0) - s sqrt(t / (1-t)) eps, which diverges as t -> 1. Training time
is therefore clamped to [0, 1 - T_CLAMP].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Tensor

# Training-time guard band next to t=1: velocity targets reject t beyond
# 1 - T_CLAMP and uniform time draws stay inside [0, 1 - T_CLAMP).
T_CLAMP = 1e-5


def check_noise_scale(noise_scale: float) -> float:
    """The noise scale s as a float; it must be finite and >= 0."""
    s = float(noise_scale)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"noise scale must be finite and >= 0, got {noise_scale}")
    return s


@dataclass(frozen=True)
class EndpointPair:
    """A batch of B source latents x0 and target latents x1, each (B, D).

    A single pair is a (1, D) batch. ``context`` optionally carries
    conditioning (e.g. a task parameter the pairing depends on): None, or
    one (B, C) row per pair. It is opaque to the bridge math.
    """

    x0: Tensor
    x1: Tensor
    context: Tensor | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.float64)
        if x0.shape != x1.shape:
            raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
        if x0.ndim != 2:
            raise ValueError(f"endpoints must be a (B, D) batch, got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        if self.context is not None:
            context = np.asarray(self.context, dtype=np.float64)
            if context.shape[:-1] != x0.shape[:-1]:
                raise ValueError(
                    f"context shape {context.shape} does not match endpoints {x0.shape}"
                )
            object.__setattr__(self, "context", context)

    @property
    def dimension(self) -> int:
        return self.x0.shape[1]

    def __len__(self) -> int:
        """Number of pairs B."""
        return self.x0.shape[0]


@dataclass(frozen=True)
class BridgeSample:
    """Training-time tuple: time t, the noise draw, and the constructed state.

    ``t`` is an ndarray: shape () for one time shared by the batch, or (B,)
    for one time per pair.
    """

    t: Tensor
    epsilon: Tensor
    state: Tensor


def interpolate(pair: EndpointPair, t: "float | Tensor") -> Tensor:
    """Linear interpolation (1-t) x0 + t x1 at a time in [0, 1] of shape () or (B,)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape not in ((), (len(pair),)):
        raise ValueError(f"time shape {t.shape} is neither () nor ({len(pair)},)")
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise ValueError(f"interpolation time must be in [0, 1], got {t}")
    tc = t[..., None]
    return (1.0 - tc) * pair.x0 + tc * pair.x1


def sample_state(
    pair: EndpointPair, t: "float | Tensor", eps: Tensor, noise_scale: float
) -> BridgeSample:
    """Construct the intermediate bridge state at time t from a noise draw.

    ``t`` has shape () or (B,); ``eps`` has the shape of the endpoints. t=1
    is excluded: the state is defined there (it is x1) but never sampled for
    training since the velocity target is singular at t=1.
    """
    s = check_noise_scale(noise_scale)
    t = np.asarray(t, dtype=np.float64)
    if not ((0.0 <= t) & (t < 1.0)).all():
        raise ValueError(f"state construction requires 0 <= t < 1, got {t}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != pair.x0.shape:
        raise ValueError(f"noise shape {eps.shape} does not match endpoints {pair.x0.shape}")
    tc = t[..., None]
    state = interpolate(pair, t) + s * np.sqrt(tc * (1.0 - tc)) * eps
    return BridgeSample(t=t, epsilon=eps, state=state)


def velocity_target(pair: EndpointPair, sample: BridgeSample) -> Tensor:
    """Conditional drift toward the target: (x1 - state) / (1 - t).

    Rejects t beyond the clamp band, where the target is numerically
    unbounded, and a NaN t.
    """
    tc = np.asarray(sample.t, dtype=np.float64)[..., None]
    if not (tc <= 1.0 - T_CLAMP).all():
        raise ValueError(f"velocity target undefined for t > {1.0 - T_CLAMP!r}, got t={sample.t}")
    return (pair.x1 - sample.state) / (1.0 - tc)


def displacement_target(pair: EndpointPair, sample: BridgeSample) -> Tensor:
    """Remaining displacement to the target: x1 - state."""
    return pair.x1 - sample.state


def marginal_variance(t: "float | Tensor", noise_scale: float) -> "float | Tensor":
    """Per-coordinate variance of the bridge state: s^2 t (1-t), elementwise in t.

    Zero at both endpoints (the process is pinned) and maximal at t=0.5.
    """
    return conditional_variance(0.0, t, noise_scale)


def conditional_variance(
    t1: "float | Tensor", t2: "float | Tensor", noise_scale: float
) -> "float | Tensor":
    """Per-coordinate variance of the state at t2 given the state at t1.

    From the bridge covariance Cov(B_t1, B_t2) = t1 (1-t2):

        Var(X_t2 | X_t1) = s^2 (t2 - t1)(1 - t2) / (1 - t1).

    Reduces to the marginal variance at t1 = 0. Elementwise in (t1, t2).
    """
    s = check_noise_scale(noise_scale)
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    if not ((0.0 <= t1) & (t1 <= t2) & (t2 <= 1.0) & (t1 < 1.0)).all():
        raise ValueError(f"conditional variance requires 0 <= t1 <= t2 <= 1, t1 < 1: {t1}, {t2}")
    return s * s * (t2 - t1) * (1.0 - t2) / (1.0 - t1)
