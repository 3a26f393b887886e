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

from .errors import ClampedTimeError, DomainError
from .numerics import Tensor

# Training-time guard band next to t=1: velocity targets reject t beyond
# 1 - T_CLAMP and uniform time draws stay inside [0, 1 - T_CLAMP).
T_CLAMP = 1e-5


def check_noise_scale(noise_scale: float) -> float:
    """The noise scale s as a float; it must be finite and >= 0."""
    s = float(noise_scale)
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"noise scale must be finite and >= 0, got {noise_scale}")
    return s


@dataclass(frozen=True)
class EndpointPair:
    """Source latent x0 and target latent x1 of identical shape.

    One pair has endpoints of shape (D,); a batch of B pairs is one
    ``EndpointPair`` with a leading batch axis, (B, D). ``context``
    optionally carries conditioning (e.g. a task parameter the pairing
    depends on): None, (C,) for one pair or (B, C) for a batch. It is opaque
    to the bridge math.
    """

    x0: Tensor
    x1: Tensor
    context: Tensor | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.float64)
        if x0.shape != x1.shape:
            raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
        if x0.ndim not in (1, 2):
            raise ValueError(f"endpoints must be (D,) or (B, D), got shape {x0.shape}")
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
        return self.x0.shape[-1]

    def __len__(self) -> int:
        """Number of pairs: 1 for a single pair, B for a batch."""
        return 1 if self.x0.ndim == 1 else self.x0.shape[0]


@dataclass(frozen=True)
class BridgeSample:
    """Training-time tuple: time t, the noise draw, and the constructed state.

    ``t`` is a float, or one time per pair (B,) for a batch.
    """

    t: "float | Tensor"
    epsilon: Tensor
    state: Tensor


def _times(t: "float | Tensor") -> "float | Tensor":
    """t as a float, or as a (B, 1) column that broadcasts over the coordinates."""
    t = np.asarray(t, dtype=np.float64)
    return t[:, None] if t.ndim else float(t)


def _holds(ok: "bool | np.bool_ | Tensor") -> bool:
    """Whether a range comparison holds everywhere. A comparison of floats is
    a plain bool and is read as is; a numpy result goes through ``.all()``,
    which skips the ~6 us dispatch of ``np.all`` on a scalar."""
    return ok if ok.__class__ is bool else bool(ok.all())


def interpolate(pair: EndpointPair, t: "float | Tensor") -> Tensor:
    """Deterministic linear interpolation (1-t) x0 + t x1 for t in [0, 1]."""
    tc = _times(t)
    if not _holds((0.0 <= tc) & (tc <= 1.0)):
        raise DomainError(f"interpolation time must be in [0, 1], got {t}")
    return (1.0 - tc) * pair.x0 + tc * pair.x1


def sample_state(
    pair: EndpointPair, t: "float | Tensor", eps: Tensor, noise_scale: float
) -> BridgeSample:
    """Construct the intermediate bridge state at time t from a noise draw.

    ``t`` is a float or one time per pair (B,); ``eps`` has the shape of the
    endpoints. t=1 is excluded: the state is defined there (it is x1) but
    never sampled for training since the velocity target is singular at t=1.
    """
    s = check_noise_scale(noise_scale)
    tc = _times(t)
    if not _holds((0.0 <= tc) & (tc < 1.0)):
        raise DomainError(f"state construction requires 0 <= t < 1, got {t}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != pair.x0.shape:
        raise ValueError(f"noise shape {eps.shape} does not match endpoints {pair.x0.shape}")
    state = interpolate(pair, t) + s * np.sqrt(tc * (1.0 - tc)) * eps
    return BridgeSample(t=tc if isinstance(tc, float) else tc[:, 0], epsilon=eps, state=state)


def velocity_target(pair: EndpointPair, sample: BridgeSample) -> Tensor:
    """Conditional drift toward the target: (x1 - state) / (1 - t).

    Rejects t beyond the clamp band, where the target is numerically
    unbounded, and a NaN t.
    """
    if not _holds(sample.t <= 1.0 - T_CLAMP):
        raise ClampedTimeError(
            f"velocity target undefined for t > {1.0 - T_CLAMP!r}, got t={sample.t}"
        )
    return (pair.x1 - sample.state) / (1.0 - _times(sample.t))


def displacement_target(pair: EndpointPair, sample: BridgeSample) -> Tensor:
    """Remaining displacement to the target: x1 - state."""
    return pair.x1 - sample.state


def marginal_variance(t: float, noise_scale: float) -> float:
    """Per-coordinate variance of the bridge state: s^2 t (1-t).

    Zero at both endpoints (the process is pinned) and maximal at t=0.5.
    """
    s = check_noise_scale(noise_scale)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"marginal variance requires t in [0, 1], got {t}")
    return s * s * t * (1.0 - t)


def conditional_variance(t1: float, t2: float, noise_scale: float) -> float:
    """Per-coordinate variance of the state at t2 given the state at t1.

    From the bridge covariance Cov(B_t1, B_t2) = t1 (1-t2):

        Var(X_t2 | X_t1) = s^2 (t2 - t1)(1 - t2) / (1 - t1).

    Reduces to the marginal variance at t1 = 0.
    """
    s = check_noise_scale(noise_scale)
    if not (0.0 <= t1 <= t2 <= 1.0):
        raise DomainError(f"conditional variance requires 0 <= t1 <= t2 <= 1, got ({t1}, {t2})")
    if t1 >= 1.0:
        raise DomainError("conditioning time t1 must be < 1")
    return s * s * (t2 - t1) * (1.0 - t2) / (1.0 - t1)

