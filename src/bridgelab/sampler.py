"""Stochastic integration of a velocity field from source toward target.

Each transition over [t_k, t_{k+1}] applies

    x <- x + dt * v(x, t_k) + eta * eps,    eps ~ N(0, I)

where the noise amplitude eta depends on the mode:

    standard:  eta = s * sqrt(dt)                      (locally constant variance)
    corrected: eta = s * sqrt(dt * (1 - t_{k+1}) / (1 - t_k))

The corrected amplitude matches the bridge's conditional variance over the
step, decays as t -> 1, and is exactly zero on the final step (t_{k+1} = 1),
so with the analytic conditional drift (x1 - x) / (1 - t) the sampler lands
on x1 exactly. The standard amplitude leaves residual endpoint noise of
variance s^2 * dt_{N-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .bridge import EndpointPair
from .errors import DomainError, IntegrationError
from .numerics import RngStream, Tensor, gaussian
from .schedules import Schedule

MODE_STANDARD = "standard"
MODE_CORRECTED = "corrected"
_MODES = (MODE_STANDARD, MODE_CORRECTED)


class VelocityField(Protocol):
    """Evaluation contract: (states (B, D), time) -> velocities (B, D).

    Conditioning, when present, is closed over by the callable; the sampler
    never inspects it.
    """

    def __call__(self, states: Tensor, t: float) -> Tensor: ...


def oracle_field(x1: Tensor) -> VelocityField:
    """Analytic conditional drift (x1 - x) / (1 - t), available when x1 is known.

    ``x1`` is one target (D,) shared by every run or one target row per run
    (B, D). Ground-truth field for sampler verification; undefined at t = 1
    (the sampler only ever evaluates fields at t_k < 1).
    """
    x1 = np.asarray(x1, dtype=np.float64)

    def field(states: Tensor, t: float) -> Tensor:
        return (x1 - states) / (1.0 - t)

    return field


@dataclass(frozen=True)
class SamplerStep:
    """One planned transition: index, interval, step size, and noise amplitude."""

    k: int
    t_start: float
    t_end: float
    dt: float
    eta: float


def noise_amplitude(mode: str, t_start: float, t_end: float, noise_scale: float) -> float:
    """Per-step noise amplitude eta for the given mode."""
    if mode not in _MODES:
        raise ValueError(f"unknown sampler mode {mode!r}")
    dt = t_end - t_start
    if dt <= 0.0 or t_start >= 1.0:
        raise DomainError(f"invalid step interval [{t_start}, {t_end}]")
    s = float(noise_scale)
    if mode == MODE_STANDARD:
        return s * math.sqrt(dt)
    return s * math.sqrt(dt * (1.0 - t_end) / (1.0 - t_start))


def plan_steps(schedule: Schedule, mode: str, noise_scale: float) -> list[SamplerStep]:
    """Expand a schedule into per-step transitions with precomputed amplitudes."""
    pts = schedule.points
    return [
        SamplerStep(
            k=k,
            t_start=float(pts[k]),
            t_end=float(pts[k + 1]),
            dt=float(pts[k + 1] - pts[k]),
            eta=noise_amplitude(mode, float(pts[k]), float(pts[k + 1]), noise_scale),
        )
        for k in range(schedule.n_steps)
    ]


def integrate(
    x0: Tensor,
    field: VelocityField,
    schedule: Schedule,
    mode: str,
    noise_scale: float,
    rng: RngStream,
    record: Callable[[int, Tensor], None] | None = None,
) -> Tensor:
    """Advance a (B, D) block of states across the full schedule in lockstep.

    Per-step noise for the whole block comes from one stream and is not drawn
    on noiseless steps (eta = 0), so results are reproducible and independent
    of any run ordering. ``record(k, states)`` sees the block at every grid
    point t_k, k = 0..N; the returned block is the one recorded at k = N.
    Non-finite drifts or states raise :class:`IntegrationError` carrying the
    failing step index.
    """
    states = np.asarray(x0, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"x0 must be a (B, D) block, got shape {states.shape}")
    if record is not None:
        record(0, states)
    for planned in plan_steps(schedule, mode, noise_scale):
        drift = np.asarray(field(states, planned.t_start), dtype=np.float64)
        if not np.all(np.isfinite(drift)):
            raise IntegrationError(
                f"velocity field returned non-finite values at step {planned.k}",
                step_index=planned.k,
            )
        states = states + planned.dt * drift
        if planned.eta != 0.0:
            states += planned.eta * gaussian(rng, states.shape)
        if not np.all(np.isfinite(states)):
            raise IntegrationError(
                f"state became non-finite at step {planned.k}", step_index=planned.k
            )
        if record is not None:
            record(planned.k + 1, states)
    return states


@dataclass(frozen=True)
class EndpointStats:
    """Aggregate endpoint behavior over repeated stochastic runs.

    mse:      mean of (endpoint - x1)^2 over runs and coordinates.
    variance: per-coordinate variance over runs, averaged over coordinates.
    """

    mse: float
    variance: float


def endpoint_statistics(
    mode: str,
    field: VelocityField,
    pair: EndpointPair,
    schedule: Schedule,
    noise_scale: float,
    runs: int,
    rng: RngStream,
) -> EndpointStats:
    """Endpoint MSE against x1 and endpoint variance over repeated runs."""
    if runs < 2:
        raise ValueError("endpoint statistics need at least 2 runs")
    endpoints = integrate(
        np.broadcast_to(pair.x0, (runs, pair.dimension)), field, schedule, mode, noise_scale, rng
    )
    errors = endpoints - pair.x1
    return EndpointStats(
        mse=float(np.mean(errors * errors)),
        variance=float(np.mean(np.var(endpoints, axis=0, ddof=1))),
    )
