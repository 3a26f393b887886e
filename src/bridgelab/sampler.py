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

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .bridge import EndpointPair
from .errors import IntegrationError
from .numerics import RngStream, Tensor, gaussian
from .schedules import Schedule


class VelocityField(Protocol):
    """Evaluation contract: (states (B, D), time) -> velocities (B, D).

    Conditioning, when present, is closed over by the callable; the sampler
    never inspects it.
    """

    def __call__(self, states: Tensor, t: float) -> Tensor: ...


def oracle_field(x1: Tensor) -> VelocityField:
    """Analytic conditional drift (x1 - x) / (1 - t), available when x1 is known.

    ``x1`` is one (1, D) target shared by every run or one target row per run
    (B, D). Ground-truth field for sampler verification; undefined at t = 1
    (the sampler only ever evaluates fields at t_k < 1).
    """
    x1 = np.asarray(x1, dtype=np.float64)

    def field(states: Tensor, t: float) -> Tensor:
        return (x1 - states) / (1.0 - t)

    return field


def plan_steps(schedule: Schedule, mode: str, noise_scale: float) -> tuple[Tensor, Tensor]:
    """Step sizes dt and noise amplitudes eta of the schedule's N transitions, (N,) each."""
    t = schedule.points
    dt = np.diff(t)
    s = float(noise_scale)
    if mode == "standard":
        return dt, s * np.sqrt(dt)
    if mode == "corrected":
        return dt, s * np.sqrt(dt * (1.0 - t[1:]) / (1.0 - t[:-1]))
    raise ValueError(f"unknown sampler mode {mode!r}")


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
    Each step builds a fresh array, so a recorder may keep what it is given:
    no later step writes into it, and ``x0`` (the block at k = 0) is never
    written.
    Non-finite drifts or states raise :class:`IntegrationError` carrying the
    failing step index.
    """
    states = np.asarray(x0, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"x0 must be a (B, D) block, got shape {states.shape}")
    if record is not None:
        record(0, states)
    dt, eta = plan_steps(schedule, mode, noise_scale)
    # overflow here is diagnosed by the finiteness checks below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(schedule.points[:-1].tolist()):
            drift = np.asarray(field(states, t), dtype=np.float64)
            if not np.all(np.isfinite(drift)):
                raise IntegrationError(
                    f"velocity field returned non-finite values at step {k}", step_index=k
                )
            # one fresh array per step; addition commutes, so these are the
            # bits of states + dt[k] * drift. The drift and the noise are
            # released here, not held through the next step's field call.
            step = dt[k] * drift
            del drift
            step += states
            states = step
            if eta[k] != 0.0:
                noise = gaussian(rng, states.shape)
                noise *= eta[k]
                states += noise
                del noise
            if not np.all(np.isfinite(states)):
                raise IntegrationError(f"state became non-finite at step {k}", step_index=k)
            if record is not None:
                record(k + 1, states)
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
    """Endpoint MSE against x1 and endpoint variance over repeated runs of one (1, D) pair."""
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
