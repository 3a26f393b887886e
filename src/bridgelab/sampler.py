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

The noise eta * eps of a step depends on no state, so it can be drawn
before the field is evaluated. Where the field states its network cost
(``forward_macs``, as fields from ``model.velocity_field_from`` do), a noise
block has at least ``_WORKER_VALUES`` values and some step is noisy,
``integrate`` passes ``numerics.prefetch`` the network's B ``forward_macs``
a step, which decides whether a worker draws step k + 1's noise while the
calling thread evaluates the field at step k. Either way the noise comes
from the same stream in the same order, so every state gets the same bits
(README, "Two cores: training and sampling").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .bridge import EndpointPair, check_noise_scale
from .numerics import NumericalError, RngStream, Tensor, gaussian, prefetch
from .schedules import Schedule

# Values in a noise block, B D, from which a worker may draw it. Below it a
# step is Python call overhead, which holds the GIL, and at D = 2 no product
# of the field on so few rows is large enough for OpenBLAS to split, so
# holding it to one thread stops no spin.
_WORKER_VALUES = 2**10


class VelocityField(Protocol):
    """Evaluation contract: (states (B, D), time) -> velocities (B, D).

    Conditioning, when present, is closed over by the callable; the sampler
    never inspects it. A field may state its network cost as an int
    attribute ``forward_macs``, the multiply-adds per state row; ``integrate``
    reads it to decide where to draw its noise.
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
    s = check_noise_scale(noise_scale)
    if mode == "standard":
        return dt, s * np.sqrt(dt)
    if mode == "corrected":
        return dt, s * np.sqrt(dt * (1.0 - t[1:]) / (1.0 - t[:-1]))
    raise ValueError(f"unknown sampler mode {mode!r}")


def _scaled_noise(rng: RngStream, shape: tuple[int, int], amplitude: float) -> Tensor:
    """One step's noise eta eps, scaled in place. A function, so that no
    generator frame holds the block through the next step's field call."""
    noise = gaussian(rng, shape)
    noise *= amplitude
    return noise


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

    Where ``numerics.prefetch`` runs the noise ahead, it is drawn on a worker
    thread, at most two steps ahead of the field, and reaches the states
    through two buffers that the calling thread owns; otherwise each step's
    noise is drawn on the calling thread after its drift. The worker is
    joined, and OpenBLAS's thread count restored, before ``integrate``
    returns or raises. Either way ``rng.counter`` ends
    where the calling thread alone leaves it: past the draws of the steps
    that ran, also after an error, whatever the worker drew ahead.
    Non-finite drifts or states raise :class:`NumericalError` naming the
    failing step.
    """
    states = np.asarray(x0, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"x0 must be a (B, D) block, got shape {states.shape}")
    dt, eta = plan_steps(schedule, mode, noise_scale)
    if record is not None:
        record(0, states)
    shape, start, drawn = states.shape, rng.counter, 0
    field_macs = getattr(field, "forward_macs", None)
    floor = field_macs is not None and states.size >= _WORKER_VALUES and bool(np.any(eta != 0.0))
    macs = shape[0] * field_macs if floor else None
    # each noisy step's (eta_k eps_k,), in step order
    noises = ((_scaled_noise(rng, shape, amplitude),) for amplitude in eta[eta != 0.0])
    try:
        # overflow here is diagnosed by the finiteness checks below, not warned
        with prefetch(noises, [shape], macs) as noises, np.errstate(over="ignore", invalid="ignore"):
            for k, t in enumerate(schedule.points[:-1].tolist()):
                drift = np.asarray(field(states, t), dtype=np.float64)
                if not np.all(np.isfinite(drift)):
                    raise NumericalError(f"velocity field returned non-finite values at step {k}")
                # one fresh array per step; addition commutes, so these are the
                # bits of states + dt[k] * drift. The drift and the noise are
                # released here, not held through the next step's field call.
                step = dt[k] * drift
                del drift
                step += states
                states = step
                if eta[k] != 0.0:
                    (noise,) = next(noises)
                    drawn += 1
                    states += noise
                    del noise
                if not np.all(np.isfinite(states)):
                    raise NumericalError(f"state became non-finite at step {k}")
                if record is not None:
                    record(k + 1, states)
    finally:
        rng.counter = start + drawn * math.prod(shape)
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
