"""Inference-time discretization schedules: gamma-shifted grids.

A shift coefficient gamma >= 1 reparameterizes the uniform grid to concentrate
steps near t=0:

    t_i = i / (gamma N - (gamma - 1) i),   i.e.  t(u) = u / (gamma - (gamma-1) u)

with u = i/N. The map has dt/du = 1/gamma at u=0 (early densification) and is
convex on [0, 1], so step sizes grow monotonically for gamma > 1; gamma = 1 is
the identity: ``shifted(n, 1.0)`` is the uniform grid i / N, bit for bit. Both
endpoints are forced to exactly 0 and 1, which the final noiseless step needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Schedule:
    """Strictly increasing grid 0 = t_0 < ... < t_N = 1 of N >= 1 steps, read-only.

    Schedules compare and hash by identity; compare ``points`` for equal grids.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)  # own an immutable copy
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError(f"schedule needs a 1-d grid of 2 or more points, got {pts.shape}")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("schedule must start at exactly 0 and end at exactly 1")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("schedule must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_steps(self) -> int:
        return self.points.size - 1


def shifted(n_steps: int, gamma: float) -> Schedule:
    """Shifted schedule t_i = i / (gamma N - (gamma-1) i); gamma=1 is uniform."""
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"shift coefficient must be finite and >= 1, got {gamma}")
    idx = np.arange(n_steps + 1, dtype=np.float64)
    # An extreme gamma overflows here; Schedule rejects the non-finite grid.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pts = idx / (gamma * n_steps - (gamma - 1.0) * idx)
    pts[0] = 0.0
    pts[-1] = 1.0
    return Schedule(pts)
