"""Brownian-bridge data-to-data generative modeling at desk scale."""

__version__ = "0.1.0"

from .bridge import (
    T_CLAMP,
    BridgeSample,
    EndpointPair,
    conditional_variance,
    displacement_target,
    interpolate,
    marginal_variance,
    sample_state,
    velocity_target,
)
from .numerics import RngStream, Tensor, gaussian, uniform
from .objectives import (
    ObjectiveKind,
    alpha_factor,
    loss,
    objective_alpha_sq,
    raw_target,
    target_profile,
)
from .sampler import EndpointStats, endpoint_statistics, integrate, oracle_field
from .schedules import Schedule, shifted
from .tasks import EvalReport, TaskSpec, energy_distance, evaluate, generate_pairs
from .trainer import TrainConfig, TrainStats, train, train_step

__all__ = [
    "T_CLAMP",
    "BridgeSample",
    "EndpointPair",
    "EndpointStats",
    "EvalReport",
    "ObjectiveKind",
    "RngStream",
    "Schedule",
    "TaskSpec",
    "Tensor",
    "TrainConfig",
    "TrainStats",
    "alpha_factor",
    "conditional_variance",
    "displacement_target",
    "endpoint_statistics",
    "energy_distance",
    "evaluate",
    "gaussian",
    "generate_pairs",
    "integrate",
    "interpolate",
    "loss",
    "marginal_variance",
    "objective_alpha_sq",
    "oracle_field",
    "raw_target",
    "sample_state",
    "shifted",
    "target_profile",
    "train",
    "train_step",
    "uniform",
    "velocity_target",
]
