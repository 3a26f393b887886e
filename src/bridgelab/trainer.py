"""Training loop: sample (pair, t, eps), build the bridge state, regress.

Every step draws one batch of pairs, one time t ~ U(0, 1 - T_CLAMP) and one
noise draw eps ~ N(0, I) per pair, constructs the states x_t, computes the
configured objective's targets and per-pair loss, backpropagates the
batch-mean loss through the network, and applies one optimizer update.

The (pair, t, eps) streams are derived only from the seed, never from the
objective, so runs that differ only in objective consume identical sample
streams and their outcomes are attributable to the target alone. A SHA-256
digest of the consumed stream is recorded for auditing that property.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Protocol

import numpy as np

from .bridge import T_CLAMP, BridgeSample, EndpointPair, check_noise_scale, sample_state
from .errors import TrainingError
from .model import ModelConfig, linearize
from .numerics import RngStream, Tensor, gaussian, uniform
from .objectives import ObjectiveKind, loss, objective_alpha_sq, raw_target

# Fixed stream ids so data/time/noise draws are independent of each other
# and of everything else derived from the run seed.
_STREAM_DATA = 101
_STREAM_TIME = 102
_STREAM_NOISE = 103


class PairProvider(Protocol):
    """Pull-based dataset contract: (batch size, stream) -> one batch of pairs (B, D)."""

    def __call__(self, batch_size: int, rng: RngStream) -> EndpointPair: ...


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveKind = ObjectiveKind.STABILIZED_VELOCITY
    noise_scale: float = 1.0
    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # {"sgd", "adam"}
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        object.__setattr__(self, "objective", ObjectiveKind(self.objective))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        check_noise_scale(self.noise_scale)

    def to_dict(self) -> dict:
        return {**asdict(self), "objective": self.objective.value}


@dataclass
class StepStats:
    step: int
    loss: float
    max_target_sqnorm: float
    grad_norm: float
    ms: float


@dataclass
class TrainStats:
    rows: list[StepStats] = field(default_factory=list)
    sample_stream_digest: str = ""
    # running maximum over every step, not just the logged ones
    max_target_sqnorm_overall: float = 0.0


# Adam with fixed hyperparameters; learning-rate schedules are out of scope.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    kind: str
    step: int = 0
    m: Tensor | None = None
    v: Tensor | None = None


def _optimizer_update(
    state: OptimizerState, params: Tensor, grad: Tensor, learning_rate: float
) -> Tensor:
    if state.kind == "sgd":
        return params - learning_rate * grad
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    state.m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    state.v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - _ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - _ADAM_BETA2**state.step)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# Test/debug instrumentation: called once per step with
# (step, batch, sample, alpha_squared (B,), targets (B, D)), the exact
# quantities entering the update; alpha_squared is all ones unless the
# objective is stabilized. Observers must not mutate their arguments.
BatchObserver = Callable[[int, EndpointPair, BridgeSample, Tensor, Tensor], None]


def train_step(
    params: Tensor,
    model_config: ModelConfig,
    opt_state: OptimizerState,
    batch: EndpointPair,
    config: TrainConfig,
    time_rng: RngStream,
    noise_rng: RngStream,
    step_index: int,
    observer: BatchObserver | None = None,
    digest: "hashlib._Hash | None" = None,
) -> tuple[Tensor, StepStats]:
    """One update on a batch of pairs (B, D); returns new parameters and the step's statistics."""
    if len(batch) == 0:
        raise ValueError("batch must hold at least one pair")
    t0 = time.perf_counter()
    b = len(batch)
    kind = config.objective

    t = uniform(time_rng, (b,)) * (1.0 - T_CLAMP)
    eps = gaussian(noise_rng, (b, model_config.input_dim))
    sample = sample_state(batch, t, eps, config.noise_scale)
    targets = raw_target(kind, batch, sample)
    alpha_sq = objective_alpha_sq(kind, batch, t, config.noise_scale)
    if observer is not None:
        observer(step_index, batch, sample, alpha_sq, targets)
    if digest is not None:
        digest.update(np.concatenate([batch.x0, batch.x1, t[:, None], eps], axis=1).tobytes())

    # overflow here is diagnosed by the finiteness checks below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        max_target_sqnorm = float(np.max(np.sum(targets * targets, axis=-1)))
        predictions, pullback = linearize(params, model_config, sample.state, t, batch.context)
        losses, upstream = loss(predictions, targets, alpha_sq)
        batch_loss = float(np.mean(losses))
        if not np.isfinite(batch_loss):
            raise TrainingError(f"non-finite loss at step {step_index}", step_index, kind.value)
        grad_params, _ = pullback(upstream)
        grad_norm = float(np.sqrt(np.sum(grad_params * grad_params)))
    if not np.isfinite(grad_norm):
        raise TrainingError(f"non-finite gradient at step {step_index}", step_index, kind.value)

    new_params = _optimizer_update(opt_state, params, grad_params, config.learning_rate)
    ms = (time.perf_counter() - t0) * 1e3
    stats = StepStats(
        step=step_index,
        loss=batch_loss,
        max_target_sqnorm=max_target_sqnorm,
        grad_norm=grad_norm,
        ms=ms,
    )
    return new_params, stats


def train(
    params: Tensor,
    model_config: ModelConfig,
    provider: PairProvider,
    config: TrainConfig,
    observer: BatchObserver | None = None,
) -> tuple[Tensor, TrainStats]:
    """Run the configured number of steps; logs every ``log_every`` steps plus the last.

    Non-finite losses or gradients abort with the failing step index; they
    are never swallowed.
    """
    root = RngStream(seed=config.seed)
    data_rng = root.split(_STREAM_DATA)
    time_rng = root.split(_STREAM_TIME)
    noise_rng = root.split(_STREAM_NOISE)

    digest = hashlib.sha256()
    opt_state = OptimizerState(kind=config.optimizer)
    stats = TrainStats()
    for step_index in range(1, config.steps + 1):
        batch = provider(config.batch_size, data_rng)
        params, row = train_step(
            params,
            model_config,
            opt_state,
            batch,
            config,
            time_rng,
            noise_rng,
            step_index,
            observer=observer,
            digest=digest,
        )
        stats.max_target_sqnorm_overall = max(
            stats.max_target_sqnorm_overall, row.max_target_sqnorm
        )
        if step_index % config.log_every == 0 or step_index == config.steps:
            stats.rows.append(row)
    stats.sample_stream_digest = digest.hexdigest()
    return params, stats
