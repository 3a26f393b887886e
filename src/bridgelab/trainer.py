"""Training loop: sample (pair, t, eps), build the bridge state, regress.

Every step executes, per sample: draw t ~ U(0, 1 - t_clamp) and
eps ~ N(0, I), construct x_t, compute the configured objective's target and
normalization, backpropagate the loss residual through the network, and
apply one optimizer update on the batch-mean gradient.

The (pair, t, eps) streams are derived only from the seed, never from the
objective, so runs that differ only in objective consume identical sample
streams and their outcomes are attributable to the target alone. A SHA-256
digest of the consumed stream is recorded for auditing that property.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .bridge import EndpointPair, sample_state
from .errors import TrainingError
from .model import ModelConfig, backward, forward
from .numerics import RngStream, Tensor, gaussian, uniform
from .objectives import ObjectiveKind, alpha_factor, raw_target

# Fixed stream ids so data/time/noise draws are independent of each other
# and of everything else derived from the run seed.
_STREAM_DATA = 101
_STREAM_TIME = 102
_STREAM_NOISE = 103


class PairProvider(Protocol):
    """Pull-based dataset contract: (batch size, stream) -> a list of pairs."""

    def __call__(self, batch_size: int, rng: RngStream) -> list[EndpointPair]: ...


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveKind = ObjectiveKind.STABILIZED_VELOCITY
    noise_scale: float = 1.0
    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # {"sgd", "adam"}
    t_clamp: float = 1e-5
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        object.__setattr__(self, "objective", ObjectiveKind(self.objective))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.t_clamp < 0.1:
            raise ValueError("t_clamp must lie in (0, 0.1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be >= 0")

    def to_dict(self) -> dict:
        return {
            "objective": self.objective.value,
            "noise_scale": self.noise_scale,
            "steps": self.steps,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "optimizer": self.optimizer,
            "t_clamp": self.t_clamp,
            "seed": self.seed,
            "log_every": self.log_every,
        }


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

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,loss,max_target_sqnorm,grad_norm,ms\n")
            for r in self.rows:
                fh.write(f"{r.step},{r.loss!r},{r.max_target_sqnorm!r},{r.grad_norm!r},{r.ms!r}\n")


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


# Test/debug instrumentation: called once per sample with
# (step, pair, t, eps, state, alpha_squared, target), the exact quantities
# entering the update. Observers must not mutate their arguments.
SampleObserver = Callable[[int, EndpointPair, float, Tensor, Tensor, float, Tensor], None]


def train_step(
    params: Tensor,
    model_config: ModelConfig,
    opt_state: OptimizerState,
    batch: list[EndpointPair],
    config: TrainConfig,
    time_rng: RngStream,
    noise_rng: RngStream,
    step_index: int,
    observer: SampleObserver | None = None,
    digest: "hashlib._Hash | None" = None,
) -> tuple[Tensor, StepStats]:
    """One batch update; returns new parameters and the step's statistics."""
    if not batch:
        raise ValueError("batch must be nonempty")
    t0 = time.perf_counter()
    b = len(batch)
    d = model_config.input_dim
    s = config.noise_scale

    t_batch = uniform(time_rng, (b,)) * (1.0 - config.t_clamp)
    eps_batch = gaussian(noise_rng, (b, d))

    states = np.empty((b, d), dtype=np.float64)
    targets = np.empty((b, d), dtype=np.float64)
    inv_alpha_sq = np.ones(b, dtype=np.float64)
    max_target_sqnorm = 0.0
    contexts = None
    if model_config.context_dim > 0:
        contexts = np.empty((b, model_config.context_dim), dtype=np.float64)

    for i, pair in enumerate(batch):
        t_i = float(t_batch[i])
        sample = sample_state(pair, t_i, eps_batch[i].reshape(pair.x0.shape), s)
        target = raw_target(config.objective, pair, sample)
        states[i] = sample.state.ravel()
        targets[i] = target.ravel()
        target_sqnorm = float(np.sum(target * target))
        max_target_sqnorm = max(max_target_sqnorm, target_sqnorm)
        alpha_sq = 1.0
        if config.objective is ObjectiveKind.STABILIZED_VELOCITY:
            alpha_sq = alpha_factor(pair, t_i, s).alpha_squared
            inv_alpha_sq[i] = 1.0 / alpha_sq
        if contexts is not None:
            if pair.context is None:
                raise ValueError("model expects context but pair has none")
            contexts[i] = pair.context.ravel()
        if observer is not None:
            observer(step_index, pair, t_i, sample.epsilon, sample.state, alpha_sq, target)
        if digest is not None:
            digest.update(pair.x0.tobytes())
            digest.update(pair.x1.tobytes())
            digest.update(np.float64(t_i).tobytes())
            digest.update(eps_batch[i].tobytes())

    # overflow here is diagnosed by the finiteness checks below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = forward(params, model_config, states, t_batch, contexts)
        residuals = predictions - targets
        per_sample_loss = np.sum(residuals * residuals, axis=1) * inv_alpha_sq
        batch_loss = float(np.mean(per_sample_loss))
    if not np.isfinite(batch_loss):
        raise TrainingError(
            f"non-finite loss at step {step_index}", step_index, config.objective.value
        )

    upstream = 2.0 * residuals * (inv_alpha_sq / b)[:, None]
    grad_params, _ = backward(params, model_config, states, t_batch, contexts, upstream)
    grad_norm = float(np.sqrt(np.sum(grad_params * grad_params)))
    if not np.isfinite(grad_norm):
        raise TrainingError(
            f"non-finite gradient at step {step_index}", step_index, config.objective.value
        )

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
    observer: SampleObserver | None = None,
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
