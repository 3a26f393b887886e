"""Training loop: sample (pair, t, eps), build the bridge state, regress.

Every step draws one batch of pairs, one time t ~ U(0, 1 - T_CLAMP) and one
noise draw eps ~ N(0, I) per pair, constructs the states x_t, computes the
configured objective's targets and per-pair loss, backpropagates the
batch-mean loss through the network, and applies one optimizer update.

None of the draws, states, targets or alpha^2 depend on the parameters:
they are the bridge's training tuple, and ``step_blocks`` yields them for
blocks of ``block_steps`` steps. It calls the provider, which must return
exactly B pairs, and draws each step's times and noise, at the provider's
width, on their own streams in step order, so every draw keeps its counter,
then runs the state, target and alpha^2 code once on the stacked block.
Every operation there is per row, so a block gives each step the bits it
would get alone. ``train`` asks for K = max(1, 2**14 // (B F)) steps a
block, F being the width of the network's input rows, and ``_prepared``
builds each block's input rows, stream digest update and target norms.
``train_step`` then runs one step on its slice of B rows of a block's arrays:
the network, the loss, the gradient and the update. Anything else that
audits the draws (``train --debug``, ``verify``, the tests) iterates
``step_blocks`` itself, with no model.

Where blocks are one step, ``train`` passes ``numerics.prefetch`` the
network's B ``forward_macs`` a step, which decides whether a worker runs
``_prepared`` for block k + 1 while the calling thread trains on block k.
Larger blocks are Python call overhead, which holds the GIL. Either way
every step gets the same bits in the same order (README, "Two cores:
training and sampling").

The (pair, t, eps) streams are derived only from the seed, never from the
objective, so runs that differ only in objective consume identical sample
streams and their outcomes are attributable to the target alone. A SHA-256
digest of the consumed stream, the row-major [x0 | x1 | t | eps] rows of
every step in order, is recorded for auditing that property.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator, Protocol

import numpy as np

from .bridge import T_CLAMP, BridgeSample, EndpointPair, check_noise_scale, sample_state
from .model import ModelConfig, backward, forward, input_rows
from .numerics import (
    NumericalError,
    RngStream,
    Tensor,
    _check_u64,
    _finite_real,
    _integer,
    gaussian,
    prefetch,
    uniform,
)
from .objectives import ObjectiveKind, loss, objective_alpha_sq, raw_target

# Fixed stream ids so data/time/noise draws are independent of each other
# and of everything else derived from the run seed.
_STREAM_DATA = 101
_STREAM_TIME = 102
_STREAM_NOISE = 103

# Values in a block's widest array, its (K B, F) input rows: enough steps to
# spread numpy's per-call cost over many steps, few enough that a block's
# arrays stay in cache.
_BLOCK_VALUES = 2**14

OPTIMIZERS = ("sgd", "adam")


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
    optimizer: str = "adam"  # one of OPTIMIZERS
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        object.__setattr__(self, "objective", ObjectiveKind(self.objective))
        for name in ("steps", "batch_size", "log_every"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        object.__setattr__(self, "learning_rate", _finite_real("learning_rate", self.learning_rate))
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        object.__setattr__(self, "noise_scale", check_noise_scale(self.noise_scale))
        object.__setattr__(self, "seed", _check_u64("seed", self.seed))

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
    # In place, but with the operations of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g g and params - lr m_hat / (sqrt(v_hat) + eps) in
    # their order, so every bit is theirs.
    state.m *= _ADAM_BETA1
    state.m += (1.0 - _ADAM_BETA1) * grad
    grad_sq = (1.0 - _ADAM_BETA2) * grad
    grad_sq *= grad
    state.v *= _ADAM_BETA2
    state.v += grad_sq
    update = state.m / (1.0 - _ADAM_BETA1**state.step)
    update *= learning_rate
    denom = state.v / (1.0 - _ADAM_BETA2**state.step)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    update /= denom
    return params - update


def _block_steps(config: TrainConfig, model_config: ModelConfig) -> int:
    return max(1, _BLOCK_VALUES // (config.batch_size * model_config.feature_dim))


def step_blocks(
    provider: PairProvider, config: TrainConfig, block_steps: int = 1
) -> Iterator[tuple[EndpointPair, BridgeSample, Tensor, Tensor]]:
    """Each block's stacked (pairs with context, sample, alpha^2, targets),
    ``block_steps`` steps at a time; rows [j B, (j + 1) B) enter the block's
    step j. alpha^2 is all ones unless the objective is stabilized."""
    root = RngStream(seed=config.seed)
    data_rng = root.split(_STREAM_DATA)
    time_rng = root.split(_STREAM_TIME)
    noise_rng = root.split(_STREAM_NOISE)
    kind = config.objective
    size = config.batch_size

    for first in range(0, config.steps, block_steps):
        batches, times, noises = [], [], []
        for _ in range(min(block_steps, config.steps - first)):
            batch = provider(size, data_rng)
            if len(batch) != size:
                raise ValueError(f"provider returned {len(batch)} pairs for a batch of {size}")
            batches.append(batch)
            times.append(uniform(time_rng, (size,)))
            noises.append(gaussian(noise_rng, batch.x0.shape))
        context = None
        if batches[0].context is not None:
            context = np.concatenate([b.context for b in batches])
        pair = EndpointPair(
            np.concatenate([b.x0 for b in batches]),
            np.concatenate([b.x1 for b in batches]),
            context,
        )
        t = np.concatenate(times) * (1.0 - T_CLAMP)
        eps = np.concatenate(noises)
        # Overflow here is diagnosed by the steps' finiteness checks, not
        # warned: a non-finite state or target makes that step's loss so.
        with np.errstate(over="ignore", invalid="ignore"):
            sample = sample_state(pair, t, eps, config.noise_scale)
            targets = raw_target(kind, pair, sample)
            alpha_sq = objective_alpha_sq(kind, pair, t, config.noise_scale)
        yield pair, sample, alpha_sq, targets
        # so that this block's arrays are freed before the next block's are made
        del pair, sample, alpha_sq, targets, t, eps, context, batches, times, noises


def _prepared(
    blocks: Iterator[tuple[EndpointPair, BridgeSample, Tensor, Tensor]],
    model_config: ModelConfig,
    digest,
) -> Iterator[tuple[Tensor, Tensor, Tensor, Tensor]]:
    """Each block's (input rows, targets, alpha^2, target squared norms), after
    its stream rows [x0 | x1 | t | eps] are hashed into ``digest``."""
    for pair, sample, alpha_sq, targets in blocks:
        digest.update(np.concatenate([pair.x0, pair.x1, sample.t[:, None], sample.epsilon], axis=1))
        with np.errstate(over="ignore", invalid="ignore"):
            rows = input_rows(model_config, sample.state, sample.t, pair.context)
            target_sqnorms = np.sum(targets * targets, axis=-1)
        yield rows, targets, alpha_sq, target_sqnorms
        del pair, sample, alpha_sq, targets, rows, target_sqnorms  # as in step_blocks


def train_step(
    params: Tensor,
    model_config: ModelConfig,
    opt_state: OptimizerState,
    rows: Tensor,
    targets: Tensor,
    alpha_sq: Tensor,
    config: TrainConfig,
    step_number: int,
) -> tuple[Tensor, float, float]:
    """One update on a step's input rows (B, feature_dim), targets (B, D) and
    alpha^2 (B,): (new parameters, batch loss, gradient norm).

    Non-finite losses, gradients or updated parameters raise NumericalError
    naming step ``step_number``.
    """
    # overflow here is diagnosed by the finiteness checks below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        tape: list = []
        predictions = forward(params, model_config, rows, tape=tape)
        losses, upstream = loss(predictions, targets, alpha_sq)
        batch_loss = float(np.add.reduce(losses)) / len(losses)
        if not math.isfinite(batch_loss):
            raise NumericalError(f"non-finite loss at step {step_number}")
        grad_params = backward(params, model_config, rows, tape, upstream)
        grad_norm = math.sqrt(float(np.add.reduce(grad_params * grad_params)))
        if not math.isfinite(grad_norm):
            raise NumericalError(f"non-finite gradient at step {step_number}")
        new_params = _optimizer_update(opt_state, params, grad_params, config.learning_rate)
    if not np.isfinite(new_params).all():
        raise NumericalError(f"non-finite parameters after the update at step {step_number}")
    return new_params, batch_loss, grad_norm


def train(
    params: Tensor,
    model_config: ModelConfig,
    provider: PairProvider,
    config: TrainConfig,
) -> tuple[Tensor, TrainStats]:
    """Run the configured number of steps; logs every ``log_every`` steps plus the last.

    Where ``numerics.prefetch`` runs the blocks ahead, the provider is called
    on a worker thread, which is joined before ``train`` returns or raises.

    Non-finite losses, gradients or parameters abort with a NumericalError
    naming the failing step; they are never swallowed.
    """
    digest = hashlib.sha256()
    opt_state = OptimizerState(kind=config.optimizer)
    stats = TrainStats()
    step_number = 0
    size, width = config.batch_size, model_config.feature_dim
    shapes = [(size, width), (size, model_config.input_dim), (size,), (size,)]
    block_steps = _block_steps(config, model_config)
    macs = size * model_config.forward_macs if block_steps == 1 else None
    blocks = _prepared(step_blocks(provider, config, block_steps), model_config, digest)
    with prefetch(blocks, shapes, macs) as blocks:
        for rows, targets, alpha_sq, target_sqnorms in blocks:
            block_max = float(np.max(target_sqnorms))
            stats.max_target_sqnorm_overall = max(stats.max_target_sqnorm_overall, block_max)
            for lo in range(0, len(rows), config.batch_size):
                step = slice(lo, lo + config.batch_size)
                step_number += 1
                t0 = time.perf_counter()
                params, batch_loss, grad_norm = train_step(
                    params, model_config, opt_state, rows[step], targets[step], alpha_sq[step],
                    config, step_number,
                )
                if step_number % config.log_every == 0 or step_number == config.steps:
                    ms = (time.perf_counter() - t0) * 1e3
                    max_sqnorm = float(np.max(target_sqnorms[step]))
                    stats.rows.append(StepStats(step_number, batch_loss, max_sqnorm, grad_norm, ms))
    stats.sample_stream_digest = digest.hexdigest()
    return params, stats
