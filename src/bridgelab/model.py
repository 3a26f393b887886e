"""Small feed-forward velocity network with built-in reverse-mode gradients.

The network maps (state, time, optional context) to a velocity of the same
dimension as the state. Time enters through sinusoidal features
[sin(pi 2^j t), cos(pi 2^j t)] concatenated to the state (and context), a
desk-scale stand-in for learned timestep embeddings. The output layer is
zero-initialized so a freshly initialized model is the zero velocity field,
which gives training tests a known starting loss.

Parameters live in a single flat float64 vector of per-layer weight and
bias blocks, laid out from the config's layer widths. ``forward`` predicts
and can keep its activations on a tape; ``backward`` backpropagates through
a tape without re-running the pass; ``linearize`` pairs the two, returning
the prediction and a pullback, so a training step runs the network once.
All accept a single sample (x of shape (D,), scalar t) or a batch (x of
shape (B, D), t scalar or shape (B,)).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import RngStream, Tensor, uniform
from .objectives import ObjectiveKind

ACTIVATIONS = ("tanh", "smooth_relu")

_PARAMS_FORMAT = "bridgelab-params"
_PARAMS_VERSION = 2  # version 1 had no objective field; it is no longer read


def _integer(name: str, value) -> int:
    """``value`` as an int; floats and bools are rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden: tuple[int, ...] = (32, 32)
    time_features: int = 8
    context_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        for name in ("input_dim", "time_features", "context_dim"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "hidden", tuple(_integer("hidden width", w) for w in self.hidden))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden):
            raise ValueError("all hidden widths must be >= 1")
        if self.time_features < 2 or self.time_features % 2 != 0:
            raise ValueError("time_features must be an even count >= 2")
        if self.context_dim < 0:
            raise ValueError("context_dim must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def feature_dim(self) -> int:
        return self.input_dim + self.time_features + self.context_dim

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.feature_dim, *self.hidden, self.input_dim)


def parameter_count(config: ModelConfig) -> int:
    widths = config.layer_widths
    return sum((n_in + 1) * n_out for n_in, n_out in zip(widths[:-1], widths[1:]))


def _views(params: Tensor, config: ModelConfig) -> list[tuple[Tensor, Tensor]]:
    """(weight (n_in, n_out), bias (n_out,)) views into the flat vector, one
    tuple per layer from input to output; each weight block precedes its bias."""
    widths = config.layer_widths
    out = []
    offset = 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        w = params[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        out.append((w, params[offset : offset + n_out]))
        offset += n_out
    return out


def init(config: ModelConfig, rng: RngStream) -> Tensor:
    """Scaled-uniform hidden layers, zero output layer, zero biases."""
    params = np.zeros(parameter_count(config), dtype=np.float64)
    layers = _views(params, config)
    for w, _b in layers[:-1]:
        n_in, n_out = w.shape
        bound = math.sqrt(6.0 / (n_in + n_out))
        w[...] = (2.0 * uniform(rng, w.shape) - 1.0) * bound
    # output layer stays zero: initial prediction is identically 0
    return params


def time_feature_matrix(t: "float | Tensor", count: int) -> Tensor:
    """Sinusoidal features [sin(w_j t), cos(w_j t)] with w_j = pi 2^j, shape (B, count)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    freqs = math.pi * (2.0 ** np.arange(count // 2))
    angles = np.outer(t_arr, freqs)
    feats = np.empty((t_arr.size, count), dtype=np.float64)
    feats[:, 0::2] = np.sin(angles)
    feats[:, 1::2] = np.cos(angles)
    return feats


def _as_batch(
    config: ModelConfig, x: Tensor, t: "float | Tensor", context: Tensor | None
) -> tuple[Tensor, bool]:
    """Assemble the (B, feature_dim) input block; reports whether input was batched."""
    x = np.asarray(x, dtype=np.float64)
    batched = x.ndim == 2
    xb = x if batched else x.reshape(1, -1)
    if xb.shape[1] != config.input_dim:
        raise ValueError(f"state dimension {xb.shape[1]} does not match config {config.input_dim}")
    feats = time_feature_matrix(t, config.time_features)
    if feats.shape[0] == 1 and xb.shape[0] > 1:
        feats = np.broadcast_to(feats, (xb.shape[0], feats.shape[1]))
    if feats.shape[0] != xb.shape[0]:
        raise ValueError(f"time batch {feats.shape[0]} does not match state batch {xb.shape[0]}")
    blocks = [xb, feats]
    if config.context_dim > 0:
        if context is None:
            raise ValueError("model expects conditioning context but none was given")
        ctx = np.asarray(context, dtype=np.float64)
        ctxb = ctx.reshape(1, -1) if ctx.ndim == 1 else ctx
        if ctxb.shape[0] == 1 and xb.shape[0] > 1:
            ctxb = np.broadcast_to(ctxb, (xb.shape[0], ctxb.shape[1]))
        if ctxb.shape != (xb.shape[0], config.context_dim):
            raise ValueError(f"context shape {ctx.shape} does not match config")
        blocks.append(ctxb)
    elif context is not None and np.asarray(context).size > 0:
        raise ValueError("model has context_dim=0 but a context was given")
    return np.concatenate(blocks, axis=1), batched


def _activate(z: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        return np.tanh(z)
    return np.logaddexp(0.0, z)  # smooth_relu (softplus), C-infinity


def _activate_grad(z: Tensor, h: Tensor, kind: str) -> Tensor:
    """Derivative of the activation at z, given h = _activate(z, kind)."""
    if kind == "tanh":
        return 1.0 - h * h
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # the logistic sigmoid, overflow-free


def forward(
    params: Tensor,
    config: ModelConfig,
    x: Tensor,
    t: "float | Tensor",
    context: Tensor | None = None,
    *,
    tape: list | None = None,
) -> Tensor:
    """Velocity prediction with the shape of x; deterministic in all inputs.

    When ``tape`` is a list, the pass appends one (input, pre-activation)
    pair per layer to it, the pre-activation None for the linear output
    layer: what ``backward`` needs to differentiate this pass without
    running it again.
    """
    features, batched = _as_batch(config, x, t, context)
    layers = _views(params, config)
    h = features
    for w, b in layers[:-1]:
        z = h @ w + b
        if tape is not None:
            tape.append((h, z))
        h = _activate(z, config.activation)
    w_out, b_out = layers[-1]
    if tape is not None:
        tape.append((h, None))
    out = h @ w_out + b_out
    return out if batched else out[0]


def backward(
    params: Tensor, config: ModelConfig, x: Tensor, tape: list, upstream: Tensor
) -> tuple[Tensor, Tensor]:
    """Exact reverse-mode gradients of <forward(...), upstream> for the pass
    that filled ``tape``: (grad_params, grad_x), a flat vector matching the
    parameter layout and the gradient with respect to x in x's shape. For
    batched inputs the parameter gradient sums over the batch and grad_x is
    per sample.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    g = upstream if upstream.ndim == 2 else upstream.reshape(1, -1)
    if g.shape != (tape[0][0].shape[0], config.input_dim):
        raise ValueError(f"upstream shape {upstream.shape} does not match output")
    layers = _views(params, config)
    grad_params = np.zeros_like(params)
    grad_layers = _views(grad_params, config)
    for i in range(len(layers) - 1, -1, -1):
        h, z = tape[i]
        if z is not None:
            g = g * _activate_grad(z, tape[i + 1][0], config.activation)
        gw, gb = grad_layers[i]
        gw[...] = h.T @ g
        gb[...] = g.sum(axis=0)
        g = g @ layers[i][0].T
    grad_x = g[:, : config.input_dim]
    return grad_params, grad_x if np.ndim(x) == 2 else grad_x[0]


def linearize(
    params: Tensor,
    config: ModelConfig,
    x: Tensor,
    t: "float | Tensor",
    context: Tensor | None = None,
) -> tuple[Tensor, Callable[[Tensor], tuple[Tensor, Tensor]]]:
    """One forward pass that keeps its activations: returns (prediction, pullback).

    ``pullback(upstream)`` is ``backward`` on that pass's tape, so a
    training step runs the network once.
    """
    tape: list = []
    prediction = forward(params, config, x, t, context, tape=tape)
    return prediction, lambda upstream: backward(params, config, x, tape, upstream)


def save_parameters(
    path: str, config: ModelConfig, params: Tensor, objective: "ObjectiveKind | str"
) -> None:
    """Versioned container: one JSON header line, then raw little-endian float64.

    The header records the objective the parameters were trained with, which
    fixes how their output reads as a velocity (see velocity_field_from).
    """
    header = {
        "format": _PARAMS_FORMAT,
        "version": _PARAMS_VERSION,
        "config": dataclasses.asdict(config),
        "objective": ObjectiveKind(objective).value,
        "count": int(params.size),
    }
    payload = np.ascontiguousarray(params, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load_parameters(path: str) -> tuple[ModelConfig, Tensor, ObjectiveKind]:
    """Read a container written by save_parameters: (config, params, objective)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"not a parameter container: {path}") from exc
    if not isinstance(header, dict) or header.get("format") != _PARAMS_FORMAT:
        raise ValueError(f"not a parameter container: {path}")
    if header.get("version") != _PARAMS_VERSION:
        raise ValueError(f"unsupported parameter container version {header.get('version')}")
    try:
        config = ModelConfig(**header["config"])
        objective = ObjectiveKind(header["objective"])
        count = header["count"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a parameter container: {path}") from exc
    params = np.frombuffer(raw[newline + 1 :], dtype="<f8").astype(np.float64)
    if params.size != count:
        raise ValueError("parameter payload length does not match header")
    return config, params, objective


def velocity_field_from(
    params: Tensor,
    config: ModelConfig,
    objective: "ObjectiveKind | str",
    context: Tensor | None = None,
):
    """Wrap trained parameters as a sampler-ready velocity field over (B, D) states.

    ``context`` is None for unconditioned models, one (C,) vector shared by
    every run, or one (B, C) row per run. Displacement-trained networks
    predict the remaining displacement, so their output is converted to a
    velocity by dividing by (1 - t); velocity and stabilized-velocity
    networks already predict raw velocity.
    """
    predicts_displacement = ObjectiveKind(objective) is ObjectiveKind.DISPLACEMENT

    def field(states: Tensor, t: float) -> Tensor:
        out = forward(params, config, states, t, context)
        if predicts_displacement:
            out = out / (1.0 - t)
        return out

    return field
