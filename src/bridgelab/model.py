"""Small feed-forward velocity network with built-in reverse-mode gradients.

The network maps (state, time, optional context) to a velocity of the same
dimension as the state. Time enters through sinusoidal features
[sin(pi 2^j t), cos(pi 2^j t)] concatenated to the state (and context), a
desk-scale stand-in for learned timestep embeddings. The output layer is
zero-initialized so a freshly initialized model is the zero velocity field,
which gives training tests a known starting loss.

Parameters live in a single flat float64 vector; the layout (per-layer
weight and bias blocks) is derived from the config. forward/backward accept
a single sample (x of shape (D,), scalar t) or a batch (x of shape (B, D),
t scalar or shape (B,)).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .numerics import RngStream, Tensor, uniform

ACTIVATIONS = ("tanh", "smooth_relu")

_PARAMS_FORMAT = "bridgelab-params"
_PARAMS_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden: tuple[int, ...] = (32, 32)
    time_features: int = 8
    context_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
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


@dataclass(frozen=True)
class LayoutEntry:
    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def parameter_layout(config: ModelConfig) -> list[LayoutEntry]:
    """Flat-vector layout: alternating weight/bias blocks, input to output."""
    entries: list[LayoutEntry] = []
    offset = 0
    widths = config.layer_widths
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        entries.append(LayoutEntry(name=f"w{i}", shape=(n_in, n_out), offset=offset))
        offset += n_in * n_out
        entries.append(LayoutEntry(name=f"b{i}", shape=(n_out,), offset=offset))
        offset += n_out
    return entries


def parameter_count(config: ModelConfig) -> int:
    layout = parameter_layout(config)
    last = layout[-1]
    return last.offset + last.size


def _views(params: Tensor, config: ModelConfig) -> list[tuple[Tensor, Tensor]]:
    """(weight, bias) views into the flat vector, one tuple per layer."""
    layout = parameter_layout(config)
    out = []
    for w_entry, b_entry in zip(layout[::2], layout[1::2]):
        w = params[w_entry.offset : w_entry.offset + w_entry.size].reshape(w_entry.shape)
        b = params[b_entry.offset : b_entry.offset + b_entry.size]
        out.append((w, b))
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


def _activate_grad(z: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        th = np.tanh(z)
        return 1.0 - th * th
    return expit(z)


def _forward_pass(
    params: Tensor, config: ModelConfig, features: Tensor
) -> tuple[Tensor, list[Tensor], list[Tensor]]:
    layers = _views(params, config)
    h = features
    hs = [h]  # post-activation inputs to each layer
    zs = []  # pre-activations of hidden layers
    for w, b in layers[:-1]:
        z = h @ w + b
        zs.append(z)
        h = _activate(z, config.activation)
        hs.append(h)
    w_out, b_out = layers[-1]
    return h @ w_out + b_out, hs, zs


def forward(
    params: Tensor,
    config: ModelConfig,
    x: Tensor,
    t: "float | Tensor",
    context: Tensor | None = None,
) -> Tensor:
    """Velocity prediction with the shape of x; deterministic in all inputs."""
    features, batched = _as_batch(config, x, t, context)
    out, _, _ = _forward_pass(params, config, features)
    return out if batched else out[0]


def backward(
    params: Tensor,
    config: ModelConfig,
    x: Tensor,
    t: "float | Tensor",
    context: Tensor | None,
    upstream: Tensor,
) -> tuple[Tensor, Tensor]:
    """Exact reverse-mode gradients of <forward(...), upstream>.

    For batched inputs the parameter gradient sums over the batch (the
    gradient of the summed inner product) and grad_x is per sample.

    Returns:
        (grad_params, grad_x): flat vector matching the parameter layout,
        and the gradient with respect to x in x's shape.
    """
    features, batched = _as_batch(config, x, t, context)
    upstream = np.asarray(upstream, dtype=np.float64)
    ub = upstream if upstream.ndim == 2 else upstream.reshape(1, -1)
    if ub.shape != (features.shape[0], config.input_dim):
        raise ValueError(f"upstream shape {upstream.shape} does not match output")

    layers = _views(params, config)
    _, hs, zs = _forward_pass(params, config, features)

    grad_params = np.zeros_like(params)
    grad_layers = _views(grad_params, config)

    g = ub
    w_out, _ = layers[-1]
    gw_out, gb_out = grad_layers[-1]
    gw_out[...] = hs[-1].T @ g
    gb_out[...] = g.sum(axis=0)
    g = g @ w_out.T
    for i in range(len(zs) - 1, -1, -1):
        g = g * _activate_grad(zs[i], config.activation)
        w, _ = layers[i]
        gw, gb = grad_layers[i]
        gw[...] = hs[i].T @ g
        gb[...] = g.sum(axis=0)
        g = g @ w.T
    grad_x_b = g[:, : config.input_dim]
    return grad_params, grad_x_b if batched else grad_x_b[0]


def save_parameters(path: str, config: ModelConfig, params: Tensor) -> None:
    """Versioned container: one JSON header line, then raw little-endian float64."""
    header = {
        "format": _PARAMS_FORMAT,
        "version": _PARAMS_VERSION,
        "config": {
            "input_dim": config.input_dim,
            "hidden": list(config.hidden),
            "time_features": config.time_features,
            "context_dim": config.context_dim,
            "activation": config.activation,
        },
        "count": int(params.size),
    }
    payload = np.ascontiguousarray(params, dtype="<f8").tobytes()
    buf = io.BytesIO()
    buf.write(json.dumps(header, sort_keys=True).encode("utf-8"))
    buf.write(b"\n")
    buf.write(payload)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_parameters(path: str) -> tuple[ModelConfig, Tensor]:
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("utf-8"))
    if header.get("format") != _PARAMS_FORMAT:
        raise ValueError(f"not a parameter container: {path}")
    if header.get("version") != _PARAMS_VERSION:
        raise ValueError(f"unsupported parameter container version {header.get('version')}")
    cfg = header["config"]
    config = ModelConfig(
        input_dim=cfg["input_dim"],
        hidden=tuple(cfg["hidden"]),
        time_features=cfg["time_features"],
        context_dim=cfg["context_dim"],
        activation=cfg["activation"],
    )
    params = np.frombuffer(raw[newline + 1 :], dtype="<f8").astype(np.float64)
    if params.size != header["count"]:
        raise ValueError("parameter payload length does not match header")
    return config, params


def velocity_field_from(
    params: Tensor,
    config: ModelConfig,
    objective: str = "stabilized_velocity",
    context: Tensor | None = None,
):
    """Wrap trained parameters as a sampler-ready velocity field over (B, D) states.

    ``context`` is None for unconditioned models, one (C,) vector shared by
    every run, or one (B, C) row per run. Displacement-trained networks
    predict the remaining displacement, so their output is converted to a
    velocity by dividing by (1 - t); velocity and stabilized-velocity
    networks already predict raw velocity.
    """
    objective = str(getattr(objective, "value", objective))
    predicts_displacement = objective == "displacement"

    def field(states: Tensor, t: float) -> Tensor:
        out = forward(params, config, states, t, context)
        if predicts_displacement:
            out = out / (1.0 - t)
        return out

    return field
