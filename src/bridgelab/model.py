"""Small feed-forward velocity network with built-in reverse-mode gradients.

The network maps (state, time, optional context) to a velocity of the same
dimension as the state. Time enters through sinusoidal features
[sin(pi 2^j t), cos(pi 2^j t)] concatenated to the state (and context), a
desk-scale stand-in for learned timestep embeddings. The output layer is
zero-initialized so a freshly initialized model is the zero velocity field,
which gives training tests a known starting loss.

Parameters live in a single flat float64 vector of per-layer weight and
bias blocks, laid out from the config's layer widths. The network runs on
input rows [x | time features | context], one (B, feature_dim) row per
state, and ``input_rows`` is the one place that builds them from (B, D)
states x, a time t of shape () shared by the batch or (B,), one per state,
and the context. ``forward`` predicts and can keep its activations on a
tape; ``backward`` backpropagates through a tape without re-running the
pass, so a training step runs the network once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, Tensor, _integer, uniform
from .objectives import ObjectiveKind

ACTIVATIONS = ("tanh", "smooth_relu")

# The top time frequency pi 2^(T/2 - 1) of T features overflows float64 from
# T = 2048 on.
_MAX_TIME_FEATURES = 2046

_PARAMS_FORMAT = "bridgelab-params"
_PARAMS_VERSION = 2  # version 1 had no objective field; it is no longer read


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
        if self.time_features > _MAX_TIME_FEATURES:
            raise ValueError(
                f"time_features must be <= {_MAX_TIME_FEATURES}: the top frequency "
                f"pi 2^(T/2 - 1) of {self.time_features} features overflows float64"
            )
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

    @functools.cached_property
    def _layout(self) -> tuple[tuple[int, int, int, tuple[int, int]], ...]:
        """(weight start, bias start, bias stop, weight shape) of each layer in
        the flat parameter vector, from input to output."""
        widths = self.layer_widths
        layout = []
        offset = 0
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            bias = offset + n_in * n_out
            layout.append((offset, bias, bias + n_out, (n_in, n_out)))
            offset = bias + n_out
        return tuple(layout)


def parameter_count(config: ModelConfig) -> int:
    return config._layout[-1][2]


def _views(params: Tensor, config: ModelConfig) -> list[tuple[Tensor, Tensor]]:
    """(weight (n_in, n_out), bias (n_out,)) views into the flat vector, one
    tuple per layer from input to output; each weight block precedes its bias."""
    return [
        (params[w:b].reshape(shape), params[b:stop]) for w, b, stop, shape in config._layout
    ]


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
    """Sinusoidal features [sin(w_j t), cos(w_j t)] with w_j = pi 2^j.

    A () time gives (count,) features and a (B,) time gives (B, count).
    """
    freqs = math.pi * (2.0 ** np.arange(count // 2))
    angles = np.asarray(t, dtype=np.float64)[..., None] * freqs
    feats = np.empty(angles.shape[:-1] + (count,), dtype=np.float64)
    feats[..., 0::2] = np.sin(angles)
    feats[..., 1::2] = np.cos(angles)
    return feats


def input_rows(
    config: ModelConfig, x: Tensor, t: "float | Tensor", context: Tensor | None = None
) -> Tensor:
    """The network's (B, feature_dim) input rows [x | time features | context]
    for (B, D) states x at a () or (B,) time t."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"states {x.shape} are not a (B, {config.input_dim}) batch")
    feats = time_feature_matrix(t, config.time_features)
    if feats.shape[:-1] not in ((), (len(x),)):
        raise ValueError(f"time shape {feats.shape[:-1]} is neither () nor ({len(x)},)")
    blocks = [x, np.broadcast_to(feats, (len(x), config.time_features))]
    if config.context_dim > 0:
        if context is None:
            raise ValueError("model expects conditioning context but none was given")
        ctx = np.asarray(context, dtype=np.float64)
        if ctx.shape != (len(x), config.context_dim):
            raise ValueError(f"context shape {ctx.shape} is not ({len(x)}, {config.context_dim})")
        blocks.append(ctx)
    elif context is not None and np.asarray(context).size > 0:
        raise ValueError("model has context_dim=0 but a context was given")
    return np.concatenate(blocks, axis=1)


def _activate(z: Tensor, kind: str, out: Tensor | None = None) -> Tensor:
    if kind == "tanh":
        return np.tanh(z, out=out)
    return np.logaddexp(0.0, z, out=out)  # smooth_relu (softplus), C-infinity


def _activate_grad(z: Tensor, h: Tensor, kind: str) -> Tensor:
    """Derivative of the activation at z, given h = _activate(z, kind)."""
    if kind == "tanh":
        return 1.0 - h * h
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # the logistic sigmoid, overflow-free


def forward(params: Tensor, config: ModelConfig, x: Tensor, *, tape: list | None = None) -> Tensor:
    """Velocity prediction (B, D) for (B, feature_dim) input rows x; deterministic.

    When ``tape`` is a list, the pass appends one (input, pre-activation,
    weight) triple per layer to it, the pre-activation None for the linear
    output layer: what ``backward`` needs to differentiate this pass without
    running it again. Otherwise the rows are released once the first layer
    has read them: ``forward`` drops its own reference to ``x``, so rows that
    the caller built inside the call expression, as ``velocity_field_from``
    does, are freed before the hidden layers run (CPython >= 3.11 hands the
    caller's argument reference to the callee; on 3.10 the caller holds it
    through the call).
    """
    if x.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ValueError(f"input rows {x.shape} are not a (B, {config.feature_dim}) batch")
    layers = _views(params, config)
    h = x
    del x  # h is the last reference this frame holds; a tape keeps its own
    for w, b in layers[:-1]:
        z = h @ w
        z += b
        if tape is not None:
            tape.append((h, z, w))
            h = _activate(z, config.activation)
        else:
            h = _activate(z, config.activation, out=z)  # nothing else reads z
    w_out, b_out = layers[-1]
    if tape is not None:
        tape.append((h, None, w_out))
    out = h @ w_out
    out += b_out
    return out


def backward(params: Tensor, config: ModelConfig, x: Tensor, tape: list, upstream: Tensor) -> Tensor:
    """Exact reverse-mode gradient of <forward(...), upstream> with respect to
    the parameters, for the pass over input rows x that filled ``tape``: a flat
    vector matching the parameter layout, summed over the batch.
    """
    g = np.asarray(upstream, dtype=np.float64)
    states = (len(x), config.input_dim)
    if g.shape != states:
        raise ValueError(f"upstream shape {g.shape} does not match states {states}")
    grad_params = np.empty_like(params)
    grad_layers = _views(grad_params, config)
    for i in range(len(tape) - 1, -1, -1):
        h, z, w = tape[i]
        if z is not None:
            # g is the product of the layer above, so it is scaled in place
            g *= _activate_grad(z, tape[i + 1][0], config.activation)
        gw, gb = grad_layers[i]
        np.matmul(h.T, g, out=gw)
        np.add.reduce(g, axis=0, out=gb)
        if i:  # the input rows themselves need no gradient
            g = g @ w.T
    return grad_params


@contextlib.contextmanager
def atomic_open(path: str, binary: bool = False):
    """A file written as ``<path>.tmp`` and renamed to ``path`` once complete; a
    failure removes the temporary and leaves ``path`` as it was. All outputs use it."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
    with atomic_open(path, binary=True) as fh:
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
        count = _integer("count", header["count"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a parameter container: {path}") from exc
    if count != parameter_count(config):
        raise ValueError(
            f"parameter container {path} counts {count} values, "
            f"but its model has {parameter_count(config)} parameters"
        )
    payload = raw[newline + 1 :]
    if len(payload) != 8 * count:
        raise ValueError(
            f"parameter container {path} holds {len(payload)} payload bytes, "
            f"but its header's count of {count} float64 values needs {8 * count}"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise ValueError(f"parameter container {path} holds non-finite parameters")
    return config, params, objective


def velocity_field_from(
    params: Tensor,
    config: ModelConfig,
    objective: "ObjectiveKind | str",
    context: Tensor | None = None,
):
    """Wrap trained parameters as a sampler-ready velocity field over (B, D) states.

    ``context`` is None for unconditioned models, or one (B, C) row per run.
    Displacement-trained networks predict the remaining displacement, so
    their output is converted to a velocity by dividing by (1 - t); velocity
    and stabilized-velocity networks already predict raw velocity.
    """
    predicts_displacement = ObjectiveKind(objective) is ObjectiveKind.DISPLACEMENT

    def field(states: Tensor, t: float) -> Tensor:
        out = forward(params, config, input_rows(config, states, t, context))
        if predicts_displacement:
            out /= 1.0 - t
        return out

    return field
