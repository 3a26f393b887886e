"""The typed boundary of the config dataclasses, fuzzed: a field value of any
kind either is rejected with ValueError when the config is built, or is
stored as a JSON-native value of the field's declared kind, and a short
training run on the accepted config raises nothing but ValueError or
NumericalError."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab.model import ACTIVATIONS, ModelConfig, init
from bridgelab.numerics import NumericalError, RngStream
from bridgelab.objectives import ObjectiveKind
from bridgelab.tasks import TASK_NAMES, TaskSpec, pair_provider
from bridgelab.trainer import OPTIMIZERS, TrainConfig, train

# Strings that some field accepts, beside a few that none does.
_WORDS = TASK_NAMES + tuple(k.value for k in ObjectiveKind) + OPTIMIZERS + ACTIVATIONS + ("", "1", "nan")

# Ints stay small, so that an accepted size trains in milliseconds.
_SCALARS = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(_WORDS),
    st.none(),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(tuple))

# Configs that build; each example replaces some of a base's fields.
_BASES = {
    TaskSpec: [
        {"name": "gaussian_shift", "dimension": 2, "shift": (1.0, 0.0)},
        {"name": "moons_rotate", "dimension": 2, "angle": 0.5},
        {"name": "grid_colorize", "dimension": 12, "grid_size": 2},
        {"name": "signal_refine", "dimension": 8, "repeat": 2},
    ],
    TrainConfig: [{}],
    ModelConfig: [{"input_dim": 2, "hidden": (4,)}],
}


def _is(kind):
    return lambda value: type(value) is kind


def _optional(check):
    return lambda value: value is None or check(value)


def _tuple_of(kind):
    return lambda value: type(value) is tuple and all(type(v) is kind for v in value)


# The declared kind of each field, as ``asdict`` must hold it. ObjectiveKind
# is a str subclass, so json writes it as its value.
_KINDS = {
    TaskSpec: {
        "name": _is(str),
        "dimension": _is(int),
        "shift": _optional(_tuple_of(float)),
        "angle": _optional(_is(float)),
        "grid_size": _optional(_is(int)),
        "repeat": _optional(_is(int)),
        "seed": _is(int),
    },
    TrainConfig: {
        "objective": lambda value: isinstance(value, ObjectiveKind),
        "noise_scale": _is(float),
        "steps": _is(int),
        "batch_size": _is(int),
        "learning_rate": _is(float),
        "optimizer": _is(str),
        "seed": _is(int),
        "log_every": _is(int),
    },
    ModelConfig: {
        "input_dim": _is(int),
        "hidden": _tuple_of(int),
        "time_features": _is(int),
        "context_dim": _is(int),
        "activation": _is(str),
    },
}


@st.composite
def _fields(draw, cls):
    """A base's fields, each one, given or defaulted, drawn from the mixed
    strategy instead with probability 1/4, so that some examples build."""
    kwargs = dict(draw(st.sampled_from(_BASES[cls])))
    for field in dataclasses.fields(cls):
        if draw(st.integers(0, 3)) == 0:
            kwargs[field.name] = draw(_VALUES)
    return kwargs


def _two_steps(cls, config):
    """(task, model config, training config) of a 2-step run around ``config``."""
    task = TaskSpec("gaussian_shift", 2, shift=(1.0, 0.0))
    model = ModelConfig(input_dim=2, hidden=(4,))
    training = TrainConfig(steps=2, batch_size=4)
    if cls is TaskSpec:
        task = config
        model = ModelConfig(input_dim=task.dimension, hidden=(4,), context_dim=task.context_dim)
    elif cls is TrainConfig:
        training = dataclasses.replace(config, steps=2)
    else:
        model = config
        task = TaskSpec("gaussian_shift", model.input_dim, shift=(1.0,) * model.input_dim)
    return task, model, training


@pytest.mark.parametrize("cls", [TaskSpec, TrainConfig, ModelConfig], ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_config_is_rejected_or_typed_and_trains(cls, data):
    """150 examples per class, ~1 s for all three on a 2-core box."""
    kwargs = data.draw(_fields(cls), label="fields")
    try:
        config = cls(**kwargs)
    except ValueError:
        return
    stored = dataclasses.asdict(config)
    assert all(_KINDS[cls][name](value) for name, value in stored.items()), stored
    json.dumps(stored, allow_nan=False)
    task, model, training = _two_steps(cls, config)
    try:
        train(init(model, RngStream(seed=0)), model, pair_provider(task), training)
    except (ValueError, NumericalError):
        pass
