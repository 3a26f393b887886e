import numpy as np
import pytest

from bridgelab.model import ModelConfig, init
from bridgelab.numerics import RngStream
from bridgelab.objectives import ObjectiveKind
from bridgelab.tasks import TaskSpec, pair_provider
from bridgelab.trainer import TrainConfig, train

# Shared reference-run configuration for the objective ablation: plain
# gradient descent so the raw-velocity gradient spikes act on the parameters
# directly instead of being absorbed by adaptive-moment rescaling.
ABLATION_SEED = 2
ABLATION_STEPS = 2000
ABLATION_LR = 1e-2


@pytest.fixture(scope="session")
def shift_task() -> TaskSpec:
    return TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))


@pytest.fixture(scope="session")
def trained_shift_models(shift_task):
    """One model per objective, identical seeds and sample streams.

    Returns (models, build_seconds) so runtime-budgeted tests can account
    for the shared training cost.
    """
    import time

    started = time.perf_counter()
    models = {}
    for objective in ObjectiveKind:
        mconfig = ModelConfig(input_dim=2, hidden=(32, 32))
        config = TrainConfig(
            objective=objective,
            noise_scale=1.0,
            steps=ABLATION_STEPS,
            batch_size=32,
            learning_rate=ABLATION_LR,
            optimizer="sgd",
            seed=ABLATION_SEED,
        )
        params = init(mconfig, RngStream(seed=ABLATION_SEED, stream=900))
        params, stats = train(params, mconfig, pair_provider(shift_task), config)
        models[objective] = (params, mconfig, stats)
    return models, time.perf_counter() - started


@pytest.fixture()
def rng() -> RngStream:
    return RngStream(seed=1234)


@pytest.fixture()
def unit_pair():
    from bridgelab.bridge import EndpointPair

    return EndpointPair(np.array([[0.0]]), np.array([[1.0]]))
