import threading
import tracemalloc

import numpy as np
import pytest

from bridgelab import numerics
from bridgelab.model import ModelConfig, init
from bridgelab.numerics import RngStream, _BlasHolds, openblas
from bridgelab.objectives import ObjectiveKind
from bridgelab.tasks import TaskSpec, pair_provider
from bridgelab.trainer import TrainConfig, train

# Shared reference-run configuration for the objective ablation: plain
# gradient descent so the raw-velocity gradient spikes act on the parameters
# directly instead of being absorbed by adaptive-moment rescaling.
ABLATION_SEED = 2
ABLATION_STEPS = 2000
ABLATION_LR = 1e-2


def kernel_fingerprint() -> str:
    """The CPU kernels behind the pinned network digests: numpy's version, its
    SIMD dispatch targets enabled on this CPU and the core its bundled
    OpenBLAS picked. Those pins hold only where all three match the machine
    that made them; a part that cannot be read prints as unknown."""
    try:
        from numpy._core import _multiarray_umath as umath

        simd = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)) or "none"
    except (ImportError, AttributeError):
        simd = "unknown"
    lib = openblas()
    core = "unknown" if lib is None else lib.scipy_openblas_get_corename64_().decode()
    return f"kernels: numpy {np.__version__}; SIMD {simd}; OpenBLAS core {core}"


def pytest_report_header(config):
    return kernel_fingerprint()


def blas_thread_count() -> int | None:
    """OpenBLAS's thread count, or None where numpy bundles no scipy-openblas."""
    lib = openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """``train``, ``sampler.integrate`` and ``verify.run_suite`` join their
    workers and restore OpenBLAS's thread count on every path, so a test that
    leaves a thread alive, OpenBLAS at another count or a ``blas_threads``
    hold open, fails here. Where OpenBLAS already runs on one thread, a leaked
    hold leaves the count unchanged; only the open holds show it."""
    before, count = set(threading.enumerate()), blas_thread_count()
    yield
    left = set(threading.enumerate()) - before
    assert not left, f"threads left alive: {sorted(t.name for t in left)}"
    assert blas_thread_count() == count, "OpenBLAS's thread count changed"
    assert _BlasHolds.open == 0, f"{_BlasHolds.open} blas_threads holds left open"


@pytest.fixture()
def refused_worker(monkeypatch) -> list[bool]:
    """Each decision that ``numerics.worker_pays`` makes, in call order, while
    it refuses the worker whatever it decides, so every run in the test stays
    on the calling thread."""
    decisions, pays = [], numerics.worker_pays

    def refusing(values, macs):
        decisions.append(pays(values, macs))
        return False

    monkeypatch.setattr(numerics, "worker_pays", refusing)
    return decisions


def traced_peak(func, *args, **kwargs):
    """(result, peak) of ``func(*args, **kwargs)``: peak is the most bytes that
    tracemalloc saw allocated during the call beyond what was live when it
    began. numpy registers its array buffers with tracemalloc, so the figure
    counts them, and it does not depend on the allocator's thresholds."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = func(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


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
