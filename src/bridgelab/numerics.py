"""Dense float64 arrays and a counter-based, splittable random number source.

Everything downstream works on plain ``numpy.float64`` arrays ("tensors").
Randomness comes from :class:`RngStream`, a (seed, stream, counter) triple
mapped onto numpy's Philox counter-based bit generator: the 128-bit Philox
key is (seed, stream) and each draw starts at block ``counter << 64``, so
identical triples always reproduce identical output and distinct stream ids
give statistically independent sequences.

Each thread keeps one ``Generator(Philox)`` and sets its key, counter and
empty output buffer before every draw. That gives the bits of a generator
built for the draw, without the constructor's cost: ``Philox(key=...)``
first builds a SeedSequence from OS entropy and then discards it. The
generator is per thread because draws run on more than one thread (the
endpoint-variance sweep of ``verify`` is shared by a worker and the
calling thread).

``blas_threads`` holds numpy's bundled OpenBLAS to a thread count for the
length of a ``with`` block, and ``Prefetch`` runs an iterator of blocks on a
worker thread. ``prefetch`` makes the one decision between them for the
trainer and the sampler: a worker plus one OpenBLAS thread, or the calling
thread plus two (README, "Two cores: training and sampling").

Normal variates use numpy's ziggurat sampler on the Philox keystream; this
fixes the bitwise-reproducibility contract of this implementation (a pinned
numpy provides stable streams, no reproducibility is claimed across
different normal-sampling algorithms).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Carrier type for all vector quantities (states, endpoints, parameters,
# gradients). Always float64, always finite after public operations.
Tensor = np.ndarray

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_THREAD = threading.local()  # .generator: this thread's Generator(Philox)
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class NumericalError(RuntimeError):
    """A computation on valid inputs produced a non-finite value."""


def _integer(name: str, value) -> int:
    """``value`` as an int; floats and bools are rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float, which may be nan or inf (an int too large for a
    float becomes inf); bools, strings and other non-reals are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite_real(name: str, value) -> float:
    """``value`` as a float; bools, strings and other non-reals are rejected,
    and so are nan, inf and an int too large for a float."""
    real = _real(name, value)
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value}")
    return real


def _check_u64(name: str, value) -> int:
    """``value`` as an int; anything but an integer in [0, 2^64) is rejected: a
    Philox key word holds no more, and reducing a value modulo 2^64 would
    alias distinct ones."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return int(value)


@functools.cache
def openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with numpy's wheel (scipy-openblas, 64-bit
    integer interface), or None where numpy ships no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    if len(paths) != 1:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    except (OSError, AttributeError):
        return None
    return lib


class _BlasHolds:
    """The open ``blas_threads`` holds, and the count from before the first."""

    lock = threading.Lock()
    open = 0
    saved = 0


@contextlib.contextmanager
def blas_threads(count: int) -> Iterator[bool]:
    """Hold numpy's bundled OpenBLAS to ``count`` threads inside the block and
    restore its previous count on every exit path. Yields whether the count
    was set: False, with nothing changed, where ``openblas()`` is None.

    The count is the process's: BLAS calls on every thread see it. So holds
    may overlap, on one thread or on several, without nesting: the first to
    enter saves the count, each sets its own, and the last to exit restores
    the saved count.

    A hold changes which later products OpenBLAS splits, not the threads it
    has running: after a product that it split, its pool thread busy-waits
    for about 0.1 s before it sleeps, and a hold entered meanwhile does not
    stop it. Only code that runs under the hold from the start, as
    ``train`` and ``sampler.integrate`` do, keeps the pool asleep."""
    lib = openblas()
    if lib is None:
        yield False
        return
    with _BlasHolds.lock:
        if _BlasHolds.open == 0:
            _BlasHolds.saved = lib.scipy_openblas_get_num_threads64_()
        _BlasHolds.open += 1
        lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield True
    finally:
        with _BlasHolds.lock:
            _BlasHolds.open -= 1
            if _BlasHolds.open == 0:
                lib.scipy_openblas_set_num_threads64_(_BlasHolds.saved)


class Prefetch:
    """``blocks`` run on a worker thread, ahead of the calling thread.

    The calling thread allocates two sets of buffers of ``shapes``. The
    worker builds a block, waits for a free set, copies the block into it
    and hands the set's index over; the calling thread frees the set when it
    asks for the block after. So the worker runs at most two blocks ahead,
    and every array that it allocates is freed on the worker too, into the
    malloc arena it came from. Blocks, and then the exception that ended
    them, arrive in block order. Leaving the ``with`` block stops the
    worker, which may be waiting for a free set, and joins it.
    """

    def __init__(self, blocks: Iterator[tuple[Tensor, ...]], shapes: list[tuple[int, ...]]):
        self._blocks = blocks
        self._sets = [[np.empty(shape) for shape in shapes] for _ in range(2)]
        self._free: queue.SimpleQueue = queue.SimpleQueue()
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        self._stop = threading.Event()
        for index in range(len(self._sets)):
            self._free.put(index)
        self._worker = threading.Thread(target=self._run, name="bridgelab-prefetch")

    def _run(self) -> None:
        try:
            for block in self._blocks:
                index = self._free.get()
                if self._stop.is_set():
                    return
                # each array is freed here, before the next block is built
                for out, value in zip(self._sets[index], block):
                    np.copyto(out, value)
                    del value
                del block
                self._ready.put(index)
            self._ready.put(None)
        # Any exception, as an executor's future keeps it: the calling thread
        # raises it, and without it would wait for a block forever.
        except BaseException as error:
            self._ready.put(error)
        finally:
            self._blocks.close()

    def __enter__(self) -> Iterator[list[Tensor]]:
        self._worker.start()
        return self._iter()

    def _iter(self) -> Iterator[list[Tensor]]:
        while (item := self._ready.get()) is not None:
            if isinstance(item, BaseException):
                raise item
            yield self._sets[item]
            self._free.put(item)

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._free.put(None)
        self._worker.join()


# Network multiply-adds a step, per value that the worker hands over in the
# step, up to which a worker beside one OpenBLAS thread beats the calling
# thread with two (README, "Two cores: training and sampling").
_MACS_PER_WORKER_VALUE = 1024


def worker_pays(values: int, macs: int | None) -> bool:
    """Whether a worker that hands over ``values`` values a step should run
    ahead of a network of ``macs`` multiply-adds a step. A caller passes None
    where its own floor rules the worker out."""
    return macs is not None and macs <= _MACS_PER_WORKER_VALUE * values


@contextlib.contextmanager
def prefetch(
    blocks: Iterator[tuple[Tensor, ...]], shapes: list[tuple[int, ...]], macs: int | None
) -> Iterator[Iterator]:
    """``blocks``, each a step's arrays of ``shapes``, from a ``Prefetch``
    worker with OpenBLAS held to one thread, where ``worker_pays`` for the
    values of ``shapes`` and the count can be set; otherwise ``blocks``
    itself, on the calling thread. Either way they arrive in order with the
    same bits."""
    if worker_pays(sum(map(math.prod, shapes)), macs):
        with blas_threads(1) as held:
            if held:
                with Prefetch(blocks, shapes) as prefetched:
                    yield prefetched
                return
    yield blocks


@dataclass
class RngStream:
    """Deterministic random source identified by (seed, stream, counter).

    ``seed`` and ``stream`` are integers in [0, 2^64), the two words of the
    Philox key; any other value raises ValueError. The counter advances by
    the number of elements drawn, so a call drawing an empty shape leaves the
    stream untouched and replaying a stream from a recorded counter
    reproduces the exact sequence.
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        _check_u64("seed", self.seed)
        _check_u64("stream", self.stream)

    def split(self, index: int) -> "RngStream":
        """Derive an independent child stream; does not consume randomness.

        ``index`` is an integer in [0, 2^64). Children with distinct indices
        (or from distinct parents) map to distinct Philox keys and are
        therefore independent streams.
        """
        _check_u64("split index", index)
        mixed = _splitmix64(self.stream ^ _splitmix64(index))
        return RngStream(seed=self.seed, stream=mixed, counter=0)

    def _generator(self) -> np.random.Generator:
        """This thread's generator, set to draw from key (seed, stream) at block counter << 64."""
        gen = getattr(_THREAD, "generator", None)
        if gen is None:
            gen = _THREAD.generator = np.random.Generator(np.random.Philox(key=0))
        c = self.counter
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            # the 256-bit counter's words, low first, of counter << 64
            "state": {
                "counter": [0, c & _MASK64, (c >> 64) & _MASK64, c >> 128],
                "key": [self.seed, self.stream],
            },
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,  # the buffer is spent: the next draw starts a block
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


def _draw(rng: RngStream, shape: int | tuple[int, ...] | list[int], method) -> Tensor:
    """``method(generator, n)`` reshaped to ``shape``; the counter advances by n."""
    shape = (shape,) if isinstance(shape, int) else tuple(int(d) for d in shape)
    if any(d < 0 for d in shape):
        raise ValueError(f"invalid shape {shape}")
    n = math.prod(shape)
    if n == 0:
        return np.empty(shape, dtype=np.float64)
    out = method(rng._generator(), n).reshape(shape)
    rng.counter += n
    return out


def gaussian(rng: RngStream, shape: int | tuple[int, ...] | list[int]) -> Tensor:
    """Draw i.i.d. standard normal entries, advancing the stream counter.

    Args:
        rng: stream to draw from; its counter advances by the element count.
        shape: output shape (non-negative dimensions).

    Returns:
        float64 array of the requested shape.
    """
    return _draw(rng, shape, np.random.Generator.standard_normal)


def uniform(rng: RngStream, shape: int | tuple[int, ...] | list[int]) -> Tensor:
    """Draw i.i.d. U[0, 1) entries, advancing the stream counter like gaussian."""
    return _draw(rng, shape, np.random.Generator.random)

