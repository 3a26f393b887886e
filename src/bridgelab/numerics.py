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
sampler suite of ``verify`` sweeps on a worker).

Normal variates use numpy's ziggurat sampler on the Philox keystream; this
fixes the bitwise-reproducibility contract of this implementation (a pinned
numpy provides stable streams, no reproducibility is claimed across
different normal-sampling algorithms).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

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


def _check_u64(name: str, value) -> None:
    """Reject anything but an integer in [0, 2^64): a Philox key word holds no
    more, and reducing a value modulo 2^64 would alias distinct ones."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


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

