"""Deterministic draws for fault decisions.

Fault injection must not perturb any other random stream (the workload
generators own their seeded NumPy generators) and must produce the same
schedule whether a run executes serially, in a forked pool worker, or on
another platform.  So there is no RNG *object* at all: every decision is
a pure function of ``(seed, stream indices)`` through a SplitMix64 hash
chain — the same mixer :func:`repro.runtime.derive_seed` uses for task
seeds.

>>> uniform01(7, 3, 0) == uniform01(7, 3, 0)
True
>>> 0.0 <= uniform01(7, 3, 0) < 1.0
True
>>> uniform01(7, 3, 0) != uniform01(7, 3, 1)
True

:func:`uniform01_array` is the same chain over ``uint64`` arrays, for
callers that draw a whole column at once (the fault schedule):

>>> uniform01_array(7, np.arange(4), 0).tolist() == [
...     uniform01(7, i, 0) for i in range(4)]
True
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

_MASK64 = (1 << 64) - 1
#: SplitMix64's state increment (2**64 / golden ratio).
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 step: advance ``state`` and finalize to 64 bits."""
    z = (state + GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(seed: int, *streams: int) -> int:
    """Hash ``seed`` and any number of stream indices into 64 bits.

    Each additional stream index re-keys the chain, so
    ``mix(s, a, b)`` and ``mix(s, a, c)`` are statistically independent
    draws for ``b != c``.
    """
    value = splitmix64(seed & _MASK64)
    for stream in streams:
        value = splitmix64(value ^ (stream & _MASK64))
    return value


def uniform01(seed: int, *streams: int) -> float:
    """A uniform draw in ``[0, 1)`` keyed by ``(seed, *streams)``.

    Uses the top 53 bits of the mix, so the value is exactly
    representable and identical on every platform.
    """
    return (mix(seed, *streams) >> 11) * (1.0 / (1 << 53))


def _splitmix64_array(state: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` elementwise; ``uint64`` arithmetic wraps."""
    z = state + np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform01_array(seed: int, *streams: ArrayLike) -> np.ndarray:
    """:func:`uniform01` for every element of broadcast stream arrays.

    Element ``n`` equals ``uniform01(seed, *(s[n] for s in streams))``
    bit for bit: the chain is the same, the 53-bit integer converts to a
    float exactly, and the scaling is by a power of two.  Stream values
    are taken modulo 2**64, as the scalar form does (a negative
    ``int64`` wraps).
    """
    value = np.array(splitmix64(seed & _MASK64), dtype=np.uint64, ndmin=1)
    for stream in streams:
        value = _splitmix64_array(
            value ^ np.asarray(stream).astype(np.uint64)
        )
    return (value >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
