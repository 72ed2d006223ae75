"""Seeded randomness with a pinned, portable algorithm.

All randomized paths in the package draw from SplitMix64 (Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014, with
the 64-bit finalizer of Vigna's reference code).  The algorithm is fixed
here so that identical seeds give identical experiment output on every
platform and Python version; per-trial streams are derived with
:func:`derive_seed` so output never depends on worker scheduling.

SplitMix64 is counter-based: output i of the stream seeded with s is
mix64(s + (i+1)·γ mod 2^64).  So a batch of draws is computed in one
pass: the states sit in 128-bit lanes of one Python int, and mix64's
xor-shifts and multiplies run on the whole int, each lane masked back to
64 bits (a 64 x 64-bit product fits its lane, so no carry crosses lanes).
The batch is the same stream, and leaves the same state, as one draw at
a time.  The lanes are read back with one little-endian ``struct``
format, so one path serves every host.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from functools import lru_cache

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_LANE_BITS = 128
_LANES = 256  # lanes per pass: the ints of one pass hold 256 * 128 bits


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic per-stream seed from a master seed and index path."""
    h = mix64(master)
    for ix in indices:
        h = mix64(h ^ mix64((ix + 1) * _GOLDEN))
    return h


@lru_cache(maxsize=128)
def _lane_constants(lanes: int) -> tuple[int, int, int, Callable[[bytes], tuple[int, ...]]]:
    """(ones, steps, mask, read) for ``lanes`` lanes: 1, (i+1)·γ and 2^64 - 1
    in lane i, and the unpacker of each lane's low word from the lanes'
    little-endian bytes."""
    ones = sum(1 << (_LANE_BITS * i) for i in range(lanes))
    steps = sum(((i + 1) * _GOLDEN) << (_LANE_BITS * i) for i in range(lanes))
    read = struct.Struct("<" + "Q8x" * lanes).unpack
    return ones, steps, ones * _MASK64, read


def _draw_lanes(state: int, lanes: int, low: int) -> tuple[int, ...]:
    """The next ``lanes`` outputs after ``state``, each and-ed with ``low``."""
    ones, steps, mask, read = _lane_constants(lanes)
    z = (state * ones + steps) & mask  # lane i: state + (i+1)·γ mod 2^64
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z = (z ^ (z >> 31)) & ones * low
    # two 8-byte words per lane, the low word (the output) first
    return read(z.to_bytes(lanes * _LANE_BITS // 8, "little"))


class SplitMix64:
    """The SplitMix64 sequence generator."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        return self.randbelow_many(n, 1)[0]

    def randbelow_many(self, n: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, n), as ``count`` calls of ``randbelow(n)``.

        A draw is ``next64() % n`` for 1 < n <= 2^64, and a ``next64`` value
        in the top 2^64 mod n values is rejected and drawn again (none when
        n is a power of two); n = 1 draws nothing.  The draws are made in
        passes of at most ``_LANES`` outputs (``_draw_lanes``), and the state
        ends right after the last accepted output.
        """
        if n <= 0:
            raise ParameterError("randbelow requires a positive bound")
        if n > 1 << 64:
            raise ParameterError("randbelow draws from 64 bits: the bound must be at most 2^64")
        if count < 0:
            raise ParameterError("count must be non-negative")
        if n == 1:
            return [0] * count
        excess = (1 << 64) % n
        threshold = (1 << 64) - excess
        state = self._state
        out: list[int] = []
        # a power of two rejects nothing, and the lanes reduce its draws
        low = _MASK64 if excess else n - 1
        while len(out) < count:
            lanes = min(count - len(out), _LANES)
            draws = _draw_lanes(state, lanes, low)
            state = (state + lanes * _GOLDEN) & _MASK64
            if excess:
                draws = [z % n for z in draws if z < threshold]
            out += draws
        self._state = state
        return out

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        if b < a:
            raise ParameterError("empty range")
        return a + self.randbelow(b - a + 1)
