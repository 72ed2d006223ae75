"""Seeded randomness with a pinned, portable algorithm.

All randomized paths in the package draw from SplitMix64 (Steele, Lea &
Vigna's 64-bit mixer).  The algorithm is fixed here so that identical
seeds give identical experiment output on every platform and Python
version; per-trial streams are derived with :func:`derive_seed` so output
never depends on worker scheduling.
"""

from __future__ import annotations

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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

        A draw is ``next64() % n``, and a ``next64`` value in the top
        2^64 mod n values is rejected and drawn again (none for n = 1).
        One loop makes all the draws, with ``next64`` inlined.
        """
        if n <= 0:
            raise ParameterError("randbelow requires a positive bound")
        if count < 0:
            raise ParameterError("count must be non-negative")
        if n == 1:
            return [0] * count
        threshold = (1 << 64) - ((1 << 64) % n)
        state = self._state
        out = []
        while len(out) < count:
            # next64 with mix64 inlined
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < threshold:
                out.append(z % n)
        self._state = state
        return out

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        if b < a:
            raise ParameterError("empty range")
        return a + self.randbelow(b - a + 1)

    def choice(self, seq):
        if not seq:
            raise ParameterError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]
