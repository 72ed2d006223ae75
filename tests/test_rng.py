"""SplitMix64: the batched draw is the same stream as single draws."""

import pytest

from lsc.errors import ParameterError
from lsc.rng import SplitMix64


def _reference_randbelow(rng, n):
    """One draw by the definition: next64() mod n, rejecting the top 2^64 mod n values."""
    if n == 1:
        return 0
    threshold = (1 << 64) - ((1 << 64) % n)
    while True:
        r = rng.next64()
        if r < threshold:
            return r % n


@pytest.mark.parametrize("n", [1, 2, 3, 16, 4096, 2**63 + 1])
def test_randbelow_many_matches_repeated_randbelow(n):
    for seed in (0, 1, 2024, 2**64 - 1, 0x9E3779B97F4A7C15):
        reference, single, batch = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, 7, 64):
            expected = [_reference_randbelow(reference, n) for _ in range(count)]
            assert [single.randbelow(n) for _ in range(count)] == expected
            assert batch.randbelow_many(n, count) == expected
            assert batch._state == single._state == reference._state
        # the generators stay interchangeable afterwards
        assert batch.randbelow(n) == single.randbelow(n) == _reference_randbelow(reference, n)


def test_randbelow_many_exercises_rejection():
    # 2^63 + 1 leaves a threshold just above 2^63, so about half the raw
    # draws are rejected: the batch must skip exactly the same ones
    n = 2**63 + 1
    rng = SplitMix64(7)
    raw = [rng.next64() for _ in range(200)]
    threshold = (1 << 64) - ((1 << 64) % n)
    kept = [r % n for r in raw if r < threshold]
    assert 50 < len(kept) < 150
    batch = SplitMix64(7)
    assert batch.randbelow_many(n, len(kept)) == kept
    # the last raw draw was kept, so the state stops right after it
    last = max(i for i, r in enumerate(raw) if r < threshold)
    replay = SplitMix64(7)
    for _ in range(last + 1):
        replay.next64()
    assert batch._state == replay._state


@pytest.mark.parametrize("n", [0, -1, -(2**64)])
def test_randbelow_many_rejects_empty_range(n):
    rng = SplitMix64(1)
    with pytest.raises(ParameterError):
        rng.randbelow_many(n, 3)
    with pytest.raises(ParameterError):
        rng.randbelow_many(n, 0)
    with pytest.raises(ParameterError):
        SplitMix64(1).randbelow_many(2, -1)
    assert rng._state == SplitMix64(1)._state
