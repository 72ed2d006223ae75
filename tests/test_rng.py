"""SplitMix64: the batched draw is the same stream as single draws."""

import pytest

from lsc.errors import ParameterError
from lsc.rng import _GOLDEN, _LANES, _MASK64, SplitMix64


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


# Counts on each side of the per-pass lane cap, and one that takes several passes.
_COUNTS = (0, 1, 2, _LANES - 1, _LANES, _LANES + 1, 1031)
# The state passes 2^64 inside every batch of two or more draws (γ > 2^63);
# from -10γ the tenth next64 meets state 0, whose output is 0.
_WRAP_SEEDS = (_MASK64, (1 << 64) - _GOLDEN, (-10 * _GOLDEN) & _MASK64)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 16, 81, 4096, 3**8, 2**63 + 1, 2**64])
def test_lane_batches_match_the_reference_at_every_count(n):
    for seed in _WRAP_SEEDS:
        reference, batch = SplitMix64(seed), SplitMix64(seed)
        for count in _COUNTS:
            expected = [_reference_randbelow(reference, n) for _ in range(count)]
            assert batch.randbelow_many(n, count) == expected, (seed, count)
            assert batch._state == reference._state, (seed, count)


@pytest.mark.parametrize("n", [3, 4096, 2**63 + 1])
def test_single_draws_interleave_with_lane_batches(n):
    reference, rng = SplitMix64(99), SplitMix64(99)
    for count in (_LANES + 3, 1, 5, 1, 2, 1031, 0, 1, 3):
        expected = [_reference_randbelow(reference, n) for _ in range(count)]
        assert rng.randbelow_many(n, count) == expected
        assert rng._state == reference._state
        assert rng.randbelow(n) == _reference_randbelow(reference, n)
        assert rng._state == reference._state


def test_lane_batch_state_stops_after_the_last_accepted_draw():
    # about half the raw draws are rejected at 2^63 + 1, so a batch of
    # _LANES outputs needs several passes, each shorter than the last
    n = 2**63 + 1
    threshold = (1 << 64) - ((1 << 64) % n)
    raw_rng = SplitMix64(3)
    raw = [raw_rng.next64() for _ in range(4 * _LANES)]
    accepted = [i for i, r in enumerate(raw) if r < threshold][:_LANES]
    batch = SplitMix64(3)
    assert batch.randbelow_many(n, _LANES) == [raw[i] % n for i in accepted]
    assert batch._state == (3 + (accepted[-1] + 1) * _GOLDEN) & _MASK64


def test_bounds_above_two_to_the_64_are_rejected():
    rng = SplitMix64(1)
    with pytest.raises(ParameterError):
        rng.randint(0, 2**64)
    with pytest.raises(ParameterError):
        rng.randbelow(2**64 + 1)
    with pytest.raises(ParameterError):
        rng.randbelow_many(2**65, 0)
    assert rng._state == SplitMix64(1)._state
    # 2^64 itself is the raw stream
    assert rng.randint(0, 2**64 - 1) == SplitMix64(1).next64()
