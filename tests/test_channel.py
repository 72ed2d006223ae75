"""Operator channel contract: exact mode, matrix mode, determinism."""

import itertools

import pytest

from lsc.channel import ChannelSpec, apply_exact, apply_matrix, make_trial
from lsc.errors import ParameterError
from lsc.linalg import (
    MatrixFq,
    Subspace,
    intersection,
    random_subspace,
    row_space,
    subspace_distance,
    subspace_sum,
)
from lsc.rng import SplitMix64


def test_spec_validation():
    with pytest.raises(ParameterError):
        ChannelSpec(rho=-1, t=0)
    with pytest.raises(ParameterError):
        ChannelSpec(rho=0, t=-1)
    # the spec only describes the exact channel; a mode it would ignore is refused
    with pytest.raises(TypeError):
        ChannelSpec(rho=1, t=1, mode="matrix")


def test_make_trial_is_messages_encode_channel(example_code):
    rng = SplitMix64(60)
    word = example_code.random_codeword(rng)
    outcome = apply_exact(word.V, ChannelSpec(rho=2, t=1), rng)
    assert make_trial(example_code, 60, ChannelSpec(rho=2, t=1)) == (word, outcome)
    rng = SplitMix64(61)
    word = example_code.random_codeword(rng)
    outcome = apply_matrix(word.V, 6, 1, rng)
    assert make_trial(example_code, 61, collected=6, error_packets=1) == (word, outcome)


def test_identity_channel(example_code, fp24):
    rng = SplitMix64(51)
    word = example_code.encode([[fp24.from_index(3)], [fp24.from_index(9)]])
    outcome = apply_exact(word.V, ChannelSpec(rho=0, t=0), rng)
    assert outcome.U == word.V
    assert outcome.realized_rho == outcome.realized_t == 0


def test_exact_mode_contract(example_code):
    rng = SplitMix64(52)
    size = example_code.params.size
    for _ in range(300):
        rho, t = rng.randbelow(5), rng.randbelow(5)
        msgs = [
            [example_code.params.from_index(rng.randbelow(size))]
            for _ in example_code.layers
        ]
        word = example_code.encode(msgs)
        outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
        inter = intersection(word.V, outcome.U)
        # U = (V ∩ U) ⊕ E decomposition by dimensions
        assert inter.dim == word.V.dim - rho
        assert outcome.U.dim == inter.dim + t
        assert subspace_distance(word.V, outcome.U) == rho + t
        assert outcome.realized_rho == rho and outcome.realized_t == t
        # dimension bookkeeping at the two documented grid points
        if (rho, t) == (2, 2):
            assert outcome.U.dim == 7 and subspace_distance(word.V, outcome.U) == 4
        if (rho, t) == (2, 1):
            assert outcome.U.dim == 6 and subspace_distance(word.V, outcome.U) == 3


def test_exact_mode_bounds(example_code, fp24):
    word = example_code.encode([[fp24.zero()], [fp24.zero()]])
    rng = SplitMix64(53)
    with pytest.raises(ParameterError):
        apply_exact(word.V, ChannelSpec(rho=8, t=0), rng)
    with pytest.raises(ParameterError):
        apply_exact(word.V, ChannelSpec(rho=0, t=5), rng)


def test_full_ambient_insertions(example_code, fp24):
    # t can exhaust the ambient complement entirely
    word = example_code.encode([[fp24.from_index(5)], [fp24.from_index(2)]])
    rng = SplitMix64(54)
    outcome = apply_exact(word.V, ChannelSpec(rho=0, t=4), rng)
    assert outcome.U.dim == 11


def test_determinism_and_pinned_stream(example_code, fp24):
    word = example_code.encode([[fp24.from_index(7)], [fp24.from_index(11)]])
    a = apply_exact(word.V, ChannelSpec(rho=2, t=1), SplitMix64(999))
    b = apply_exact(word.V, ChannelSpec(rho=2, t=1), SplitMix64(999))
    assert a.U == b.U
    # pin the SplitMix64 sequence itself so the generator cannot drift
    rng = SplitMix64(2024)
    assert [rng.next64() for _ in range(3)] == [
        11487996472437173461,
        1793612131670815442,
        5507758030568793471,
    ]


def test_matrix_mode_trivial_cases(example_code, fp24):
    word = example_code.encode([[fp24.from_index(1)], [fp24.from_index(2)]])
    rng = SplitMix64(55)
    # plenty of packets, no errors: usually everything arrives; realized
    # values must stay within their bounds regardless
    for _ in range(50):
        outcome = apply_matrix(word.V, 9, 0, rng)
        assert outcome.realized_t == 0
        assert outcome.realized_rho <= word.V.dim
    # fewer packets than dim(V) forces erasures
    for _ in range(20):
        outcome = apply_matrix(word.V, 2, 0, rng)
        assert outcome.realized_t == 0
        assert outcome.realized_rho >= word.V.dim - 2
    with pytest.raises(ParameterError):
        apply_matrix(word.V, -1, 0, rng)


def test_matrix_mode_distribution_matches_enumeration():
    """collected = dim(V) + 2 over a 2-dim space in ambient 4: the realized
    erasure distribution must match exhaustive enumeration of A."""
    v = row_space(MatrixFq.from_rows(2, [[1, 0, 1, 0], [0, 1, 0, 1]]), 4)
    collected = 4
    exact_counts = {0: 0, 1: 0, 2: 0}
    for bits in itertools.product(range(2), repeat=collected * 2):
        a = MatrixFq(2, collected, 2, tuple(tuple(bits[2 * i : 2 * i + 2]) for i in range(collected)))
        rank = (a @ v.basis).rank()
        exact_counts[v.dim - rank] += 1
    total = 2 ** (collected * 2)
    rng = SplitMix64(56)
    trials = 4000
    observed = {0: 0, 1: 0, 2: 0}
    for _ in range(trials):
        outcome = apply_matrix(v, collected, 0, rng)
        observed[outcome.realized_rho] += 1
    for rho, count in exact_counts.items():
        p = count / total
        tolerance = 5 * (p * (1 - p) / trials) ** 0.5 + 1e-9
        assert abs(observed[rho] / trials - p) <= tolerance, (rho, p, observed)


def test_matrix_mode_with_errors(example_code, fp24):
    word = example_code.encode([[fp24.from_index(4)], [fp24.from_index(8)]])
    rng = SplitMix64(57)
    saw_insertion = False
    for _ in range(100):
        outcome = apply_matrix(word.V, 9, 2, rng)
        assert outcome.realized_t <= 2
        assert outcome.realized_rho <= word.V.dim
        saw_insertion = saw_insertion or outcome.realized_t > 0
        # Eq.(3) consistency: d_S = rho + t always
        assert (
            subspace_distance(word.V, outcome.U)
            == outcome.realized_rho + outcome.realized_t
        )
    assert saw_insertion


@pytest.mark.parametrize("q", [2, 3, 5])
def test_matrix_mode_realized_counts_match_intersection(q):
    """rho and t from one rank equal dim V - dim(V∩U) and dim U - dim(V∩U)."""
    rng = SplitMix64(59 + q)
    for trial in range(60):
        ambient = 2 + rng.randbelow(5)
        v = random_subspace(q, ambient, rng.randbelow(ambient + 1), rng)
        collected = 0 if trial % 6 == 0 else rng.randbelow(v.dim + 3)
        outcome = apply_matrix(v, collected, rng.randbelow(3), rng)
        inter = intersection(v, outcome.U).dim
        assert outcome.realized_rho == v.dim - inter
        assert outcome.realized_t == outcome.U.dim - inter


def test_outcome_carries_ground_truth(example_code, fp24):
    word = example_code.encode([[fp24.from_index(1)], [fp24.from_index(1)]])
    outcome = apply_exact(word.V, ChannelSpec(rho=1, t=1), SplitMix64(58))
    assert outcome.V == word.V
