"""Operator channel contract: exact mode, matrix mode, determinism."""

import itertools

import pytest

from lsc.channel import ChannelOutcome, ChannelSpec, apply_exact, apply_matrix, make_trial
from lsc.errors import CapacityError, ParameterError
from lsc.field import FieldParams
from lsc.layered import LayeredCode
from lsc.linalg import (
    MatrixFq,
    Subspace,
    _rank,
    intersection,
    random_full_rank_matrix,
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


def test_identity_channel(example_code):
    rng = SplitMix64(51)
    word = example_code.encode([[3], [9]])
    outcome = apply_exact(word.V, ChannelSpec(rho=0, t=0), rng)
    assert outcome.U == word.V
    assert outcome.realized_rho == outcome.realized_t == 0


def test_exact_mode_contract(example_code):
    rng = SplitMix64(52)
    size = example_code.params.size
    for _ in range(300):
        rho, t = rng.randbelow(5), rng.randbelow(5)
        msgs = [
            [rng.randbelow(size)]
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


def test_exact_mode_bounds(example_code):
    word = example_code.encode([[0], [0]])
    rng = SplitMix64(53)
    with pytest.raises(ParameterError):
        apply_exact(word.V, ChannelSpec(rho=8, t=0), rng)
    with pytest.raises(ParameterError):
        apply_exact(word.V, ChannelSpec(rho=0, t=5), rng)


def test_full_ambient_insertions(example_code):
    # t can exhaust the ambient complement entirely
    word = example_code.encode([[5], [2]])
    rng = SplitMix64(54)
    outcome = apply_exact(word.V, ChannelSpec(rho=0, t=4), rng)
    assert outcome.U.dim == 11


def test_determinism_and_pinned_stream(example_code):
    word = example_code.encode([[7], [11]])
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


def test_matrix_mode_trivial_cases(example_code):
    word = example_code.encode([[1], [2]])
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
    v = row_space(MatrixFq(2, 2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]), 4)
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


def test_matrix_mode_with_errors(example_code):
    word = example_code.encode([[4], [8]])
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


def test_outcome_carries_ground_truth(example_code):
    """The outcome holds U and the realized counts, which fix d_S(V, U)."""
    word = example_code.encode([[1], [1]])
    outcome = apply_exact(word.V, ChannelSpec(rho=1, t=1), SplitMix64(58))
    assert (outcome.realized_rho, outcome.realized_t) == (1, 1)
    assert outcome.distance == subspace_distance(word.V, outcome.U) == 2


def _apply_exact_before_shortcuts(v, spec, rng):
    """``apply_exact`` as written before V's basis stood in for a square C·B
    and the insertions extended one forward pass (argument checks dropped)."""
    q, n, kept = v.q, v.ambient_dim, v.dim - spec.rho
    rows = (random_full_rank_matrix(q, kept, v.dim, rng) @ v.basis)._data if kept else ()
    # insertions must stay independent of all of V, not just the kept part
    span = v.basis._data
    for _ in range(spec.t):
        for _attempt in range(1000):
            cand = MatrixFq.random(q, 1, n, rng)._data
            if _rank(q, n, span + cand) > len(span):
                span += cand
                rows += cand
                break
        else:
            raise CapacityError("insertion sampling exceeded its attempt cap")

    u = row_space(MatrixFq._unchecked(q, len(rows), n, rows), n)
    if u.dim != kept + spec.t:
        raise CapacityError("channel sampling produced a dependent insertion")
    return ChannelOutcome(U=u, realized_rho=spec.rho, realized_t=spec.t)


@pytest.mark.parametrize(
    "q, m, shape", [(2, 4, [(3, 1), (4, 1)]), (3, 3, [(2, 1), (3, 1)]), (5, 2, [(2, 1), (2, 1)])]
)
def test_apply_exact_matches_the_path_before_its_shortcuts(q, m, shape):
    """At every (rho, t), rho = 0 and dim V, t = 0 and ambient - dim V
    included, the exact channel gives the outcome and leaves the stream
    where the product-and-fresh-rank path does."""
    code = LayeredCode.standard(FieldParams.default(q, m), shape)
    dim = code.total_length
    for rho in range(dim + 1):
        for t in range(code.ambient_dim - dim + 1):
            for seed in range(4):
                rng = SplitMix64(1000 * q + 100 * rho + 10 * t + seed)
                v = code.random_codeword(rng).V
                mine, theirs = SplitMix64(seed), SplitMix64(seed)
                spec = ChannelSpec(rho=rho, t=t)
                got = apply_exact(v, spec, mine)
                assert got == _apply_exact_before_shortcuts(v, spec, theirs)
                assert mine._state == theirs._state


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_apply_exact_without_erasures_matches_row_space(q):
    """At rho = 0 the exact channel reduces V and its insertions by back
    substitution on the forward pass it extended.  Over spaces of every
    dimension and at every t up to ambient - dim V, U and the stream after
    it are those of the path that ends in ``row_space``."""
    rng = SplitMix64(70 + q)
    for ambient in (1, 4, 7):
        for dim in range(ambient + 1):
            v = random_subspace(q, ambient, dim, rng)
            for t in range(ambient - dim + 1):
                seed = rng.next64()
                mine, theirs = SplitMix64(seed), SplitMix64(seed)
                spec = ChannelSpec(rho=0, t=t)
                got = apply_exact(v, spec, mine)
                want = _apply_exact_before_shortcuts(v, spec, theirs)
                assert got == want and got.U.basis.entries == want.U.basis.entries
                assert mine._state == theirs._state


def _apply_matrix_two_products(v, collected_packets, error_packets, rng):
    """``apply_matrix`` as written before A B + D Z became the one product
    [A | D] [B ; Z] (verbatim, but for the outcome's dropped V field)."""
    if collected_packets < 0 or error_packets < 0:
        raise ParameterError("packet counts must be non-negative")
    q = v.q
    b = v.basis
    a = MatrixFq.random(q, collected_packets, v.dim, rng)
    y = a @ b
    if error_packets:
        z = MatrixFq.random(q, error_packets, v.ambient_dim, rng)
        d = MatrixFq.random(q, collected_packets, error_packets, rng)
        y = y + (d @ z)
    u = row_space(y, v.ambient_dim)
    inter = (v.dim + u.dim - subspace_distance(v, u)) // 2  # dim(V∩U)
    return ChannelOutcome(
        U=u, realized_rho=v.dim - inter, realized_t=u.dim - inter
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_apply_matrix_matches_the_two_product_path(q):
    """With 0, 1 or dim V + 2 collected packets and 0, 1 or 3 error packets,
    over spaces of every dimension, the one product gives the U and the
    realized (rho, t) of A B + D Z and leaves the stream where it does."""
    rng = SplitMix64(90 + q)
    for ambient in (1, 4, 7):
        for dim in range(ambient + 1):
            v = random_subspace(q, ambient, dim, rng)
            for collected in (0, 1, dim + 2):
                for errors in (0, 1, 3):
                    seed = rng.next64()
                    mine, theirs = SplitMix64(seed), SplitMix64(seed)
                    got = apply_matrix(v, collected, errors, mine)
                    want = _apply_matrix_two_products(v, collected, errors, theirs)
                    assert got.U == want.U and got.U.basis.entries == want.U.basis.entries
                    assert (got.realized_rho, got.realized_t) == (
                        want.realized_rho, want.realized_t
                    )
                    assert mine._state == theirs._state
