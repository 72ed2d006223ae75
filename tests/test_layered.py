"""Layered code construction, extraction, and both decoding algorithms."""

import pytest

from layered_reference import decode_alg1 as reference_alg1
from layered_reference import decode_alg2 as reference_alg2
from layered_reference import random_messages as reference_messages
from lsc import lifted as lifted_mod
from lsc.channel import ChannelSpec, apply_exact, make_trial
from lsc.errors import InvariantError, ParameterError
from lsc.field import FieldParams
from lsc.gabidulin import GabidulinCode
from lsc.layered import ALGORITHMS, STATUS_OK, LayeredCode
from lsc.lifted import lift
from lsc.linalg import (
    MatrixFq,
    Subspace,
    coordinate_zero_subspace,
    intersection,
    is_direct_sum,
    subspace_distance,
)
from lsc.rng import SplitMix64


@pytest.fixture(scope="module")
def q3_three_layers():
    """q=3, m=2, layers (1,1),(2,1),(1,1): the middle block touches neither end."""
    return LayeredCode.standard(FieldParams.default(3, 2), [(1, 1), (2, 1), (1, 1)])


def test_shape_and_distances(example_code):
    assert example_code.total_length == 7
    assert example_code.ambient_dim == 11
    assert example_code.offsets == (0, 3)
    assert example_code.min_distance() == 6
    assert [2 * l.min_rank_distance for l in example_code.layers] == [6, 8]


def test_encode_block_structure(fp24, example_code):
    rng = SplitMix64(31)
    word = example_code.random_codeword(rng)
    assert word.V.dim == 7
    # layer 2 rows carry zeros on layer 1's identity block and vice versa
    for row in word.components[0].basis.entries:
        assert all(x == 0 for x in row[3:7])
    for row in word.components[1].basis.entries:
        assert all(x == 0 for x in row[0:3])
    assert is_direct_sum(word.components[0], word.components[1])
    # all-zero messages give the identity-plus-zero-payload space
    zero_word = example_code.encode([[fp24.zero()], [fp24.zero()]])
    expected = MatrixFq.identity(2, 7).hstack(MatrixFq.zeros(2, 7, 4))
    assert zero_word.V.basis == expected


def test_prefix_codes_are_built_once(q3_three_layers):
    prefixes = q3_three_layers.prefixes
    assert [code.layers for code in prefixes] == [
        q3_three_layers.layers[:count] for count in (1, 2, 3)
    ]
    assert prefixes[-1] is q3_three_layers
    assert q3_three_layers.prefixes is prefixes


def test_random_codeword_draw_order(fp24):
    # one randbelow(|F|) per symbol, layer by layer: every seeded trial relies on it
    code = LayeredCode.standard(fp24, [(4, 2), (3, 1)])
    draws = SplitMix64(30)
    d0, d1, d2 = (fp24.from_index(draws.randbelow(16)) for _ in range(3))
    rng = SplitMix64(30)
    assert code.random_codeword(rng) == code.encode([[d0, d1], [d2]])
    assert rng._state == draws._state


# F_{7^4} has no built-in modulus; x^4 + x + 1 is irreducible over F_7
@pytest.mark.parametrize(
    "params",
    [FieldParams.default(2, 4), FieldParams.default(3, 4), FieldParams.default(5, 4),
     FieldParams(7, 4, (1, 1, 0, 0, 1))],
    ids=lambda p: f"q{p.q}",
)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_random_codeword_matches_encoding_random_messages(params, k):
    """The index path gives the codeword the element path gives, from the
    same draws, and leaves the stream in the same state."""
    code = LayeredCode.standard(params, [(4, k), (3, 1), (2, min(k, 2))])
    for seed in range(20):
        by_index, by_element = SplitMix64(seed), SplitMix64(seed)
        word = code.random_codeword(by_index)
        assert word == code.encode(reference_messages(code, by_element))
        assert by_index._state == by_element._state


def test_single_layer_reduces_to_lifting(fp24):
    code = LayeredCode.standard(fp24, [(3, 1)])
    msg = [fp24.from_index(9)]
    word = code.encode([msg])
    assert word.V == lift(code.layers[0], code.layers[0].encode(msg))


def test_extract_component_roundtrip(example_code):
    rng = SplitMix64(32)
    for _ in range(20):
        word = example_code.random_codeword(rng)
        for layer in (1, 2):
            stripped = example_code.extract_component(word.V, layer)
            assert stripped == lift(
                example_code.layers[layer - 1], word.component_matrices[layer - 1]
            )
            assert example_code.embed_component(layer, stripped) == word.components[layer - 1]


def test_extract_component_membership_oracle(tiny_code, q3_three_layers):
    """Every received vector vanishing on the other blocks lands in the extraction.

    The extraction also equals its definition, the intersection with the
    subspace vanishing on every other identity block, for received spaces
    from the channel and for the zero and the full space.
    """
    rng = SplitMix64(33)
    three_layers_q2 = LayeredCode.standard(FieldParams.default(2, 3), [(2, 1), (3, 2), (1, 1)])
    for code in (tiny_code, q3_three_layers, three_layers_q2):
        q, ambient = code.params.q, code.ambient_dim
        received = [Subspace.zero(q, ambient), Subspace.full(q, ambient)]
        for _ in range(10):
            word = code.random_codeword(rng)
            received.append(apply_exact(word.V, ChannelSpec(rho=1, t=1), rng).U)
        for U in received:
            for layer in range(1, code.num_layers + 1):
                stripped = code.extract_component(U, layer)
                n_l = code.layers[layer - 1].n
                assert stripped.ambient_dim == n_l + code.params.m
                extracted = code.embed_component(layer, stripped)
                offset = code.offsets[layer - 1]
                zero_cols = [
                    c for c in range(code.total_length) if not offset <= c < offset + n_l
                ]
                member = {v for v in U.vectors() if all(v[c] == 0 for c in zero_cols)}
                assert set(extracted.vectors()) == member
                mask = coordinate_zero_subspace(q, ambient, [c + 1 for c in zero_cols])
                assert extracted == intersection(U, mask)


def test_extract_validation(example_code):
    with pytest.raises(ParameterError):
        example_code.extract_component(Subspace.zero(2, 11), 3)
    with pytest.raises(ParameterError):
        example_code.extract_component(Subspace.zero(2, 9), 1)


def test_recompose_roundtrip_and_failure_dims(fp24, example_code, q3_three_layers):
    rng = SplitMix64(34)
    word = example_code.random_codeword(rng)
    stripped = [
        lift(example_code.layers[i], word.component_matrices[i]) for i in range(2)
    ]
    assert example_code.recompose(stripped) == word.V
    word3 = q3_three_layers.random_codeword(rng)
    lifts = [lift(c, x) for c, x in zip(q3_three_layers.layers, word3.component_matrices)]
    assert q3_three_layers.recompose(lifts) == word3.V
    # replacing a layer with the zero subspace drops exactly n_l dimensions
    partial = [stripped[0], Subspace.zero(2, 8)]
    assert example_code.recompose(partial).dim == word.V.dim - 4


def test_recompose_collision_raises(fp24, example_code):
    bad = Subspace.full(2, 7)  # not a lifted component; overlaps everything
    with pytest.raises((InvariantError, ParameterError)):
        example_code.recompose([bad, bad])
    # both layers claim the same payload vector: the sum is not direct
    first = Subspace(7, MatrixFq(2, 1, 7, ((0, 0, 0, 1, 0, 0, 0),)))
    second = Subspace(8, MatrixFq(2, 1, 8, ((0, 0, 0, 0, 1, 0, 0, 0),)))
    with pytest.raises(InvariantError):
        example_code.recompose([first, second])


def test_distinct_component_tuples_give_distinct_codewords(tiny_code):
    params = tiny_code.params
    seen = {}
    for i in range(params.size):
        for j in range(params.size):
            word = tiny_code.encode([[params.from_index(i)], [params.from_index(j)]])
            assert word.V not in seen, "two component tuples gave one codeword"
            seen[word.V] = (i, j)
    assert len(seen) == params.size**2


def test_min_distance_achieved_on_tiny_code(tiny_code):
    words = []
    params = tiny_code.params
    for i in range(params.size):
        for j in range(params.size):
            words.append(
                tiny_code.encode([[params.from_index(i)], [params.from_index(j)]]).V
            )
    dmin = None
    pairs = 0
    for a in words:
        for b in words:
            pairs += 1
            if a != b:
                d = subspace_distance(a, b)
                dmin = d if dmin is None else min(dmin, d)
    assert pairs == 256
    assert dmin == tiny_code.min_distance() == 4


def test_capability_is_the_largest_distance_below_half_the_minimum(example_code, tiny_code):
    shapes = [
        (2, 4, [(3, 1), (4, 1)]),  # sim-default and verify-quick
        (2, 12, [(6, 2), (6, 2)]),  # sim-f4096
        (3, 4, [(3, 1), (4, 2)]),  # sim-matrix-q3
    ]
    codes = [example_code, tiny_code] + [
        LayeredCode.standard(FieldParams.default(q, m), shape) for q, m, shape in shapes
    ]
    for code, expected in zip(codes, [2, 1, 2, 4, 2]):
        d = code.min_distance()
        assert code.capability == max(x for x in range(d) if 2 * x < d) == expected


def test_extraction_distance_bound_and_identities(example_code):
    rng = SplitMix64(35)
    for _ in range(300):
        rho, t = rng.randbelow(5), rng.randbelow(5)
        word = example_code.random_codeword(rng)
        outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
        ds = subspace_distance(word.V, outcome.U)
        for layer in (1, 2):
            u_l = example_code.embed_component(
                layer, example_code.extract_component(outcome.U, layer)
            )
            v_l = word.components[layer - 1]
            assert subspace_distance(v_l, u_l) <= ds
            assert intersection(v_l, outcome.U) == intersection(v_l, u_l)
            assert intersection(u_l, word.V) == intersection(u_l, v_l)


def test_guaranteed_regime_both_algorithms(example_code):
    rng = SplitMix64(36)
    for rho, t in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        for _ in range(60):
            word = example_code.random_codeword(rng)
            outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
            for report in (
                example_code.decode_alg1(outcome.U),
                example_code.decode_alg2(outcome.U),
                example_code.decode_alg2(outcome.U, iterative=True),
            ):
                assert report.all_ok
                assert report.recombined == word.V


def test_sic_accumulated_distance_monotone(example_code):
    rng = SplitMix64(37)
    for rho, t in [(1, 1), (2, 0), (0, 2)]:
        for _ in range(40):
            word = example_code.random_codeword(rng)
            outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
            report = example_code.decode_alg2(outcome.U)
            chain = [subspace_distance(word.V, s) for s in report.accumulated]
            chain.append(subspace_distance(word.V, report.recombined))
            assert all(a >= b for a, b in zip(chain, chain[1:]))
            assert chain[0] == rho + t
            assert chain[-1] == 0
            # the final working space is U + V, so the last accumulated
            # distance equals the insertion count
            assert chain[-2] == t


def test_beyond_capability_patterns(example_code):
    """Seeded search reproduces both worked decoding patterns."""
    rng = SplitMix64(38)
    seen_alg1_beyond = seen_rescue = False
    trials = 0
    while not (seen_alg1_beyond and seen_rescue) and trials < 4000:
        trials += 1
        rho, t = (2, 2) if trials % 2 else (2, 1)
        word = example_code.random_codeword(rng)
        outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
        layer_ds = tuple(
            subspace_distance(
                word.components[l - 1],
                example_code.embed_component(l, example_code.extract_component(outcome.U, l)),
            )
            for l in (1, 2)
        )
        r1 = example_code.decode_alg1(outcome.U)
        if (
            not seen_alg1_beyond
            and (rho, t) == (2, 2)
            and layer_ds == (2, 2)
            and r1.all_ok
            and r1.recombined == word.V
        ):
            # overall distance 4 is beyond half the minimum distance 6
            assert subspace_distance(word.V, outcome.U) == 4
            seen_alg1_beyond = True
        if not seen_rescue and (rho, t) == (2, 1) and layer_ds == (3, 2):
            r2 = example_code.decode_alg2(outcome.U)
            if (
                r1.layers[0].status != STATUS_OK
                and r1.layers[1].status == STATUS_OK
                and r2.all_ok
                and r2.recombined == word.V
            ):
                # the layer-1 retry sees the space after layer 2 was added back
                retry = example_code.embed_component(
                    1, example_code.extract_component(r2.accumulated[1], 1)
                )
                assert subspace_distance(word.components[0], retry) == 2
                seen_rescue = True
    assert seen_alg1_beyond and seen_rescue


def test_alg2_order_is_configurable(example_code):
    rng = SplitMix64(39)
    word = example_code.random_codeword(rng)
    outcome = apply_exact(word.V, ChannelSpec(rho=1, t=1), rng)
    forward = example_code.decode_alg2(outcome.U, order=[1, 2])
    assert forward.all_ok and forward.recombined == word.V
    assert forward.attempt_layers == [1, 2]
    with pytest.raises(ParameterError):
        example_code.decode_alg2(outcome.U, order=[1, 1])
    with pytest.raises(ParameterError):
        example_code.decode_alg2(outcome.U, max_sweeps=0)


def test_iterative_dominance_erasure_only(example_code):
    rng = SplitMix64(40)
    failures = rescued = 0
    for trial in range(150):
        rho = 3 + (trial % 2)
        word = example_code.random_codeword(rng)
        outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=0), rng)
        plain = example_code.decode_alg2(outcome.U)
        iterative = example_code.decode_alg2(outcome.U, iterative=True)
        assert plain.decoded_layers <= iterative.decoded_layers
        if not plain.all_ok:
            failures += 1
        if iterative.decoded_layers > plain.decoded_layers:
            rescued += 1
    assert failures > 0


def test_report_bookkeeping(example_code):
    rng = SplitMix64(41)
    word = example_code.random_codeword(rng)
    outcome = apply_exact(word.V, ChannelSpec(rho=1, t=0), rng)
    report = example_code.decode_alg2(outcome.U, iterative=True)
    assert report.sweeps >= 1
    assert len(report.accumulated) == len(report.attempt_layers) + 1
    assert report.stage_dims[0] == outcome.U.dim
    alg1 = example_code.decode_alg1(outcome.U)
    assert alg1.sweeps == 1 and alg1.accumulated == []
    # a failed layer holds no matrix and no message
    if not alg1.all_ok:
        for res in alg1.layers:
            if res.status != STATUS_OK:
                assert res.matrix is None and res.message is None


def test_layer_field_mismatch_rejected(fp24):
    from lsc.field import FieldParams

    other = FieldParams.default(2, 3)
    with pytest.raises(ParameterError):
        LayeredCode(
            (
                GabidulinCode.standard(fp24, 3, 1),
                GabidulinCode.standard(other, 3, 1),
            )
        )


# --- the one walk against the hand-written loops (tests/layered_reference.py) ---


def _assert_same_report(got, want):
    assert got.algorithm == want.algorithm
    for mine, theirs in zip(got.layers, want.layers, strict=True):
        assert (mine.layer, mine.status, mine.reason) == (theirs.layer, theirs.status, theirs.reason)
        assert (mine.matrix, mine.message) == (theirs.matrix, theirs.message)
        if mine.status != STATUS_OK:
            assert mine.matrix is None and mine.message is None
    # the stacked lifts must already be the canonical basis recompose eliminates to
    assert got.recombined.basis == want.recombined.basis
    assert got.sweeps == want.sweeps
    assert got.accumulated == want.accumulated
    assert got.attempt_layers == want.attempt_layers


def _differential_receptions(code):
    """Channel outcomes on both channels, inside and beyond the capability."""
    total, m = code.total_length, code.params.m
    points = [(0, 0), (1, 1), (2, 1), (2, 2), (3, 0), (total - 1, 0), (3, 2), (total, m)]
    for trial in range(4):
        for rho, t in points:
            yield make_trial(code, 1000 * trial + 10 * rho + t, ChannelSpec(rho=rho, t=t))[1]
        for collected, errors in [(total, 0), (total - 2, 1), (total + 1, 2), (2, 2)]:
            seed = 5000 + 1000 * trial + 10 * collected + errors
            yield make_trial(code, seed, collected=collected, error_packets=errors)[1]


@pytest.mark.parametrize(
    "q, m, shape",
    [(2, 4, [(3, 1), (4, 1)]), (3, 4, [(3, 1), (4, 2)]), (3, 2, [(1, 1), (2, 1), (1, 1)])],
    ids=["q2", "q3", "q3-three-layers"],
)
def test_walk_matches_reference_decoders(q, m, shape):
    code = LayeredCode.standard(FieldParams.default(q, m), shape)
    ascending = list(range(1, code.num_layers + 1))
    failed_layers = multi_sweeps = 0
    for outcome in _differential_receptions(code):
        received = outcome.U
        alg1 = code.decode(received, "alg1")
        _assert_same_report(alg1, reference_alg1(code, received))
        failed_layers += code.num_layers - len(alg1.decoded_layers)
        _assert_same_report(code.decode(received, "alg2"), reference_alg2(code, received))
        for max_sweeps in range(1, 5):
            got = code.decode(received, "alg2-iterative", max_sweeps)
            _assert_same_report(got, reference_alg2(code, received, True, max_sweeps))
            multi_sweeps += got.sweeps > 1
        for iterative in (False, True):
            _assert_same_report(
                code.decode_alg2(received, iterative, order=ascending),
                reference_alg2(code, received, iterative, order=ascending),
            )
    # the receptions reach failed layers and repeated sweeps, not only clean decodes
    assert failed_layers > 0 and multi_sweeps > 0


@pytest.mark.parametrize(
    "q, m, shape", [(2, 4, [(3, 1), (4, 1)]), (3, 4, [(3, 1), (4, 2)])], ids=["q2", "q3"]
)
def test_an_attempt_builds_no_lift(monkeypatch, q, m, shape):
    """A decoded layer is its matrix: no trial or decoder lifts one again."""
    code = LayeredCode.standard(FieldParams.default(q, m), shape)

    def no_lift(inner, codeword):
        raise AssertionError("lifted.lift called while decoding")

    monkeypatch.setattr(lifted_mod, "lift", no_lift)
    inside = beyond = failed_layers = 0
    for outcome in _differential_receptions(code):
        inside += outcome.distance <= code.capability
        beyond += outcome.distance > code.capability
        for algorithm in ALGORITHMS:
            report = code.decode(outcome.U, algorithm)
            failed_layers += code.num_layers - len(report.decoded_layers)
    assert inside and beyond and failed_layers


def test_decode_by_name(example_code):
    _, outcome = make_trial(example_code, 7, ChannelSpec(rho=1, t=1))
    assert [example_code.decode(outcome.U, name).algorithm for name in ALGORITHMS] == list(ALGORITHMS)
    with pytest.raises(ParameterError, match="algorithm must be one of"):
        example_code.decode(outcome.U, "both")
