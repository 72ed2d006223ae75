"""Layered code construction, extraction, and both decoding algorithms."""

import dataclasses
import pathlib

import pytest

from layered_reference import decode_alg1 as reference_alg1
from layered_reference import decode_alg2 as reference_alg2
from layered_reference import random_messages as reference_messages
from lsc import gabidulin as gabidulin_mod
from lsc import layered as layered_mod
from lsc import lifted as lifted_mod
from lsc.channel import ChannelSpec, apply_exact, make_trial
from lsc.config import load_config
from lsc.errors import InvariantError, ParameterError
from lsc.field import FieldParams
from lsc.gabidulin import GabidulinCode
from lsc.layered import ALGORITHMS, STATUS_FAIL, STATUS_OK, LayeredCode, LayerResult
from lsc.lifted import lift
from lsc.linalg import (
    MatrixFq,
    Subspace,
    intersection,
    random_subspace,
    row_space,
    subspace_distance,
    subspace_sum,
)
from lsc.rng import SplitMix64, derive_seed
from rref_reference import full_space, unit_span


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

# F_{17^2} over x^2 + 3 (``TWO_BYTE_MODULI`` in test_gabidulin): two bytes per entry
F289 = FieldParams(17, 2, (3, 0, 1))


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


def test_encode_block_structure(example_code):
    rng = SplitMix64(31)
    word = example_code.random_codeword(rng)
    assert word.V.dim == 7
    # layer 2 rows carry zeros on layer 1's identity block and vice versa
    for row in word.components[0].basis.entries:
        assert all(x == 0 for x in row[3:7])
    for row in word.components[1].basis.entries:
        assert all(x == 0 for x in row[0:3])
    assert intersection(word.components[0], word.components[1]).dim == 0
    # all-zero messages give the identity-plus-zero-payload space
    zero_word = example_code.encode([[0], [0]])
    assert zero_word.V == unit_span(2, 11, range(7))


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
    d0, d1, d2 = (draws.randbelow(16) for _ in range(3))
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
    """The index path, one batch of draws for all layers, gives the codeword
    the public ``encode`` gives from one batch per layer, and leaves the stream
    in the same state.  Its components and V, stacked with no elimination,
    are the checked lifts and their sum."""
    _assert_codewords_are_checked_lifts(LayeredCode.standard(params, [(4, k), (3, 1), (2, min(k, 2))]))


def test_two_byte_field_codewords_are_checked_lifts():
    """As above over F_{17^2}, where a stored entry takes two bytes: the
    identity rows OR-ed into the payload rows, the middle layer's with
    identity columns on both sides."""
    _assert_codewords_are_checked_lifts(LayeredCode.standard(F289, [(2, 1), (1, 1), (2, 1)]))


def _assert_codewords_are_checked_lifts(code):
    for seed in range(20):
        by_index, by_element = SplitMix64(seed), SplitMix64(seed)
        word = code.random_codeword(by_index)
        assert word == code.encode(reference_messages(code, by_element))
        assert by_index._state == by_element._state
        lifts = [
            code.embed_component(layer, lift(inner, matrix))
            for layer, (inner, matrix) in enumerate(zip(code.layers, word.component_matrices), 1)
        ]
        assert list(word.components) == lifts
        total = Subspace.zero(code.params.q, code.ambient_dim)
        for component in lifts:
            total = subspace_sum(total, component)
        assert word.V == total and word.V.basis.entries == total.basis.entries


def test_single_layer_reduces_to_lifting(fp24):
    code = LayeredCode.standard(fp24, [(3, 1)])
    msg = [9]
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
        received = [Subspace.zero(q, ambient), full_space(q, ambient)]
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
                kept_cols = [c for c in range(ambient) if c not in zero_cols]
                mask = unit_span(q, ambient, kept_cols)
                assert extracted == intersection(U, mask)


def test_extract_validation(example_code):
    with pytest.raises(ParameterError):
        example_code.extract_component(Subspace.zero(2, 11), 3)
    with pytest.raises(ParameterError):
        example_code.extract_component(Subspace.zero(2, 9), 1)


@pytest.mark.parametrize(
    "q, shape, space_q",
    [(3, [(3, 1), (4, 2)], 2), (2, [(3, 1), (4, 1)], 3)],
    ids=["q3-code-gf2-space", "f16-code-f3-space"],
)
def test_received_space_over_another_field_rejected(q, shape, space_q):
    """A space of the right ambient over another F_q is a ParameterError in
    every decode entry and in ``embed_component``.  Unchecked, GF(2) spaces
    ran a q = 3 code to a report, a KeyError or a ParameterError, F_3
    spaces an F_16 code to an IndexError, and an F_3 component embedded
    into an F_16 code's ambient."""
    code = LayeredCode.standard(FieldParams.default(q, 4), shape)
    ambient = code.ambient_dim
    rng = SplitMix64(36)
    spaces = [full_space(space_q, ambient), Subspace.zero(space_q, ambient)]
    spaces += [random_subspace(space_q, ambient, rng.randint(1, ambient), rng) for _ in range(20)]
    where = rf"must lie in F_{q}\^{ambient}"
    for space in spaces:
        for algorithm in ALGORITHMS:
            with pytest.raises(ParameterError, match=where):
                code.decode(space, algorithm)
        for layer in (1, 2):
            with pytest.raises(ParameterError, match=where):
                code.decode_layer(space, layer)
            with pytest.raises(ParameterError, match=where):
                code.extract_component(space, layer)
    for layer, inner in enumerate(code.layers, 1):
        with pytest.raises(ParameterError, match=rf"must lie in F_{q}\^{inner.n + 4}"):
            code.embed_component(layer, full_space(space_q, inner.n + 4))


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
    bad = full_space(2, 7)  # not a lifted component; overlaps everything
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
            word = tiny_code.encode([[i], [j]])
            assert word.V not in seen, "two component tuples gave one codeword"
            seen[word.V] = (i, j)
    assert len(seen) == params.size**2


def test_min_distance_achieved_on_tiny_code(tiny_code):
    words = []
    params = tiny_code.params
    for i in range(params.size):
        for j in range(params.size):
            words.append(
                tiny_code.encode([[i], [j]]).V
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


# Trials per grid point for the per-attempt radius rule, fixed before looking.
RADIUS_RULE_TRIALS = 100


@pytest.mark.parametrize("name", ["default", "unequal_protection", "q3"])
def test_every_attempt_within_the_radius_decodes_the_sent_layer(name):
    """Every attempt of every decoder, at every grid point of the config,
    whose extraction lies within d_R(l) - 1 of the sent lift
    (``layer_distance``) decodes the sent matrix.  Attempts outside the
    radius that decode it anyway, exceptions to the "only if" half, are
    counted in the message but not gated."""
    cfg = load_config(str(CONFIGS / f"{name}.ini"))
    code = cfg.build_code()
    inside = lucky = 0
    failures = []
    for rho, t in cfg.grid():
        for trial in range(RADIUS_RULE_TRIALS):
            seed = derive_seed(cfg.seed, rho, t, trial)
            word, outcome = make_trial(code, seed, ChannelSpec(rho=rho, t=t))
            for algorithm in ALGORITHMS:
                report = code.decode(outcome.U, algorithm, cfg.max_sweeps)
                if report.accumulated:
                    attempts = zip(report.accumulated, report.attempt_layers)
                else:
                    attempts = ((outcome.U, layer) for layer in range(1, code.num_layers + 1))
                for working, layer in attempts:
                    sent = word.component_matrices[layer - 1]
                    distance = code.layer_distance(sent, working, layer)
                    decoded = code.decode_layer(working, layer).matrix == sent
                    where = (rho, t, trial, algorithm, layer, distance)
                    if distance <= code.layers[layer - 1].min_rank_distance - 1:
                        inside += 1
                        if not decoded:
                            failures.append(where)
                    elif decoded:
                        lucky += 1
    assert inside
    assert not failures, (
        f"{len(failures)} of {inside} attempts within the radius missed the sent layer "
        f"(rho, t, trial, algorithm, layer, d_S): {failures[:5]}; "
        f"{lucky} attempts outside it decoded the sent layer"
    )


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
    assert report.accumulated[0] == outcome.U
    alg1 = example_code.decode_alg1(outcome.U)
    assert alg1.sweeps == 1 and alg1.accumulated == []
    # a failed layer holds no matrix, only its reason
    if not alg1.all_ok:
        for res in alg1.layers:
            if res.status != STATUS_OK:
                assert res.matrix is None and res.reason is not None


def test_layer_result_status_reads_the_matrix(example_code):
    """A layer result holds its layer, matrix and reason; ``ok`` means a matrix."""
    assert [f.name for f in dataclasses.fields(LayerResult)] == ["layer", "matrix", "reason"]
    rng = SplitMix64(42)
    statuses = set()
    for rho in (0, 4):
        word, outcome = make_trial(example_code, rng.randbelow(1 << 32), ChannelSpec(rho=rho, t=0))
        for result in example_code.decode_alg1(outcome.U).layers:
            statuses.add(result.status)
            if result.matrix is None:
                assert result.status == STATUS_FAIL and result.reason is not None
            else:
                assert result.status == STATUS_OK and result.reason is None
                assert result.matrix == word.component_matrices[result.layer - 1]
    assert statuses == {STATUS_OK, STATUS_FAIL}


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
        assert mine.matrix == theirs.matrix
        if mine.status != STATUS_OK:
            assert mine.matrix is None and mine.reason is not None
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
            # a walk ends within L sweeps: max_sweeps binds only below L
            assert got.sweeps <= min(max_sweeps, code.num_layers)
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
    """A decoded layer is its matrix: no trial or decoder lifts one again,
    and ``decode_layer``, which reads no lift, places none in the full
    ambient either."""
    code = LayeredCode.standard(FieldParams.default(q, m), shape)

    def no_lift(*args):
        raise AssertionError("a lift built while decoding")

    monkeypatch.setattr(lifted_mod, "lift", no_lift)
    inside = beyond = failed_layers = single_decodes = 0
    for outcome in _differential_receptions(code):
        inside += outcome.distance <= code.capability
        beyond += outcome.distance > code.capability
        with monkeypatch.context() as patch:
            patch.setattr(LayeredCode, "_lift", no_lift)
            for layer in range(1, code.num_layers + 1):
                single_decodes += code.decode_layer(outcome.U, layer).matrix is not None
        for algorithm in ALGORITHMS:
            report = code.decode(outcome.U, algorithm)
            failed_layers += code.num_layers - len(report.decoded_layers)
    assert inside and beyond and failed_layers and single_decodes


def test_decode_by_name(example_code):
    _, outcome = make_trial(example_code, 7, ChannelSpec(rho=1, t=1))
    assert [example_code.decode(outcome.U, name).algorithm for name in ALGORITHMS] == list(ALGORITHMS)
    with pytest.raises(ParameterError, match="algorithm must be one of"):
        example_code.decode(outcome.U, "both")



# --- the step memo: each (layer, working space) is extracted and cancelled once ---


def _memo_off(monkeypatch):
    """Give every lookup of all three memos an empty dict: each step,
    codeword and lifted decode then runs in full."""
    monkeypatch.setattr(LayeredCode, "_step_memo", property(lambda code: {}))
    monkeypatch.setattr(GabidulinCode, "_subspace_decode_memo", property(lambda inner: {}))
    monkeypatch.setattr(GabidulinCode, "_codeword_memo", property(lambda inner: {}))


def _every_decode(code, received, decoders):
    """The three decoders by name, iterative SIC capped at 1 to 4 sweeps,
    and SIC in ascending order, run by ``decoders`` = (alg1, alg2), the
    walk's or the reference's."""
    alg1, alg2 = decoders
    ascending = list(range(1, code.num_layers + 1))
    reports = [alg1(code, received), alg2(code, received)]
    reports += [alg2(code, received, True, sweeps) for sweeps in range(1, 5)]
    reports += [alg2(code, received, iterative, order=ascending) for iterative in (False, True)]
    return reports


WALK = (LayeredCode.decode_alg1, LayeredCode.decode_alg2)
REFERENCE = (reference_alg1, reference_alg2)


def test_step_memo_is_per_code(fp24, example_code):
    """A fresh code starts with an empty step memo, and equal codes built
    apart fill none of each other's."""
    fresh = LayeredCode.standard(fp24, [(3, 1), (4, 1)])
    assert fresh == example_code and fresh._step_memo == {}
    _, outcome = make_trial(example_code, 3, ChannelSpec(rho=1, t=1))
    example_code.decode(outcome.U, "alg2-iterative")
    before = dict(example_code._step_memo)
    assert before
    _, outcome = make_trial(fresh, 4, ChannelSpec(rho=2, t=1))
    fresh.decode(outcome.U, "alg2-iterative")
    assert fresh._step_memo and example_code._step_memo == before


def test_step_memo_never_grows_past_its_bound(fp24, monkeypatch):
    """The step memo holds at most MEMO_SIZE keys, is emptied when full,
    and the reports stay the reference's throughout."""
    assert gabidulin_mod.MEMO_SIZE == 4096
    monkeypatch.setattr(gabidulin_mod, "MEMO_SIZE", 5)
    code = LayeredCode.standard(fp24, [(3, 1), (4, 1)])
    sizes = []
    step = LayeredCode._step

    def recording_step(self, *args):
        result = step(self, *args)
        sizes.append(len(self._step_memo))
        return result

    monkeypatch.setattr(LayeredCode, "_step", recording_step)
    for seed in range(8):
        received = make_trial(code, seed, ChannelSpec(rho=2, t=1))[1].U
        for got, want in zip(
            _every_decode(code, received, WALK), _every_decode(code, received, REFERENCE), strict=True
        ):
            _assert_same_report(got, want)
    assert max(sizes) == 5 and sizes.count(1) > 1  # full, emptied, filled again


@pytest.mark.parametrize("q, shape, other_q", [(3, [(3, 1), (4, 2)], 2), (2, [(3, 1), (4, 1)], 3)])
def test_layer_distance_rejects_a_matrix_with_the_same_rows(q, shape, other_q):
    """A matrix that stores a codeword's rows but has another width, or
    lies over another field, is refused by ``layer_distance``, on a code
    that has already encoded and measured the codeword."""
    code = LayeredCode.standard(FieldParams.default(q, 4), shape)
    words = [code.encode([[0] * inner.k for inner in code.layers])]
    words.append(code.random_codeword(SplitMix64(5)))
    for word in words:
        for layer, matrix in enumerate(word.component_matrices, 1):
            assert word.components[layer - 1] == code.embed_component(
                layer, lift(code.layers[layer - 1], matrix)
            )
            assert code.layer_distance(matrix, word.V, layer) == 0
            wider = MatrixFq._unchecked(q, matrix.rows, matrix.cols + 1, matrix._data)
            bad = [wider]
            if not any(matrix._data):
                bad.append(MatrixFq.zeros(other_q, matrix.rows, matrix.cols))
            for wrong in bad:
                assert wrong._data == matrix._data
                with pytest.raises(ParameterError, match="word must be"):
                    code.layer_distance(wrong, word.V, layer)


@pytest.mark.parametrize(
    "params, shape",
    [
        (FieldParams.default(2, 4), [(3, 1), (4, 1)]),
        (FieldParams.default(3, 3), [(2, 1), (3, 1)]),
        (FieldParams.default(5, 2), [(2, 1), (2, 1)]),
        (F289, [(2, 1), (1, 1), (2, 1)]),
    ],
    ids=["q2", "q3", "q5", "q17"],
)
def test_step_memo_on_and_off_match_the_reference(monkeypatch, params, shape):
    """At every (rho, t) the ambient allows, the walk with its memos on (one
    code, warmed by every earlier decode) and with them off equals the
    memo-free reference field for field, multi-sweep SIC and ascending
    order included."""
    code = LayeredCode.standard(params, shape)
    dim = code.total_length
    receptions = [
        make_trial(code, 100 * trial + 10 * rho + t, ChannelSpec(rho=rho, t=t))[1].U
        for rho in range(dim + 1)
        for t in range(code.ambient_dim - dim + 1)
        for trial in range(2)
    ]
    wants = [_every_decode(code, received, REFERENCE) for received in receptions]
    failed_layers = multi_sweeps = 0
    for memo in (True, False):
        with monkeypatch.context() as patch:
            if not memo:
                _memo_off(patch)
            for received, want in zip(receptions, wants):
                got = _every_decode(code, received, WALK)
                for mine, theirs in zip(got, want, strict=True):
                    _assert_same_report(mine, theirs)
                    failed_layers += code.num_layers - len(mine.decoded_layers)
                    multi_sweeps += mine.sweeps > 1
        if memo:
            assert code._step_memo
            assert all(inner._codeword_memo for inner in code.layers)
    assert failed_layers and multi_sweeps


def test_each_step_is_extracted_once(monkeypatch, fp24):
    """Over every decoder on many receptions, one code extracts each
    distinct (layer, working space) exactly once, while the attempts at
    them repeat."""
    code = LayeredCode.standard(fp24, [(3, 1), (4, 1)])
    extracted, attempts = [], []
    extract = LayeredCode.extract_component

    def recording_extract(self, received, layer):
        extracted.append((layer, received.basis._data))
        return extract(self, received, layer)

    monkeypatch.setattr(LayeredCode, "extract_component", recording_extract)
    for seed in range(30):
        received = make_trial(code, seed, ChannelSpec(rho=2 + seed % 2, t=1))[1].U
        for report in _every_decode(code, received, WALK):
            if report.accumulated:
                steps = zip(report.attempt_layers, report.accumulated)
            else:
                steps = ((layer, received) for layer in range(1, code.num_layers + 1))
            attempts += [(layer, working.basis._data) for layer, working in steps]
    assert len(set(extracted)) == len(extracted)
    assert set(extracted) == set(attempts) and len(attempts) > 2 * len(extracted)


def test_a_space_is_checked_once_per_memo_miss(monkeypatch, fp24):
    """Over every decoder on many receptions, the one membership check runs
    once per key the step memo stores, in the full ambient N + m, and once
    per key a decode memo stores, in a component ambient n_l + m: never on
    a hit, while the attempts repeat."""
    code = LayeredCode.standard(fp24, [(3, 1), (4, 1)])
    calls = {"step": 0, "ambient": 0, "decode": 0}
    check_space, decode = layered_mod._check_space, lifted_mod.subspace_decode
    m = code.params.m
    ambients = {code.ambient_dim: "step"} | {inner.n + m: "ambient" for inner in code.layers}

    def counted_check(space, q, ambient_dim):
        calls[ambients[ambient_dim]] += 1
        return check_space(space, q, ambient_dim)

    def counted_decode(*args):
        calls["decode"] += 1
        return decode(*args)

    monkeypatch.setattr(layered_mod, "_check_space", counted_check)
    monkeypatch.setattr(lifted_mod, "_check_space", counted_check)
    monkeypatch.setattr(lifted_mod, "subspace_decode", counted_decode)
    for seed in range(30):
        received = make_trial(code, seed, ChannelSpec(rho=2 + seed % 2, t=1))[1].U
        _every_decode(code, received, WALK)
    decoded = sum(len(inner._subspace_decode_memo) for inner in code.layers)
    assert len(code._step_memo) < gabidulin_mod.MEMO_SIZE  # never emptied
    assert calls["step"] == len(code._step_memo) and calls["ambient"] == decoded
    assert calls["decode"] > 2 * calls["step"] >= 2 * calls["ambient"]


@pytest.mark.parametrize("q, shape, space_q", [(3, [(3, 1), (4, 2)], 2), (2, [(3, 1), (4, 1)], 3)])
def test_a_warmed_step_memo_still_rejects_another_field(q, shape, space_q):
    """Over F_3 a row stores one byte per entry, over GF(2) one bit, so the
    zero space, <e_10> and <e_2, e_10> in F^11 store the same rows over
    both fields, and the zero space and <e_11> in F_q^12 store the first
    two too.  With the memo warmed on the code's own spaces, their twins
    over the other field or in the wider ambient still raise."""
    code = LayeredCode.standard(FieldParams.default(q, 4), shape)
    assert code.ambient_dim == 11

    def spaces(field):
        units = [[int(c == j) for c in range(11)] for j in (2, 10)]
        if field == 3:
            units[0] = [int(c == 9) for c in range(11)]  # 2^8 = 256: e_9 over F_3, e_2 over GF(2)
        return [Subspace.zero(field, 11)] + [
            row_space(MatrixFq(field, len(rows), 11, rows), 11) for rows in (units[1:], units)
        ]

    for own, foreign in zip(spaces(q), spaces(space_q), strict=True):
        assert own.basis._data == foreign.basis._data
        for algorithm in ALGORITHMS:
            code.decode(own, algorithm)
        for layer in (1, 2):
            assert (layer, q, 11, own.basis._data) in code._step_memo
            with pytest.raises(ParameterError, match=rf"must lie in F_{q}\^11"):
                code.decode_layer(foreign, layer)
        for algorithm in ALGORITHMS:
            with pytest.raises(ParameterError, match=rf"must lie in F_{q}\^11"):
                code.decode(foreign, algorithm)
    for own, wider in zip(spaces(q), [Subspace.zero(q, 12), unit_span(q, 12, [11])]):
        assert own.basis._data == wider.basis._data
        for layer in (1, 2):
            with pytest.raises(ParameterError, match=rf"must lie in F_{q}\^11"):
                code.decode_layer(wider, layer)
