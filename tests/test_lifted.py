"""Lifted subspace codes: lifting, reduction, decode vs oracle."""

import itertools
import pickle
from dataclasses import FrozenInstanceError

import pytest

from lsc.channel import ChannelSpec, apply_exact
from lsc.errors import CapacityError, ParameterError
from lsc.field import ExtFieldElement, FieldParams
from lsc.gabidulin import DecodeFailure, GabidulinCode, RankCodeword
from lsc.layered import LayeredCode
from lsc.lifted import (
    LiftedDecodeResult,
    brute_force_subspace_decode,
    codeword_subspaces,
    lift,
    reduce_received,
    subspace_decode,
)
from lsc.linalg import (
    MatrixFq,
    Subspace,
    embed,
    random_full_rank_matrix,
    random_subspace,
    rank_distance,
    split_basis,
    subspace_distance,
)
from lsc.rng import SplitMix64


@pytest.fixture(scope="module")
def inner31(fp24):
    return GabidulinCode.standard(fp24, 3, 1)


def test_lift_structure(fp24, inner31):
    zero = lift(inner31, MatrixFq.zeros(2, 3, 4))
    assert zero.dim == 3
    assert zero.basis.entries[0] == (1, 0, 0, 0, 0, 0, 0)
    subspaces = {lift(inner31, inner31.encode(m)) for m in inner31.iter_messages()}
    assert len(subspaces) == 16  # injectivity


def test_min_subspace_distance_values(fp24):
    """A lifted code is a one-layer layered code, with d_S = 2 d_R."""
    for n, k, d_s in [(3, 1, 6), (4, 1, 8), (3, 3, 2)]:
        assert LayeredCode((GabidulinCode.standard(fp24, n, k),)).min_distance() == d_s


def test_distance_identity_exhaustive(fp24):
    for n in (3, 4):
        inner = GabidulinCode.standard(fp24, n, 1)
        triples = codeword_subspaces(inner)
        dmin = None
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                ds = subspace_distance(triples[i][0], triples[j][0])
                assert ds == 2 * rank_distance(triples[i][1], triples[j][1])
                dmin = ds if dmin is None else min(dmin, ds)
        assert dmin == LayeredCode((inner,)).min_distance()


def test_reduction_on_clean_codeword(fp24, inner31):
    msg = (fp24.from_index(13),)
    space = lift(inner31, inner31.encode(msg))
    word, row_hints, col_hints = reduce_received(inner31, space)
    assert row_hints.rows == 0 and col_hints.rows == 0
    assert word.as_matrix() == inner31.encode(msg).as_matrix()


def test_decode_zero_distance(fp24, inner31):
    for msg in inner31.iter_messages():
        space = lift(inner31, inner31.encode(msg))
        result = subspace_decode(inner31, space)
        assert result.message == msg


def test_guaranteed_regime_random_trials(fp24, inner31):
    rng = SplitMix64(21)
    for rho, t in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        for _ in range(150):
            msg = (fp24.from_index(rng.randbelow(16)),)
            space = lift(inner31, inner31.encode(msg))
            outcome = apply_exact(space, ChannelSpec(rho=rho, t=t), rng)
            result = subspace_decode(inner31, outcome.U)
            assert not isinstance(result, DecodeFailure)
            assert result.message == msg
            oracle = brute_force_subspace_decode(inner31, outcome.U)
            assert oracle.message == msg


def test_never_contradicts_oracle(fp24, inner31):
    rng = SplitMix64(22)
    for _ in range(400):
        rho, t = rng.randbelow(4), rng.randbelow(4)
        msg = (fp24.from_index(rng.randbelow(16)),)
        space = lift(inner31, inner31.encode(msg))
        outcome = apply_exact(space, ChannelSpec(rho=rho, t=t), rng)
        result = subspace_decode(inner31, outcome.U)
        oracle = brute_force_subspace_decode(inner31, outcome.U)
        if not isinstance(result, DecodeFailure) and not isinstance(oracle, DecodeFailure):
            assert result.message == oracle.message


def _reference_subspace_oracle(inner, received):
    """The lifted oracle without a codebook: lift the encoding of every
    message, then d_S to the received space; ties fail."""
    best = best_dist = None
    tie = False
    for indices in itertools.product(range(inner.params.size), repeat=inner.k):
        matrix = inner._codeword_matrix(indices)
        dist = subspace_distance(lift(inner, matrix), received)
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = (matrix, indices), dist, False
        elif dist == best_dist:
            tie = True
    if tie:
        return DecodeFailure("tie", f"multiple codewords at distance {best_dist}")
    matrix, indices = best
    message = tuple(inner.params.from_index(u) for u in indices)
    return LiftedDecodeResult(matrix, message)


@pytest.mark.parametrize("q, m, n", [(2, 4, 3), (3, 2, 2), (3, 3, 2)])
def test_lifted_oracle_matches_reference_enumeration(q, m, n):
    inner = GabidulinCode.standard(FieldParams.default(q, m), n, 1)
    rng = SplitMix64(1000 + 10 * q + m)
    ties = unique = 0
    for trial in range(120):
        if trial % 2:
            received = random_subspace(q, n + m, rng.randbelow(n + m + 1), rng)
        else:  # a lifted codeword through the channel
            msg = (inner.params.from_index(rng.randbelow(inner.params.size)),)
            sent = lift(inner, inner.encode(msg))
            rho, t = rng.randbelow(n + 1), rng.randbelow(m + 1)
            received = apply_exact(sent, ChannelSpec(rho=rho, t=t), rng).U
        got = brute_force_subspace_decode(inner, received)
        assert got == _reference_subspace_oracle(inner, received)
        if isinstance(got, DecodeFailure):
            ties += 1
        else:
            unique += 1
    assert ties and unique
    with pytest.raises(CapacityError):
        brute_force_subspace_decode(inner, received, cap=inner.params.size - 1)


def test_oracle_tie_case(fp24, inner31):
    # the zero subspace is equidistant from every lifted codeword
    outcome = brute_force_subspace_decode(inner31, Subspace.zero(2, 7))
    assert isinstance(outcome, DecodeFailure)
    assert outcome.reason == "tie"


def test_ambient_mismatch_rejected(fp24, inner31):
    with pytest.raises(ParameterError):
        subspace_decode(inner31, Subspace.zero(2, 8))
    with pytest.raises(ParameterError):
        lift(inner31, MatrixFq.zeros(2, 2, 4))


def test_extra_dimensions_are_handled(fp24, inner31):
    """Payload-pivot dimensions flow through the hint path, not a rejection."""
    msg = (fp24.from_index(6),)
    space = lift(inner31, inner31.encode(msg))
    rng = SplitMix64(23)
    outcome = apply_exact(space, ChannelSpec(rho=0, t=2), rng)
    assert outcome.U.dim == 5  # more dimensions than the code length
    result = subspace_decode(inner31, outcome.U)
    assert result.message == msg


def _reference_reduce(inner, received):
    """The list implementation of reduce_received: entries and ExtFieldElements."""
    params = inner.params
    n, m, q = inner.n, params.m, params.q
    header_pivot_rows = {}
    payload_rows = []
    for row in received.basis.entries:
        pivot = next(c for c, x in enumerate(row) if x)
        if pivot < n:
            header_pivot_rows[pivot] = row
        else:
            payload_rows.append(row[n:])
    word_rows = [header_pivot_rows[i][n:] if i in header_pivot_rows else (0,) * m for i in range(n)]
    symbols = tuple(ExtFieldElement(params, row) for row in word_rows)
    col_rows = []
    for j in range(n):
        if j in header_pivot_rows:
            continue
        vec = [0] * n
        vec[j] = q - 1
        for i, row in header_pivot_rows.items():
            vec[i] = row[j]
        col_rows.append(tuple(vec))
    return (
        RankCodeword(symbols),
        MatrixFq(q, len(payload_rows), m, payload_rows),
        MatrixFq(q, len(col_rows), n, col_rows),
    )


def _assert_reduction_matches_reference(inner, received):
    word, row_hints, col_hints = reduce_received(inner, received)
    ref_word, ref_rows, ref_cols = _reference_reduce(inner, received)
    assert word == ref_word and word.symbols == ref_word.symbols
    assert word.as_matrix() == ref_word.as_matrix()
    assert row_hints == ref_rows and row_hints.entries == ref_rows.entries
    assert col_hints == ref_cols and col_hints.entries == ref_cols.entries


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 3, 1), (2, 5, 4, 2), (3, 3, 3, 1), (3, 4, 2, 1)])
def test_reduce_received_matches_list_reference(q, m, n, k):
    """Reduction on stored rows against the list implementation, edge shapes included."""
    inner = GabidulinCode.standard(FieldParams.default(q, m), n, k)
    ambient = n + m
    rng = SplitMix64(90 + 10 * q + n)
    spaces = [Subspace.zero(q, ambient), Subspace.full(q, ambient)]
    widest = 0
    for _ in range(60):
        # arbitrary received spaces, any pivots
        spaces.append(random_subspace(q, ambient, rng.randint(0, ambient), rng))
        # every header pivot erased: the space lies in the payload columns
        payload = random_subspace(q, m, rng.randint(0, m), rng)
        spaces.append(embed(payload, range(n, ambient), ambient))
        # channel outputs around a codeword, up to t = ambient - dim V
        msg = [inner.params.from_index(i) for i in rng.randbelow_many(inner.params.size, k)]
        codeword = lift(inner, inner.encode(msg))
        rho = rng.randint(0, n)
        t = m if not rng.randbelow(4) else rng.randint(0, m)
        widest += t == m
        spaces.append(apply_exact(codeword, ChannelSpec(rho=rho, t=t), rng).U)
    assert widest >= 5
    for space in spaces:
        _assert_reduction_matches_reference(inner, space)


def test_every_decode_reaches_the_core_once(fp24, inner31, monkeypatch):
    """One decoder core run per subspace_decode and per decode_bounded call,
    failures included; the lifted path does not go through decode_bounded."""
    core_calls, public_calls = [], []
    core, public = GabidulinCode._decode_projected, GabidulinCode.decode_bounded

    def counting_core(self, *args):
        core_calls.append(self)
        return core(self, *args)

    def counting_public(self, *args, **kwargs):
        public_calls.append(self)
        return public(self, *args, **kwargs)

    monkeypatch.setattr(GabidulinCode, "_decode_projected", counting_core)
    monkeypatch.setattr(GabidulinCode, "decode_bounded", counting_public)
    rng = SplitMix64(24)
    lifted_outcomes, direct_outcomes = [], []
    for rho, t in [(0, 0), (1, 1), (3, 0), (0, 4), (2, 2), (3, 4)]:
        msg = (fp24.from_index(rng.randbelow(16)),)
        space = lift(inner31, inner31.encode(msg))
        received = apply_exact(space, ChannelSpec(rho=rho, t=t), rng).U
        before = len(core_calls)
        lifted_outcomes.append(subspace_decode(inner31, received))
        assert len(core_calls) == before + 1 and core_calls[-1] is inner31
        assert not public_calls
        word, rows, cols = reduce_received(inner31, received)
        for hints in ((rows, cols), (None, None)):
            before = len(core_calls)
            direct_outcomes.append(inner31.decode_bounded(word, *hints))
            assert len(core_calls) == before + 1 and core_calls[-1] is inner31
        public_calls.clear()
    for outcomes in (lifted_outcomes, direct_outcomes):
        assert any(isinstance(o, DecodeFailure) for o in outcomes)
        assert any(not isinstance(o, DecodeFailure) for o in outcomes)
    # (3, 0) erases every header direction: mu = n fails the radius check
    assert lifted_outcomes[2].detail == "mu+delta = 3 exceeds d-1 = 2"


def _reference_subspace_decode(inner, received):
    """The lifted attempt through the public decoder: the reduction's column
    hints, their kernel as the projection, elements back to indices."""
    word, row_hints, col_hints = reduce_received(inner, received)
    outcome = inner.decode_bounded(word, row_erasures=row_hints, col_erasures=col_hints)
    if isinstance(outcome, DecodeFailure):
        return outcome
    matrix = inner._codeword_matrix([u.to_index() for u in outcome])
    return LiftedDecodeResult(matrix, outcome)


# F_289 = F_17[x]/(x^2 + 3), as in test_gabidulin: stored rows over F_17
# have two-byte entries
F289_MODULUS = (3, 0, 1)


@pytest.mark.parametrize(
    "q, m, n, k",
    [
        (2, 4, 3, 1),
        (2, 4, 4, 4),  # k = n: d - 1 = 0
        (2, 12, 5, 2),
        (2, 12, 12, 6),
        (3, 3, 3, 1),
        (3, 4, 4, 2),
        (5, 3, 3, 1),
        (7, 2, 2, 1),
        (7, 3, 3, 3),
        (17, 2, 2, 1),
    ],
)
def test_subspace_decode_matches_the_public_decoder_chain(q, m, n, k):
    """The reduced header as the decoder's projection gives, field for field,
    what the hint round trip through decode_bounded gives."""
    params = FieldParams(q, m, F289_MODULUS) if q == 17 else FieldParams.default(q, m)
    rng = SplitMix64(7000 + 100 * q + m)
    points = RankCodeword.from_matrix(params, random_full_rank_matrix(q, n, m, rng)).symbols
    inner = GabidulinCode(params, n, k, points)
    ambient, d = n + m, n - k + 1
    spaces = [Subspace.zero(q, ambient), Subspace.full(q, ambient)]
    for _ in range(40):
        spaces.append(random_subspace(q, ambient, rng.randint(0, ambient), rng))
        # every header pivot erased
        payload = random_subspace(q, m, rng.randint(0, m), rng)
        spaces.append(embed(payload, range(n, ambient), ambient))
        # channel outputs around a codeword, up to t = ambient - dim V
        msg = [params.from_index(i) for i in rng.randbelow_many(params.size, k)]
        codeword = lift(inner, inner.encode(msg))
        rho = rng.randint(0, n)
        t = m if not rng.randbelow(4) else rng.randint(0, m)
        spaces.append(apply_exact(codeword, ChannelSpec(rho=rho, t=t), rng).U)
        # mu + delta = d - 1 and = d: mu header directions erased, delta inserted
        for budget in (d - 1, d):
            mu = rng.randint(max(0, budget - m), min(n, budget))
            channel = ChannelSpec(rho=mu, t=budget - mu)
            spaces.append(apply_exact(codeword, channel, rng).U)
    seen = {"decoded": 0, "decoded-mu>0": 0, "radius": 0, "nothing-near": 0, "d-1": 0, "d": 0}
    for space in spaces:
        pivots, _, _, rest = split_basis(space, n)
        erasures = n - len(pivots) + rest.rows
        seen["d-1"] += erasures == d - 1
        seen["d"] += erasures == d
        got = subspace_decode(inner, space)
        want = _reference_subspace_decode(inner, space)
        assert type(got) is type(want)
        if isinstance(want, DecodeFailure):
            assert (got.reason, got.detail) == (want.reason, want.detail)
            seen["radius" if "mu+delta" in want.detail else "nothing-near"] += 1
        else:
            assert got.matrix == want.matrix and got.matrix.entries == want.matrix.entries
            assert got.message == want.message
            seen["decoded"] += 1
            seen["decoded-mu>0"] += len(pivots) < n
    if k == n:  # d - 1 = 0 and every word is a codeword
        assert not seen.pop("nothing-near") and not seen.pop("decoded-mu>0")
    assert all(seen.values()), seen


def test_rank_codeword_value_semantics(fp24, inner31):
    word = inner31.encode((fp24.from_index(9),))
    same = RankCodeword(tuple(word.symbols))
    other = inner31.encode((fp24.from_index(10),))
    assert word == same and hash(word) == hash(same) and word != other
    assert len({word, same, other}) == 2
    for copy in (pickle.loads(pickle.dumps(word)), pickle.loads(pickle.dumps(same))):
        assert copy == word and hash(copy) == hash(word) and copy.symbols == word.symbols
    assert RankCodeword.from_matrix(fp24, word.as_matrix()) == word
    assert (word + other) - other == word
    assert (word - word).as_matrix().is_zero()
    assert word.n == 3 and word.params == fp24
    assert repr(word) == f"RankCodeword(symbols={word.symbols!r})"
    with pytest.raises(FrozenInstanceError):
        word.params = fp24
    for bad in (MatrixFq.zeros(2, 3, 5), MatrixFq.zeros(3, 3, 4)):
        with pytest.raises(ParameterError):
            RankCodeword.from_matrix(fp24, bad)
    with pytest.raises(ParameterError):
        word + RankCodeword(word.symbols[:2])
    f16 = FieldParams.default(2, 5)
    with pytest.raises(ParameterError):
        RankCodeword((fp24.one(), f16.one()))
    with pytest.raises(ParameterError):
        word - RankCodeword((f16.one(),) * 3)
