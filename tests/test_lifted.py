"""Lifted subspace codes: lifting, reduction, decode vs oracle."""

import gc
import hashlib
import itertools
import pathlib
import weakref
from bisect import bisect_left
from types import SimpleNamespace

import pytest

from lsc import gabidulin as gabidulin_mod
from lsc import lifted as lifted_mod
from lsc.channel import ChannelSpec, apply_exact, make_trial
from lsc.config import load_config
from lsc.errors import ParameterError
from lsc.field import FieldParams
from lsc.gabidulin import DecodeFailure, GabidulinCode
from lsc.layered import ALGORITHMS, LayeredCode
from lsc.lifted import (
    brute_force_subspace_decode,
    lift,
    reduce_received,
    subspace_decode,
)
from lsc.linalg import (
    MatrixFq,
    Subspace,
    _field_bits,
    _lead_columns,
    _least_rank,
    _lift_rows,
    embed,
    random_full_rank_matrix,
    random_subspace,
    rank_distance,
    subspace_distance,
)
from lsc.properties import _all_small_rank_errors, _desk_codes
from lsc.rng import SplitMix64
from rref_reference import full_space, unit_span


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
        pairs = [(lift(inner, word), word) for word in map(inner.encode, inner.iter_messages())]
        dmin = None
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                ds = subspace_distance(pairs[i][0], pairs[j][0])
                assert ds == 2 * rank_distance(pairs[i][1], pairs[j][1])
                dmin = ds if dmin is None else min(dmin, ds)
        assert dmin == LayeredCode((inner,)).min_distance()


def test_reduction_on_clean_codeword(inner31):
    msg = (13,)
    space = lift(inner31, inner31.encode(msg))
    word, row_hints, col_hints = reduce_received(inner31, space)
    assert row_hints.rows == 0 and col_hints.rows == 0
    assert word == inner31.encode(msg)


def test_decode_zero_distance(fp24, inner31):
    for msg in inner31.iter_messages():
        space = lift(inner31, inner31.encode(msg))
        result = subspace_decode(inner31, space)
        assert result == inner31.encode(msg)


def test_guaranteed_regime_random_trials(inner31):
    rng = SplitMix64(21)
    for rho, t in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        for _ in range(150):
            msg = (rng.randbelow(16),)
            sent = inner31.encode(msg)
            space = lift(inner31, sent)
            outcome = apply_exact(space, ChannelSpec(rho=rho, t=t), rng)
            result = subspace_decode(inner31, outcome.U)
            assert not isinstance(result, DecodeFailure)
            assert result == sent
            oracle = brute_force_subspace_decode(inner31, outcome.U)
            assert oracle == sent


def test_never_contradicts_oracle(inner31):
    rng = SplitMix64(22)
    for _ in range(400):
        rho, t = rng.randbelow(4), rng.randbelow(4)
        msg = (rng.randbelow(16),)
        space = lift(inner31, inner31.encode(msg))
        outcome = apply_exact(space, ChannelSpec(rho=rho, t=t), rng)
        result = subspace_decode(inner31, outcome.U)
        oracle = brute_force_subspace_decode(inner31, outcome.U)
        if not isinstance(result, DecodeFailure) and not isinstance(oracle, DecodeFailure):
            assert result == oracle


def _reference_subspace_oracle(inner, received):
    """The lifted oracle without a codebook: lift the encoding of every
    message, then d_S to the received space; ties fail."""
    best = best_dist = None
    tie = False
    for indices in itertools.product(range(inner.params.size), repeat=inner.k):
        matrix = inner._codeword_matrix(indices)
        dist = subspace_distance(lift(inner, matrix), received)
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = matrix, dist, False
        elif dist == best_dist:
            tie = True
    if tie:
        return DecodeFailure("tie", f"multiple codewords at distance {best_dist}")
    return best


@pytest.mark.parametrize(
    "q, m, n, k",
    [(2, 4, 3, 1), (2, 4, 3, 2), (3, 2, 2, 1), (3, 3, 2, 1), (3, 3, 3, 2), (5, 2, 2, 1), (7, 2, 2, 1)],
)
def test_lifted_oracle_matches_reference_enumeration(q, m, n, k):
    """The bounded scan gives the unbounded reference's outcome, a tie's text
    verbatim: on random spaces (mostly far from the code), on lifted
    codewords through the channel, on lifted codewords themselves, where
    every other lift is cut at its first row outside the received space,
    and on the zero space, a tie of all q^(mk) codewords."""
    inner = GabidulinCode.standard(FieldParams.default(q, m), n, k)
    rng = SplitMix64(1000 + 100 * k + 10 * q + m)
    ties = unique = 0
    for trial in range(120):
        msg = tuple(rng.randbelow(inner.params.size) for _ in range(k))
        sent = lift(inner, inner.encode(msg))
        if trial % 3 == 0:
            received = random_subspace(q, n + m, rng.randbelow(n + m + 1), rng)
        elif trial % 3 == 1:  # a lifted codeword through the channel
            rho, t = rng.randbelow(n + 1), rng.randbelow(m + 1)
            received = apply_exact(sent, ChannelSpec(rho=rho, t=t), rng).U
        else:
            received = sent
        got = brute_force_subspace_decode(inner, received)
        want = _reference_subspace_oracle(inner, received)
        assert got == want
        if isinstance(got, DecodeFailure):
            assert (got.reason, got.detail) == (want.reason, want.detail)
            ties += 1
        else:
            if trial % 3 == 2:
                assert got == inner.encode(msg)
            unique += 1
    assert ties and unique
    zero = Subspace.zero(q, n + m)
    want = DecodeFailure("tie", f"multiple codewords at distance {n}")
    assert brute_force_subspace_decode(inner, zero) == _reference_subspace_oracle(inner, zero) == want


def test_oracle_tie_case(fp24, inner31):
    # the zero subspace is equidistant from every lifted codeword
    outcome = brute_force_subspace_decode(inner31, Subspace.zero(2, 7))
    assert isinstance(outcome, DecodeFailure)
    assert outcome.reason == "tie"


# both oracles' outcomes on the desk workload below, recorded with the
# unbounded scans the bounded one replaced
DESK_ORACLES_SHA256 = "d7c67ced0851ebfc3144f05604e38975804f67d8436921040adef1fa6579bef5"


def _outcome_text(outcome):
    if isinstance(outcome, DecodeFailure):
        return f"{outcome.reason}: {outcome.detail}"
    if isinstance(outcome, tuple):
        return repr(outcome)
    return repr(outcome.entries)


def test_both_oracles_on_verifys_desk_workload_are_pinned(fp24):
    """Every codeword plus every error of rank <= 1 of the (3,1) and (4,1)
    desk codes over F_16 (5,312 words, ``gabidulin_suite``'s exhaustive
    workload) through ``brute_force_decode``, and their lifts through
    ``brute_force_subspace_decode``: one line per word, one sha256."""
    digest = hashlib.sha256()
    count = 0
    for desk in _desk_codes(fp24):
        errors = _all_small_rank_errors(fp24, desk.n, 1)
        for msg in desk.iter_messages():
            word = desk.encode(msg)
            for err in errors:
                received = word + err
                rank_outcome = _outcome_text(desk.brute_force_decode(received))
                lifted_outcome = _outcome_text(brute_force_subspace_decode(desk, lift(desk, received)))
                digest.update(f"{rank_outcome}|{lifted_outcome}\n".encode())
                count += 1
    assert count == 5312
    assert digest.hexdigest() == DESK_ORACLES_SHA256


class _CountingRows:
    """A codeword's stored rows that count, in ``read``, the rows a scan takes."""

    def __init__(self, rows, read):
        self.rows, self.read = rows, read

    def __iter__(self):
        for row in self.rows:
            self.read[0] += 1
            yield row


@pytest.mark.parametrize("q, m, n", [(2, 4, 3), (2, 4, 4), (3, 3, 3)])
def test_the_scan_drops_a_codeword_once_it_cannot_win(q, m, n):
    """On a received codeword the scan reads fewer than |C| n rows, in both
    oracles' shapes: rank(R - C), and U's basis stacked on each lift.  In a
    k = 1 code with n <= m two codewords differ in every row, so each
    codeword before the match is read in full (its rank reaches the least
    only at its last row) and each one after it is dropped at its first row."""
    inner = GabidulinCode.standard(FieldParams.default(q, m), n, 1)
    codewords = inner._codebook[1]
    ambient = n + m
    units = _lift_rows(q, (0,) * n, 0, ambient)
    for index in (0, len(codewords) // 2):
        received = codewords[index]
        space = lift(inner, MatrixFq._unchecked(q, n, m, received)).basis._data
        for ncols, base, a, sign, least in ((m, (), received, -1, 0), (ambient, space, units, 1, n)):
            read = [0]
            counting = [_CountingRows(rows, read) for rows in codewords]
            assert _least_rank(q, ncols, base, a, sign, counting) == (least, index)
            assert read[0] == (index + 1) * n + len(codewords) - index - 1 < len(codewords) * n


@pytest.mark.parametrize("q, m, n", [(2, 4, 3), (2, 4, 4), (3, 2, 2)])
def test_the_two_oracles_agree_through_the_lifting_isometry(q, m, n):
    """d_S(lift X, lift Y) = 2 d_R(X, Y), so on a lifted word the lifted
    oracle finds the rank-metric oracle's codeword, or both tie and the
    lifted tie is at twice the distance.  Every codeword plus every error of
    rank <= 1, then 200 random words."""
    params = FieldParams.default(q, m)
    inner = GabidulinCode.standard(params, n, 1)
    words = [inner.encode(msg) + err for msg in inner.iter_messages()
             for err in _all_small_rank_errors(params, n, 1)]
    rng = SplitMix64(70 + 10 * q + n)
    words += [MatrixFq.random(q, n, m, rng) for _ in range(200)]
    ties = 0
    for word in words:
        rank_outcome = inner.brute_force_decode(word)
        got = brute_force_subspace_decode(inner, lift(inner, word))
        if isinstance(rank_outcome, DecodeFailure):
            ties += 1
            distance = int(rank_outcome.detail.rsplit(" ", 1)[1])
            assert got == DecodeFailure("tie", f"multiple codewords at distance {2 * distance}")
        else:
            assert got == inner.encode(rank_outcome)
    assert 0 < ties < len(words)


def _decode_and_drop():
    """A weakref to layer 1's inner code of default.ini after a few decodes
    of every algorithm and one lifted oracle call, with no other reference kept."""
    code = load_config(str(pathlib.Path(__file__).parent.parent / "configs" / "default.ini")).build_code()
    for seed in range(5):
        _, outcome = make_trial(code, seed, ChannelSpec(rho=1, t=1))
        for algorithm in ALGORITHMS:
            code.decode(outcome.U, algorithm)
    inner = code.layers[0]
    brute_force_subspace_decode(inner, lift(inner, inner.encode((0,))))
    return weakref.ref(inner)


def test_a_code_is_freed_once_the_run_drops_it():
    """No module-level cache keeps a code, or its memos, past its run."""
    ref = _decode_and_drop()
    gc.collect()
    assert ref() is None


def test_ambient_mismatch_rejected(fp24, inner31):
    with pytest.raises(ParameterError):
        subspace_decode(inner31, Subspace.zero(2, 8))
    with pytest.raises(ParameterError):
        lift(inner31, MatrixFq.zeros(2, 2, 4))


@pytest.mark.parametrize("code_q, space_q", [(3, 2), (2, 3)])
def test_received_space_over_another_field_rejected(code_q, space_q):
    """A space of the right ambient over another F_q is a ParameterError in
    every lifted entry, not a wrong answer or an IndexError."""
    inner = GabidulinCode.standard(FieldParams.default(code_q, 4), 3, 1)
    ambient = inner.n + 4
    rng = SplitMix64(25)
    spaces = [full_space(space_q, ambient), Subspace.zero(space_q, ambient)]
    spaces += [random_subspace(space_q, ambient, rng.randint(1, ambient), rng) for _ in range(20)]
    for space in spaces:
        for entry in (subspace_decode, reduce_received, brute_force_subspace_decode):
            with pytest.raises(ParameterError, match=rf"must lie in F_{code_q}\^{ambient}"):
                entry(inner, space)


@pytest.mark.parametrize("q, other_q", [(2, 3), (3, 2)])
def test_a_warmed_decode_memo_still_rejects_a_twin(q, other_q):
    """Over F_3 a row stores one byte per entry, over GF(2) one bit, so the
    zero space and <e_(n+m-1)> in F^(n+m) store the same rows over both
    fields, and the zero space and <e_(n+m)> in F_q^(n+m+1) store them too.
    With the decode memo warmed on the code's own spaces, every twin over
    the other field or in the wider ambient still raises."""
    inner = GabidulinCode.standard(FieldParams.default(q, 4), 3, 1)
    ambient = inner.n + 4
    own = [Subspace.zero(q, ambient), unit_span(q, ambient, [ambient - 1])]
    for space in own:
        subspace_decode(inner, space)
        assert (q, ambient, space.basis._data) in inner._subspace_decode_memo
    for field, width in ((other_q, ambient), (q, ambient + 1)):
        twins = [Subspace.zero(field, width), unit_span(field, width, [width - 1])]
        for twin, space in zip(twins, own, strict=True):
            assert twin.basis._data == space.basis._data
            with pytest.raises(ParameterError, match=rf"must lie in F_{q}\^{ambient}"):
                subspace_decode(inner, twin)


def test_a_word_is_an_n_by_m_matrix_over_f_q(inner31):
    """decode_bounded, brute_force_decode and lift take a word only as an
    n x m MatrixFq over F_q: the same word as a tuple of element indices, a matrix
    over another q, and the wrong row or column count are ParameterErrors.
    reduce_received's word is such a matrix, and equals the reference's."""
    msg = (7,)
    word = inner31.encode(msg)
    assert inner31.decode_bounded(word) == msg == inner31.brute_force_decode(word)
    assert lift(inner31, word).basis.entries[0] == (1, 0, 0) + word.entries[0]
    bad = [
        tuple(word._row_indices()),
        MatrixFq.zeros(3, 3, 4),
        MatrixFq.zeros(2, 2, 4),
        MatrixFq.zeros(2, 4, 4),
        MatrixFq.zeros(2, 3, 3),
        MatrixFq.zeros(2, 3, 5),
    ]
    entries = (inner31.decode_bounded, inner31.brute_force_decode, lambda w: lift(inner31, w))
    for entry in entries:
        for received in bad:
            with pytest.raises(ParameterError, match=r"word must be a 3x4 MatrixFq over F_2"):
                entry(received)
    rng = SplitMix64(27)
    for rho, t in [(0, 0), (1, 1), (2, 0), (0, 3), (3, 4)]:
        received = apply_exact(lift(inner31, word), ChannelSpec(rho=rho, t=t), rng).U
        reduced = reduce_received(inner31, received)[0]
        assert type(reduced) is MatrixFq and (reduced.q, reduced.rows, reduced.cols) == (2, 3, 4)
        assert reduced == _reference_reduce(inner31, received)[0]


def test_extra_dimensions_are_handled(inner31):
    """Payload-pivot dimensions flow through the hint path, not a rejection."""
    msg = (6,)
    space = lift(inner31, inner31.encode(msg))
    rng = SplitMix64(23)
    outcome = apply_exact(space, ChannelSpec(rho=0, t=2), rng)
    assert outcome.U.dim == 5  # more dimensions than the code length
    result = subspace_decode(inner31, outcome.U)
    assert result == inner31.encode(msg)


def _reference_reduce(inner, received):
    """The list implementation of reduce_received, on entries."""
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
        MatrixFq(q, n, m, word_rows),
        MatrixFq(q, len(payload_rows), m, payload_rows),
        MatrixFq(q, len(col_rows), n, col_rows),
    )


def _assert_reduction_matches_reference(inner, received):
    word, row_hints, col_hints = reduce_received(inner, received)
    ref_word, ref_rows, ref_cols = _reference_reduce(inner, received)
    assert word == ref_word and word.entries == ref_word.entries
    assert row_hints == ref_rows and row_hints.entries == ref_rows.entries
    assert col_hints == ref_cols and col_hints.entries == ref_cols.entries


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 3, 1), (2, 5, 4, 2), (3, 3, 3, 1), (3, 4, 2, 1)])
def test_reduce_received_matches_list_reference(q, m, n, k):
    """Reduction on stored rows against the list implementation, edge shapes included."""
    inner = GabidulinCode.standard(FieldParams.default(q, m), n, k)
    ambient = n + m
    rng = SplitMix64(90 + 10 * q + n)
    spaces = [Subspace.zero(q, ambient), full_space(q, ambient)]
    widest = 0
    for _ in range(60):
        # arbitrary received spaces, any pivots
        spaces.append(random_subspace(q, ambient, rng.randint(0, ambient), rng))
        # every header pivot erased: the space lies in the payload columns
        payload = random_subspace(q, m, rng.randint(0, m), rng)
        spaces.append(embed(payload, 0, 0, ambient))
        # channel outputs around a codeword, up to t = ambient - dim V
        msg = rng.randbelow_many(inner.params.size, k)
        codeword = lift(inner, inner.encode(msg))
        rho = rng.randint(0, n)
        t = m if not rng.randbelow(4) else rng.randint(0, m)
        widest += t == m
        spaces.append(apply_exact(codeword, ChannelSpec(rho=rho, t=t), rng).U)
    assert widest >= 5
    for space in spaces:
        _assert_reduction_matches_reference(inner, space)


def test_every_decode_reaches_the_core_once(fp24, monkeypatch):
    """Within one code each distinct received space reaches the decoder core
    once, failures included: a repeat, even as another equal Subspace,
    reaches it zero times and returns an equal outcome.  decode_bounded
    runs the core on every call, and the lifted path does not go through it."""
    inner = GabidulinCode.standard(fp24, 3, 1)  # built here: its memo starts empty
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
    first = {}
    lifted_outcomes, direct_outcomes = [], []
    for rho, t in [(0, 0), (1, 1), (3, 0), (0, 4), (2, 2), (3, 4), (0, 0), (3, 0)]:
        msg = (rng.randbelow(16),)
        space = lift(inner, inner.encode(msg))
        received = apply_exact(space, ChannelSpec(rho=rho, t=t), rng).U
        basis = received.basis
        equal = Subspace(received.ambient_dim, MatrixFq(2, basis.rows, basis.cols, basis.entries))
        for again in (received, received, equal):
            before = len(core_calls)
            outcome = subspace_decode(inner, again)
            if received in first:
                assert len(core_calls) == before
                assert type(outcome) is type(first[received]) and outcome == first[received]
            else:
                assert len(core_calls) == before + 1 and core_calls[-1] is inner
                first[received] = outcome
        assert not public_calls
        lifted_outcomes.append(outcome)
        word, rows, cols = reduce_received(inner, received)
        for hints in ((rows, cols), (None, None)):
            before = len(core_calls)
            direct_outcomes.append(inner.decode_bounded(word, *hints))
            assert len(core_calls) == before + 1 and core_calls[-1] is inner
        public_calls.clear()
    assert len(core_calls) == len(first) + len(direct_outcomes)
    # (3, 0) leaves the zero space both times: a repeat across trials
    assert len(first) < len(lifted_outcomes)
    for outcomes in (lifted_outcomes, direct_outcomes):
        assert any(isinstance(o, DecodeFailure) for o in outcomes)
        assert any(not isinstance(o, DecodeFailure) for o in outcomes)
    # (3, 0) erases every header direction: mu = n fails the radius check
    assert lifted_outcomes[2].detail == "mu+delta = 3 exceeds d-1 = 2"


def _assert_same_outcome(got, want):
    """Two lifted outcomes agree field for field."""
    assert type(got) is type(want)
    if isinstance(want, DecodeFailure):
        assert (got.reason, got.detail) == (want.reason, want.detail)
    else:
        assert got == want and got.entries == want.entries


def test_memo_is_per_code(fp24, example_code):
    """Equal codes built apart keep memos of their own: a fresh code starts
    empty, and its decodes fill no other code's memo."""
    _, outcome = make_trial(example_code, 3, ChannelSpec(rho=1, t=1))
    example_code.decode(outcome.U, "alg2-iterative")
    assert all(inner._subspace_decode_memo for inner in example_code.layers)
    fresh = LayeredCode.standard(fp24, [(3, 1), (4, 1)])
    assert fresh == example_code
    assert not any(inner._subspace_decode_memo for inner in fresh.layers)
    before = [dict(inner._subspace_decode_memo) for inner in example_code.layers]
    _, outcome = make_trial(fresh, 4, ChannelSpec(rho=2, t=1))
    fresh.decode(outcome.U, "alg2-iterative")
    assert all(inner._subspace_decode_memo for inner in fresh.layers)
    assert [inner._subspace_decode_memo for inner in example_code.layers] == before


def test_memo_never_grows_past_its_bound(fp24, monkeypatch):
    """The memo holds at most MEMO_SIZE outcomes, and is emptied when full."""
    assert gabidulin_mod.MEMO_SIZE == 4096
    monkeypatch.setattr(gabidulin_mod, "MEMO_SIZE", 5)
    inner = GabidulinCode.standard(fp24, 3, 1)
    memo = inner._subspace_decode_memo
    rng = SplitMix64(26)
    spaces = {random_subspace(2, 7, rng.randint(0, 7), rng) for _ in range(40)}
    assert len(spaces) > 10
    sizes = []
    for space in sorted(spaces, key=lambda s: s.basis._data):
        _assert_same_outcome(subspace_decode(inner, space), lifted_mod._decode_space(inner, space))
        sizes.append(len(memo))
    assert max(sizes) == 5 and sizes.count(1) > 1  # full, emptied, filled again


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 3, 1), (2, 5, 4, 2), (3, 3, 3, 1), (5, 2, 2, 1)])
def test_memoized_decode_matches_the_uncached_one(q, m, n, k):
    """At every (rho, t), failures included, the memoized outcome, on a miss
    and on a hit, equals the uncached one field for field."""
    params = FieldParams.default(q, m)
    inner = GabidulinCode.standard(params, n, k)
    rng = SplitMix64(8000 + 100 * q + 10 * m + n)
    seen = {"ok": 0, "fail": 0, "hit": 0}
    for rho in range(n + 1):
        for t in range(m + 1):
            for _ in range(6):
                msg = rng.randbelow_many(params.size, k)
                codeword = lift(inner, inner.encode(msg))
                received = apply_exact(codeword, ChannelSpec(rho=rho, t=t), rng).U
                want = lifted_mod._decode_space(inner, received)
                hit = (q, n + m, received.basis._data) in inner._subspace_decode_memo
                for _ in range(2):
                    _assert_same_outcome(subspace_decode(inner, received), want)
                seen["fail" if isinstance(want, DecodeFailure) else "ok"] += 1
                seen["hit"] += hit
    assert all(seen.values()), seen


def _reference_subspace_decode(inner, received):
    """The lifted attempt through the public decoder: the reduction's column
    hints, their kernel as the projection; a success is the message."""
    word, row_hints, col_hints = reduce_received(inner, received)
    return inner.decode_bounded(word, row_erasures=row_hints, col_erasures=col_hints)


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
    points = tuple(random_full_rank_matrix(q, n, m, rng)._row_indices())
    inner = GabidulinCode(params, n, k, points)
    ambient, d = n + m, n - k + 1
    spaces = [Subspace.zero(q, ambient), full_space(q, ambient)]
    for _ in range(40):
        spaces.append(random_subspace(q, ambient, rng.randint(0, ambient), rng))
        # every header pivot erased
        payload = random_subspace(q, m, rng.randint(0, m), rng)
        spaces.append(embed(payload, 0, 0, ambient))
        # channel outputs around a codeword, up to t = ambient - dim V
        msg = rng.randbelow_many(params.size, k)
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
        header, _, rest = lifted_mod._split(inner, space)
        erasures = n - len(header) + len(rest)
        seen["d-1"] += erasures == d - 1
        seen["d"] += erasures == d
        got = subspace_decode(inner, space)
        want = _reference_subspace_decode(inner, space)
        if isinstance(want, DecodeFailure):
            assert type(got) is DecodeFailure
            assert (got.reason, got.detail) == (want.reason, want.detail)
            seen["radius" if "mu+delta" in want.detail else "nothing-near"] += 1
        else:
            assert type(got) is MatrixFq
            matrix = inner._codeword_matrix(want)
            assert got == matrix and got.entries == matrix.entries
            assert got == inner.encode(want)
            seen["decoded"] += 1
            seen["decoded-mu>0"] += len(header) < n
    if k == n:  # d - 1 = 0 and every word is a codeword
        assert not seen.pop("nothing-near") and not seen.pop("decoded-mu>0")
    assert all(seen.values()), seen


def split_basis(u: Subspace, n: int) -> tuple[list[int], MatrixFq, MatrixFq, MatrixFq]:
    """``u``'s canonical basis cut before column n (0 <= n <= ambient).

    Returns (pivots, head, tail, rest).  The basis rows that pivot before
    column n pivot at ``pivots``; ``head`` holds their first n columns (a
    reduced echelon matrix) and ``tail`` their other columns.  ``rest``
    holds the other columns of the remaining rows, whose first n columns
    are zero: it is a canonical basis of width ambient - n.
    """
    q, width = u.q, u.ambient_dim
    if not 0 <= n <= width:
        raise ParameterError(f"cut column {n} outside [0, {width}]")
    data = u.basis._data
    right = width - n
    lead = _lead_columns(data, q, width)
    s = bisect_left(lead, n)
    shift = right * _field_bits(q)
    mask = (1 << shift) - 1
    head = tuple(v >> shift for v in data[:s])
    tail = tuple(v & mask for v in data[:s])
    rest = data[s:]
    return (
        lead[:s],
        MatrixFq._unchecked(q, s, n, head),
        MatrixFq._unchecked(q, s, right, tail),
        MatrixFq._unchecked(q, len(rest), right, rest),
    )


@pytest.mark.parametrize(
    "q, widths", [(2, (0, 1, 4, 12)), (3, (0, 3, 10)), (5, (0, 2, 6)), (7, (1, 5)), (17, (0, 3))]
)
def test_the_header_cut_matches_split_basis(q, widths):
    """``lifted._split``'s stored-row cut equals the cut of ``split_basis``
    (the eliminating-free cut it replaced, kept above as written) at every
    header length n, 0 and the whole ambient (m = 0) included: on the zero
    and full spaces, random spaces, and spaces with every header pivot
    erased.  The cut reads only the field of the inner code, so a stand-in
    with q and m (up to 12) serves for shapes no Gabidulin code has."""
    rng = SplitMix64(3100 + q)
    for m in widths:
        inner = SimpleNamespace(params=SimpleNamespace(q=q, m=m))
        for n in range(5):
            ambient = n + m
            spaces = [Subspace.zero(q, ambient), full_space(q, ambient)]
            for _ in range(8):
                spaces.append(random_subspace(q, ambient, rng.randint(0, ambient), rng))
                payload = random_subspace(q, m, rng.randint(0, m), rng)
                spaces.append(embed(payload, 0, 0, ambient))
            for space in spaces:
                header, payload, rest = lifted_mod._split(inner, space)
                pivots, head, tail, left = split_basis(space, n)
                assert header == head._data and rest == left._data
                assert payload == tail._row_indices()
                assert _lead_columns(header, q, n) == pivots
