"""Gabidulin encoding and decoding against the brute-force oracle and the reference decoder."""

import functools
import itertools
import pathlib

import pytest

from lsc import gabidulin as gabidulin_mod
from lsc.config import load_config, parse_config
from lsc.errors import CapacityError, ParameterError
from lsc.field import FieldParams
from lsc.gabidulin import (
    DecodeFailure,
    GabidulinCode,
    _lp_annihilator,
    _lp_compose,
    _lp_divide_left,
    _lp_evaluate,
    _newton_interpolate,
    _newton_sum,
    _newton_table,
    _trim,
)
from lsc.lifted import brute_force_subspace_decode
from lsc.linalg import MatrixFq, Subspace, random_full_rank_matrix, rank_distance, row_space
from lsc.rng import SplitMix64
import gabidulin_reference as reference
from gabidulin_reference import decode_bounded as reference_decode
from rref_reference import transpose


@pytest.fixture(scope="module")
def code31(fp24):
    return GabidulinCode.standard(fp24, 3, 1)


def _rank1_errors(q, n, m):
    seen = {}
    for u in itertools.product(range(q), repeat=n):
        if not any(u):
            continue
        for v in itertools.product(range(q), repeat=m):
            if not any(v):
                continue
            entries = tuple(tuple((a * b) % q for b in v) for a in u)
            seen[entries] = MatrixFq(q, n, m, entries)
    return list(seen.values())


def test_encode_identity_polynomial(code31):
    # message [1] gives f = x, so the codeword is the evaluation points
    cw = code31.encode([1])
    assert (cw.q, cw.rows, cw.cols) == (2, 3, 4)
    assert code31.eval_points == (1, 2, 4)
    assert cw._row_indices() == [1, 2, 4]
    assert cw.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_encode_zero_and_single_point(fp24):
    code = GabidulinCode.standard(fp24, 3, 1)
    assert code.encode([0]) == MatrixFq.zeros(2, 3, 4)
    tiny = GabidulinCode.standard(fp24, 1, 1)
    assert tiny.encode([9])._row_indices() == [fp24.ops.mul(9, tiny.eval_points[0])]


def test_encode_linearity(fp24):
    code = GabidulinCode.standard(fp24, 4, 2)
    rng = SplitMix64(12)
    for _ in range(200):
        u = [rng.randbelow(16) for _ in range(2)]
        v = [rng.randbelow(16) for _ in range(2)]
        s = list(map(fp24.ops.add, u, v))
        assert code.encode(s) == code.encode(u) + code.encode(v)


def test_min_rank_distance_values(fp24):
    assert GabidulinCode.standard(fp24, 3, 1).min_rank_distance == 3
    assert GabidulinCode.standard(fp24, 4, 1).min_rank_distance == 4
    assert GabidulinCode.standard(fp24, 3, 3).min_rank_distance == 1


def test_mrd_exhaustive(fp24):
    for n in (3, 4):
        code = GabidulinCode.standard(fp24, n, 1)
        words = [code.encode(m) for m in code.iter_messages()]
        dmin = min(
            rank_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
        )
        assert dmin == n - 1 + 1


def test_decode_zero_error(fp24, code31):
    for msg in code31.iter_messages():
        assert code31.decode_bounded(code31.encode(msg)) == msg


def test_decode_all_rank1_errors_exhaustive(fp24, code31):
    errors = _rank1_errors(2, 3, 4)
    assert len(errors) == 105
    for msg in code31.iter_messages():
        word = code31.encode(msg)
        for err in errors:
            received = word + err
            assert code31.decode_bounded(received) == msg
            assert code31.brute_force_decode(received) == msg


def test_rank2_errors_match_oracle_classification(code31):
    """Beyond radius the decoder mirrors what the nearest-codeword analysis allows."""
    rng = SplitMix64(13)
    checked = wrong_codeword_cases = failure_cases = 0
    while checked < 300:
        a = transpose(random_full_rank_matrix(2, 2, 3, rng))
        b = random_full_rank_matrix(2, 2, 4, rng)
        err = a @ b
        if err.rank() != 2:
            continue
        msg = (rng.randbelow(16),)
        received = code31.encode(msg) + err
        got = code31.decode_bounded(received)
        oracle = code31.brute_force_decode(received)
        if isinstance(oracle, DecodeFailure):
            assert isinstance(got, DecodeFailure)
            failure_cases += 1
        else:
            dist = rank_distance(received, code31.encode(oracle))
            if dist <= 1:  # unique codeword within the bounded radius
                assert got == oracle
                wrong_codeword_cases += 1
            else:
                assert isinstance(got, DecodeFailure)
                failure_cases += 1
        checked += 1
    assert wrong_codeword_cases and failure_cases


def test_brute_force_truth_table_tiny():
    params = FieldParams.default(2, 2)
    code = GabidulinCode.standard(params, 2, 1)
    words = {msg: code.encode(msg) for msg in code.iter_messages()}
    assert len(words) == 4
    ties = 0
    for entries in itertools.product(range(2), repeat=4):
        received = MatrixFq(2, 2, 2, (entries[:2], entries[2:]))
        dists = {msg: rank_distance(received, w) for msg, w in words.items()}
        best = min(dists.values())
        argmins = [msg for msg, d in dists.items() if d == best]
        got = code.brute_force_decode(received)
        if len(argmins) == 1:
            assert got == argmins[0]
        else:
            assert isinstance(got, DecodeFailure) and got.reason == "tie"
            ties += 1
    assert ties > 0  # the equidistant case exists and fails as a tie


def test_brute_force_cap():
    """4096^2 messages are more than the enumeration cap: iter_messages and
    both oracles raise when they are called, before a codebook is built."""
    code = GabidulinCode.standard(FieldParams.default(2, 12), 2, 2)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        code.iter_messages()
    with pytest.raises(CapacityError, match="exceeds the cap"):
        code.brute_force_decode(MatrixFq.zeros(2, 2, 12))
    with pytest.raises(CapacityError, match="exceeds the cap"):
        brute_force_subspace_decode(code, Subspace.zero(2, 14))
    assert "_codebook" not in vars(code)


def _reference_brute_force(code, received):
    """The oracle without a codebook or its bounded scan: encode every
    message for every received word, then ``rank_distance``, which builds
    the difference matrix; ties fail."""
    best = best_dist = None
    tie = False
    for message in itertools.product(range(code.params.size), repeat=code.k):
        dist = rank_distance(received, code._codeword_matrix(message))
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = message, dist, False
        elif dist == best_dist:
            tie = True
    if tie:
        return DecodeFailure("tie", f"multiple codewords at distance {best_dist}")
    return best


@pytest.mark.parametrize(
    "q, m, n, k",
    [(2, 4, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1), (3, 3, 3, 1), (5, 2, 2, 1), (7, 2, 2, 1)],
)
def test_codebook_oracle_matches_reference_enumeration(q, m, n, k):
    """The bounded scan gives the unbounded reference's outcome, a tie's text
    verbatim: on random words (far from the code), on words near a codeword,
    and on codewords, where every other codeword is cut at its first
    independent row."""
    params = FieldParams.default(q, m)
    code = GabidulinCode.standard(params, n, k)
    rng = SplitMix64(100 * q + 10 * m + n)
    ties = unique = 0
    for trial in range(150):
        received = MatrixFq.random(q, n, m, rng)
        if trial % 3:  # near a codeword (usually a unique nearest one), or on it
            msg = [rng.randbelow(params.size) for _ in range(k)]
            received = code.encode(msg) + (received if trial % 3 == 1 else MatrixFq.zeros(q, n, m))
        got = code.brute_force_decode(received)
        want = _reference_brute_force(code, received)
        assert got == want
        if isinstance(got, DecodeFailure):
            assert (got.reason, got.detail) == (want.reason, want.detail)
            ties += 1
        else:
            if trial % 3 == 2:
                assert got == tuple(msg)
            unique += 1
    assert ties and unique


def _fresh_codeword(code, message):
    """The codeword of ``message`` through no memo: the reference's own
    polynomial evaluation at every point."""
    ops = code.params.ops
    points = [reference._lp_evaluate(ops, message, g) for g in code.eval_points]
    return MatrixFq._from_indices(code.params.q, code.params.m, points)


# the sim-matrix-q3 benchmark code: layer 2 has 81^2 messages, more than a memo holds
Q3_CODE = "[field]\nq = 3\nm = 4\n\n[code]\nlayers = 3:1, 4:2\n"


@pytest.mark.parametrize("name", ["default", "q3"])
def test_memoized_codewords_equal_fresh_evaluations(name):
    """Every message of both default.ini layers, and 500 random messages per
    layer of the q = 3 code: on a miss and on a hit, the codeword memo gives
    the fresh evaluation, and a hit is the stored matrix."""
    if name == "default":
        cfg = load_config(str(pathlib.Path(__file__).parent.parent / "configs" / "default.ini"))
    else:
        cfg = parse_config(Q3_CODE, "q3.ini")
    rng = SplitMix64(33)
    for code in cfg.build_code().layers:
        if name == "default":
            messages = list(code.iter_messages())
        else:
            messages = [tuple(rng.randbelow_many(code.params.size, code.k)) for _ in range(500)]
        for message in messages:
            want = _fresh_codeword(code, message)
            got = code.encode(list(message))
            assert got == want and got.entries == want.entries
            assert code._codeword_matrix(message) is got
        assert len(code._codeword_memo) == len(set(messages))


def test_codeword_memo_never_grows_past_its_bound(fp24, monkeypatch):
    """The codeword memo holds at most MEMO_SIZE codewords, and is emptied
    when full."""
    assert gabidulin_mod.MEMO_SIZE == 4096
    monkeypatch.setattr(gabidulin_mod, "MEMO_SIZE", 5)
    code = GabidulinCode.standard(fp24, 3, 1)
    sizes = []
    for message in [*code.iter_messages(), *code.iter_messages()]:
        assert code.encode(message) == _fresh_codeword(code, message)
        sizes.append(len(code._codeword_memo))
    assert max(sizes) == 5 and sizes.count(1) > 1  # full, emptied, filled again


def test_key_equation_memo_never_grows_past_its_bound(fp24, monkeypatch):
    """The key-equation memo holds at most MEMO_SIZE solutions, and is emptied
    when full; decodes through a full, an emptied and a refilled memo stay
    right."""
    monkeypatch.setattr(gabidulin_mod, "MEMO_SIZE", 5)
    code = GabidulinCode.standard(fp24, 3, 1)
    word = code.encode((7,))
    sizes = []
    for err in _rank1_errors(2, 3, 4)[:40]:
        assert code.decode_bounded(word + err) == (7,)
        sizes.append(len(code._key_equation_memo))
    assert max(sizes) == 5 and sizes.count(1) > 1  # full, emptied, filled again


def test_key_equation_memo_keys_on_the_projections_rows(fp24):
    """P and T P span one row space but project the points apart, so one
    syndrome has another key-equation solution under each.  A word that is
    0 on the first r = k points has its tail as syndrome under any P: a code
    that solved it under P decodes it under T P as a fresh code does, where
    the two outcomes differ too."""
    code = GabidulinCode.standard(fp24, 4, 1)  # d - 1 = 3: tau_max = 1 at mu = 1
    rng = SplitMix64(77)
    differ = 0
    for _ in range(60):
        p = random_full_rank_matrix(2, 3, 4, rng)
        tp = random_full_rank_matrix(2, 3, 3, rng) @ p
        word = [0, 1 + rng.randbelow(15), rng.randbelow(16)]
        under_p = code._decode_projected(word, p._data, ())
        fresh = GabidulinCode.standard(fp24, 4, 1)._decode_projected(word, tp._data, ())
        assert code._decode_projected(word, tp._data, ()) == fresh
        differ += under_p != fresh
    assert differ


def test_the_oracle_leaves_the_codeword_memo_empty(fp24):
    """The codebook evaluates every message outside the memo, so the oracle
    fills no entry, and its codewords are the memoized ones."""
    code = GabidulinCode.standard(fp24, 4, 2)
    received = MatrixFq.random(2, 4, 4, SplitMix64(6))
    code.brute_force_decode(received)
    messages, codewords = code._codebook
    assert "_codeword_memo" not in vars(code)
    assert codewords == tuple(code._codeword_matrix(f)._data for f in messages)


def _scrambled(hint, rng):
    """Rows spanning the same space as ``hint`` but not canonical: each row
    scaled, one duplicated, the sum of two appended, then all shuffled."""
    q = hint.q
    rows = []
    for row in hint.entries:
        scale = 1 + rng.randbelow(q - 1)
        rows.append(tuple(x * scale % q for x in row))
    rows.append(rows[rng.randbelow(len(rows))])
    rows.append(tuple((x + y) % q for x, y in zip(rows[0], rows[-2])))
    keys = [rng.next64() for _ in rows]
    rows = [row for _, row in sorted(zip(keys, rows))]
    return MatrixFq(q, len(rows), hint.cols, rows)


def test_decoder_with_erasure_hints(fp24):
    """Synthetic errors matching the hint structure decode within 2t+mu+delta <= d-1.

    The same hints in canonical form, and scrambled, decode alike.
    """
    code = GabidulinCode.standard(fp24, 4, 1)
    rng = SplitMix64(14)
    for mu, delta, tau in [(1, 0, 1), (0, 1, 1), (2, 1, 0), (1, 2, 0), (3, 0, 0)]:
        for _ in range(100):
            msg = (rng.randbelow(16),)
            word = code.encode(msg)
            err = MatrixFq.zeros(2, 4, 4)
            col_hint = row_hint = None
            if mu:
                lam = random_full_rank_matrix(2, mu, 4, rng)
                err = err + (transpose(lam) @ MatrixFq.random(2, mu, 4, rng))
                col_hint = lam
            if delta:
                row_hint = random_full_rank_matrix(2, delta, 4, rng)
                err = err + (MatrixFq.random(2, 4, delta, rng) @ row_hint)
            if tau:
                u = transpose(random_full_rank_matrix(2, tau, 4, rng))
                v = random_full_rank_matrix(2, tau, 4, rng)
                err = err + (u @ v)
            received = word + err
            got = code.decode_bounded(received, row_erasures=row_hint, col_erasures=col_hint)
            assert got == msg, (mu, delta, tau)
            for form in (lambda h: row_space(h, h.cols).basis, lambda h: _scrambled(h, rng)):
                rows, cols = (None if h is None else form(h) for h in (row_hint, col_hint))
                again = code.decode_bounded(received, row_erasures=rows, col_erasures=cols)
                assert again == msg, (mu, delta, tau)


def test_malformed_side_information_raises(code31):
    received = code31.encode([1])
    with pytest.raises(ParameterError):
        code31.decode_bounded(received, row_erasures=MatrixFq.zeros(2, 1, 3))
    with pytest.raises(ParameterError):
        code31.decode_bounded(received, col_erasures=MatrixFq.zeros(2, 1, 4))
    with pytest.raises(ParameterError):
        code31.decode_bounded(received, row_erasures=MatrixFq.zeros(3, 1, 4))


def test_code_construction_validation(fp24):
    with pytest.raises(ParameterError):
        GabidulinCode.standard(fp24, 5, 1)  # n > m
    with pytest.raises(ParameterError):
        GabidulinCode.standard(fp24, 2, 3)  # k > n
    dependent = (1, 1, 2)
    with pytest.raises(ParameterError):
        GabidulinCode(fp24, 3, 1, dependent)
    with pytest.raises(ParameterError):
        GabidulinCode.standard(fp24, 3, 1).encode([1, 1])



def test_messages_and_points_are_element_indices(fp24, example_code):
    """A message symbol and an evaluation point are ints in [0, q^m).  An
    element object, a float, -1, q^m or a wrong length is a ParameterError,
    never a TypeError or IndexError, in ``GabidulinCode.encode``,
    ``LayeredCode.encode`` and the ``GabidulinCode`` constructor."""
    code = GabidulinCode.standard(fp24, 3, 1)
    for bad in (fp24.from_index(1), 1.0, -1, fp24.size):
        with pytest.raises(ParameterError):
            code.encode([bad])
        for messages in ([[bad], [0]], [[0], [bad]]):
            with pytest.raises(ParameterError):
                example_code.encode(messages)
        with pytest.raises(ParameterError):
            GabidulinCode(fp24, 3, 1, (bad, 2, 4))
    for wrong in ([], [0, 0]):
        with pytest.raises(ParameterError):
            code.encode(wrong)
        with pytest.raises(ParameterError):
            example_code.encode([wrong, [0]])
    with pytest.raises(ParameterError):
        example_code.encode([[0]])
    for points in ((1, 2), (1, 2, 4, 8)):
        with pytest.raises(ParameterError):
            GabidulinCode(fp24, 3, 1, points)
    # any sequence of indices will do; the points are kept as a tuple
    assert code.encode((1,)) == code.encode([1])
    listed = GabidulinCode(fp24, 3, 1, [1, 2, 4])
    assert listed == code and hash(listed) == hash(code)
    assert example_code.encode([(3,), [9]]) == example_code.encode([[3], [9]])

# --- the linearized-polynomial kernels against tests/gabidulin_reference.py ---


def _random_poly(ops, rng, length):
    """A trimmed coefficient list of q-degree length - 1: random indices
    under a nonzero top coefficient."""
    if not length:
        return []
    size = ops.order + 1
    return [rng.randbelow(size) for _ in range(length - 1)] + [1 + rng.randbelow(size - 1)]


# F_16 and F_9: odd q takes the minus_one logarithm and the Zech-log adds
KERNEL_FIELDS = [(2, 4), (3, 2)]

# F_17 and F_289 = F_17[x]/(x^2 + 3): a stored row over F_17 has two-byte
# entries, so the column-hint projection takes the product's wide-field path
TWO_BYTE_MODULI = {(17, 1): (3, 1), (17, 2): (3, 0, 1)}


def test_linearized_poly_evaluation_and_composition():
    """Evaluation on indices equals the reference's, which uses only
    FieldOps.add/mul/frob, at q-degrees past m; the reference composition
    evaluates as one polynomial inside the other."""
    for q, m in KERNEL_FIELDS:
        ops = FieldParams.default(q, m).ops
        rng = SplitMix64(1500 + 10 * q + m)
        for _ in range(300):
            a = _random_poly(ops, rng, rng.randint(0, 6))
            b = _random_poly(ops, rng, rng.randint(0, 6))
            x = rng.randbelow(ops.order + 1)
            assert _lp_evaluate(ops, a, [x]) == [reference._lp_evaluate(ops, a, x)]
            composed = reference._lp_compose(ops, a, b)
            inner = _lp_evaluate(ops, b, [x])
            assert _lp_evaluate(ops, composed, [x]) == _lp_evaluate(ops, a, inner)


def test_linearized_poly_division_roundtrip():
    """Left division on indices equals the reference's, and num =
    left(quotient(x)) + remainder with q-deg remainder < q-deg left."""
    for q, m in KERNEL_FIELDS:
        ops = FieldParams.default(q, m).ops
        rng = SplitMix64(1550 + 10 * q + m)
        for _ in range(300):
            num = _random_poly(ops, rng, rng.randint(0, 7))
            left = _random_poly(ops, rng, rng.randint(1, 4))
            quot, rem = _lp_divide_left(ops, num, left)
            assert (quot, rem) == reference._lp_divide_left(ops, num, left)
            assert len(rem) < len(left)
            product = reference._lp_compose(ops, left, quot)
            width = max(len(product), len(rem))
            product, rem = (c + [0] * (width - len(c)) for c in (product, rem))
            assert _trim(list(map(ops.add, product, rem))) == num
        with pytest.raises(ZeroDivisionError):
            _lp_divide_left(ops, [1], [])


def test_subspace_annihilator_kernel():
    """The annihilator of independent elements is monic of q-degree their
    count, equals the reference's, and vanishes exactly on their F_q-span;
    dependent elements are a ParameterError in both."""
    for q, m in KERNEL_FIELDS:
        params = FieldParams.default(q, m)
        ops = params.ops
        rng = SplitMix64(1600 + 10 * q + m)
        for dim in range(m + 1):
            for _ in range(10):
                basis = random_full_rank_matrix(q, dim, m, rng)._row_indices()
                sigma = _lp_annihilator(ops, basis)
                assert sigma == reference._lp_annihilator(ops, basis)
                assert len(sigma) == dim + 1 and sigma[-1] == 1
                span = {
                    functools.reduce(ops.add, map(ops.mul, coeffs, basis), 0)
                    for coeffs in itertools.product(range(q), repeat=dim)
                }
                values = _lp_evaluate(ops, sigma, range(params.size))
                kernel = {x for x, y in enumerate(values) if not y}
                assert kernel == span
        z = rng.randint(1, params.size - 1)
        for annihilator in (_lp_annihilator, reference._lp_annihilator):
            with pytest.raises(ParameterError, match="linearly dependent"):
                annihilator(ops, [z, ops.mul(q - 1, z)])


def _newton_fields():
    """``KERNEL_FIELDS`` and F_289, whose logarithms run past 2^8."""
    return [FieldParams.default(q, m) for q, m in KERNEL_FIELDS] + [
        FieldParams(17, 2, TWO_BYTE_MODULI[17, 2])
    ]


def _span(ops, elements):
    """The F_q-span of ``elements``, by enumeration."""
    return {
        functools.reduce(ops.add, map(ops.mul, coeffs, elements), 0)
        for coeffs in itertools.product(range(ops.q), repeat=len(elements))
    }


def test_newton_table_bases_and_values():
    """Basis A_i of the table is the reference annihilator of the first i
    points, vanishes exactly on their span (every field element tried), and
    its logged values at points i, i + 1, ... are the reference's; a
    dependent point is a ParameterError."""
    for params in _newton_fields():
        ops, q, m = params.ops, params.q, params.m
        rng = SplitMix64(1650 + q)
        for _ in range(8):
            n = 1 + rng.randbelow(m)
            points = random_full_rank_matrix(q, n, m, rng)._row_indices()
            bases, values = _newton_table(ops, points, n)
            assert len(bases) == len(values) == n + 1
            for i, (logs, at) in enumerate(zip(bases, values)):
                basis = [ops.zexp[l] for l in logs]
                assert basis == reference._lp_annihilator(ops, points[:i])
                assert at == [ops.zlog[reference._lp_evaluate(ops, basis, g)] for g in points[i:]]
                values = _lp_evaluate(ops, basis, range(params.size))
                kernel = {x for x, y in enumerate(values) if not y}
                assert kernel == _span(ops, points[:i])
        z = 1 + rng.randbelow(params.size - 1)
        with pytest.raises(ParameterError, match="linearly dependent"):
            _newton_table(ops, [z, 1, ops.mul(q - 1, z)], 3)
        # a dependent point past ``top`` is not reached
        assert len(_newton_table(ops, [z, ops.mul(q - 1, z)], 1)[0]) == 2


def test_newton_interpolant_and_syndrome():
    """h = ``_newton_sum`` of ``_newton_interpolate`` has q-degree < r and
    takes y_j at the first r points (by the reference evaluation), and the
    syndrome is y_j - h(g_j) at the others, so it is all 0 exactly when the
    y_j are the values of a polynomial of q-degree < r."""
    for params in _newton_fields():
        ops, q, m = params.ops, params.q, params.m
        rng = SplitMix64(1700 + q)
        for _ in range(40):
            n = 1 + rng.randbelow(m)
            points = random_full_rank_matrix(q, n, m, rng)._row_indices()
            bases, values = _newton_table(ops, points, n)
            r = rng.randbelow(n + 1)
            on_code = rng.randbelow(2)
            if on_code:
                f = _random_poly(ops, rng, rng.randint(0, r))
                ys = [reference._lp_evaluate(ops, f, g) for g in points]
            else:
                ys = [rng.randbelow(params.size) for _ in points]
            terms, syndrome = _newton_interpolate(ops, values, ys, r)
            h = _newton_sum(ops, bases, terms, [])
            assert len(h) <= r and len(syndrome) == n - r
            fit = [reference._lp_evaluate(ops, h, g) for g in points]
            assert fit[:r] == ys[:r]
            assert syndrome == list(map(ops.sub, ys[r:], fit[r:]))
            if on_code:
                assert h == f and not any(syndrome)


def test_composition_with_an_annihilator():
    """``_lp_compose`` on b's logarithms equals the reference composition, and
    evaluates as a(b(x)) at every field element: for random b and for b an
    annihilator A of the Newton table, as in Q o A.  The zero polynomial,
    ``[]``, composes to ``[]`` on either side."""
    for params in _newton_fields():
        ops, q, m = params.ops, params.q, params.m
        rng = SplitMix64(1750 + q)
        for _ in range(30):
            n = 1 + rng.randbelow(m)
            points = random_full_rank_matrix(q, n, m, rng)._row_indices()
            annihilator = [ops.zexp[l] for l in _newton_table(ops, points, n)[0][-1]]
            a = _random_poly(ops, rng, rng.randint(0, 4))
            for b in (annihilator, _random_poly(ops, rng, rng.randint(0, 4))):
                composed = _lp_compose(ops, a, [ops.zlog[c] for c in b])
                assert composed == reference._lp_compose(ops, a, b)
                field = range(params.size)
                assert _lp_evaluate(ops, composed, field) == _lp_evaluate(
                    ops, a, _lp_evaluate(ops, b, field)
                )
                assert _lp_compose(ops, a, []) == _lp_compose(ops, [], [ops.zlog[c] for c in b]) == []


# --- the decoder against the reference decoder (tests/gabidulin_reference.py) ---


def _agree(code, received, rows=None, cols=None):
    """decode_bounded and the reference decoder give the same message, or a
    DecodeFailure with the same reason and detail."""
    got = code.decode_bounded(received, row_erasures=rows, col_erasures=cols)
    assert got == reference_decode(code, received, rows, cols)
    return got


@pytest.mark.parametrize("q, m, n, k", [(2, 3, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1)])
def test_decoder_matches_reference_exhaustively(q, m, n, k, monkeypatch):
    """Every received word, with no hints and with every one-row row hint or
    column hint, the zero row included.  Where the key equation is solved
    (tau_max >= 1: no hint, or a zero row), the code's memo answers most
    solves, under hints other than the one that stored the entry too, so the
    comparison covers its hits."""
    params = FieldParams.default(q, m)
    code = GabidulinCode.standard(params, n, k)
    row_hints = [MatrixFq(q, 1, m, (v,)) for v in itertools.product(range(q), repeat=m)]
    col_hints = [MatrixFq(q, 1, n, (v,)) for v in itertools.product(range(q), repeat=n)]
    hints = [(None, None)] + [(h, None) for h in row_hints] + [(None, h) for h in col_hints]
    solves = []  # (key, hint) of each key-equation solve
    memoized = gabidulin_mod._memoized

    def counted(memo, key, make):
        if memo is code._key_equation_memo:
            solves.append((key, hint))
        return memoized(memo, key, make)

    monkeypatch.setattr(gabidulin_mod, "_memoized", counted)
    decoded = failed = 0
    for word in itertools.product(range(params.size), repeat=n):
        received = MatrixFq._from_indices(q, m, word)
        for hint, (rows, cols) in enumerate(hints):
            if isinstance(_agree(code, received, rows, cols), DecodeFailure):
                failed += 1
            else:
                decoded += 1
    assert decoded and failed
    if n - k < 2:  # tau_max = 0 with or without a hint: nothing to solve
        assert not solves
        return
    first = {}  # key -> the hint of the solve that stored it
    for key, hint in solves:
        first.setdefault(key, hint)
    assert len(code._key_equation_memo) == len(first) < len(solves)
    assert any(first[key] != hint for key, hint in solves)


def _random_hint(q, rows, width, rng):
    """A hint with ``rows`` independent rows (None or 0 rows when there are
    none), half the time scrambled by ``_scrambled``."""
    if not rows:
        return None if rng.randbelow(2) else MatrixFq.zeros(q, 0, width)
    hint = random_full_rank_matrix(q, rows, width, rng)
    return _scrambled(hint, rng) if rng.randbelow(2) else hint


@pytest.mark.parametrize(
    "q, max_m, trials", [(2, 12, 150), (3, 6, 120), (5, 4, 80), (7, 3, 80), (17, 2, 200)]
)
def test_decoder_matches_reference_on_random_inputs(q, max_m, trials):
    """Random fields, codes on random evaluation points, and errors built from
    column-hint, row-hint and unhinted parts, mostly inside the radius."""
    rng = SplitMix64(1000 + q)
    decoded = failed = 0
    for trial in range(trials):
        m = 1 + rng.randbelow(max_m)
        if (q, m) in TWO_BYTE_MODULI:
            params = FieldParams(q, m, TWO_BYTE_MODULI[q, m])
        else:
            params = FieldParams.default(q, m)
        n = 1 + rng.randbelow(m)
        k = 1 + rng.randbelow(n)
        points = tuple(random_full_rank_matrix(q, n, m, rng)._row_indices())
        code = GabidulinCode(params, n, k, points)
        msg = [rng.randbelow(params.size) for _ in range(k)]
        word = code.encode(msg)
        # 2 tau + mu + delta <= budget; one trial in four may go beyond d - 1
        budget = n - k + (rng.randbelow(3) if trial % 4 == 0 else 0)
        mu = rng.randbelow(min(n, budget) + 1)
        delta = rng.randbelow(min(m, budget - mu) + 1)
        tau = rng.randbelow(min(n, m, (budget - mu - delta) // 2) + 1)
        cols = _random_hint(q, mu, n, rng)
        rows = _random_hint(q, delta, m, rng)
        err = MatrixFq.zeros(q, n, m)
        if mu:
            err = err + transpose(cols) @ MatrixFq.random(q, cols.rows, m, rng)
        if delta:
            err = err + MatrixFq.random(q, n, rows.rows, rng) @ rows
        if tau:
            u = transpose(random_full_rank_matrix(q, tau, n, rng))
            err = err + u @ random_full_rank_matrix(q, tau, m, rng)
        if trial % 4 == 1:  # and one in four takes uniform noise on top
            err = err + MatrixFq.random(q, n, m, rng)
        received = word + err
        got = _agree(code, received, rows, cols)
        if isinstance(got, DecodeFailure):
            failed += 1
        else:
            decoded += 1
    assert decoded and failed


def test_decoder_matches_reference_on_edge_cases():
    """k = n, n = 1, 0-row hints against None, hints with zero, repeated and
    dependent rows, and mu + delta at and above d - 1."""
    rng = SplitMix64(31)
    for q, m in [(2, 4), (3, 4)]:
        params = FieldParams.default(q, m)
        for n, k in [(4, 4), (1, 1), (3, 3), (4, 1)]:
            code = GabidulinCode.standard(params, n, k)
            empty = MatrixFq.zeros(q, 0, m), MatrixFq.zeros(q, 0, n)
            for trial in range(30):
                msg = [rng.randbelow(params.size) for _ in range(k)]
                noise = MatrixFq.random(q, n, m, rng) if trial % 2 else MatrixFq.zeros(q, n, m)
                received = code.encode(msg) + noise
                assert _agree(code, received, *empty) == _agree(code, received)
        code = GabidulinCode.standard(params, 4, 1)  # d - 1 = 3
        for mu, delta in [(2, 1), (0, 3), (3, 0), (2, 2), (0, 4), (4, 0)]:
            for _ in range(20):
                received = MatrixFq.random(q, 4, m, rng)
                rows = random_full_rank_matrix(q, delta, m, rng) if delta else None
                cols = random_full_rank_matrix(q, mu, 4, rng) if mu else None
                got = _agree(code, received, rows, cols)
                if mu + delta > 3:
                    assert got.detail == f"mu+delta = {mu + delta} exceeds d-1 = 3"
                # zero, repeated and dependent rows span the same hint spaces
                noisy = [
                    None if h is None else h.vstack(MatrixFq.zeros(q, 1, h.cols)).vstack(_scrambled(h, rng))
                    for h in (rows, cols)
                ]
                assert _agree(code, received, *noisy) == got


def test_decoder_matches_reference_where_the_key_equation_has_many_solutions(monkeypatch):
    """Codes with tau_max >= 2 and errors of rank 1 .. tau_max - 1, with and
    without a column hint, for q = 2 and q = 3.  The key equation then has a
    nullspace of dimension tau_max - rank + 1 >= 2: the decoder takes one
    solution of it, and the reference tries a whole basis, so they agree only
    if the first solution decides."""
    kernel = gabidulin_mod._ext_null_vector
    dims = []

    def counted(ops, rows, ncols):
        dims.append(len(reference._ext_nullspace(ops, rows, ncols)))
        return kernel(ops, rows, ncols)

    monkeypatch.setattr(gabidulin_mod, "_ext_null_vector", counted)
    rng = SplitMix64(1850)
    decodes = stored = 0
    for q, m, n, k in [(2, 8, 8, 2), (3, 6, 6, 1)]:
        params = FieldParams.default(q, m)
        code = GabidulinCode(params, n, k, random_full_rank_matrix(q, n, m, rng)._row_indices())
        for mu in (0, 1):
            tau_max = (n - k - mu) // 2
            assert tau_max >= 2
            for _ in range(12):
                msg = tuple(rng.randbelow(params.size) for _ in range(k))
                tau = 1 + rng.randbelow(tau_max - 1)
                u = transpose(random_full_rank_matrix(q, tau, n, rng))
                err = u @ random_full_rank_matrix(q, tau, m, rng)
                cols = None
                if mu:
                    cols = random_full_rank_matrix(q, mu, n, rng)
                    err = err + transpose(cols) @ MatrixFq.random(q, mu, m, rng)
                assert _agree(code, code.encode(msg) + err, None, cols) == msg
                decodes += 1
        stored += len(code._key_equation_memo)
    # a projection may lower the error's rank, to 0 at worst (no solve); each
    # system is new, so no memo hit skips the counted null vector
    assert len(dims) == stored >= decodes // 2 and min(dims) >= 2


def test_null_vector_is_the_first_vector_of_the_reference_nullspace():
    """On seeded random homogeneous systems over F_16 and F_9 (square, wide,
    tall, of every rank, and all zero), ``_ext_null_vector`` is None exactly
    when the reference nullspace is empty, and otherwise a nonzero solution
    of every row: the reference's first basis vector, 1 at the first free
    column and 0 past it."""
    for q, m in KERNEL_FIELDS:
        ops = FieldParams.default(q, m).ops
        size = ops.order + 1
        rng = SplitMix64(1900 + 10 * q + m)
        nones = 0
        for nrows, ncols in [(0, 3), (3, 3), (5, 5), (2, 5), (1, 4), (3, 7), (6, 3), (7, 4)]:
            for _ in range(30):
                # combinations of `rank` random rows, half of whose entries are 0
                rank = rng.randbelow(min(nrows, ncols) + 1)
                spanning = [
                    [rng.randbelow(size) if rng.randbelow(2) else 0 for _ in range(ncols)]
                    for _ in range(rank)
                ]
                rows = []
                for _ in range(nrows):
                    coeffs = [rng.randbelow(size) for _ in spanning]
                    terms = [[ops.mul(c, x) for x in row] for c, row in zip(coeffs, spanning)]
                    sums = [functools.reduce(ops.add, col, 0) for col in zip(*terms)]
                    rows.append(sums or [0] * ncols)
                basis = reference._ext_nullspace(ops, rows, ncols)
                vec = gabidulin_mod._ext_null_vector(ops, rows, ncols)
                if not basis:
                    assert vec is None
                    nones += 1
                    continue
                assert vec == basis[0] and any(vec)
                for row in rows:
                    assert functools.reduce(ops.add, map(ops.mul, row, vec), 0) == 0
            zero = [[0] * ncols for _ in range(nrows)]
            assert gabidulin_mod._ext_null_vector(ops, zero, ncols) == [1] + [0] * (ncols - 1)
        assert nones
