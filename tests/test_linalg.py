"""Subspace lattice operations against exhaustive membership oracles."""

import copy
import itertools
import pickle
from bisect import bisect_left
from dataclasses import FrozenInstanceError

import pytest

from lsc import linalg
from lsc.errors import CapacityError, ParameterError
from lsc.linalg import (
    MatrixFq,
    Subspace,
    _check_dims,
    _eliminate,
    _kernel,
    _rank,
    dump_subspace,
    embed,
    intersection,
    parse_subspace,
    random_subspace,
    random_subspace_of,
    rank_distance,
    row_space,
    rref,
    shorten,
    subspace_distance,
    subspace_sum,
)
from lsc.rng import SplitMix64
from rref_reference import full_space, rref_generic, transpose, unit_span, zassenhaus_intersection


def _span_vectors(rows, q, ambient):
    """Oracle: the full set of F_q-combinations of the given rows."""
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vec = [0] * ambient
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                vec[i] = (vec[i] + c * x) % q
        out.add(tuple(vec))
    return out


def _line(q, vector, ambient):
    """The span of one vector."""
    return row_space(MatrixFq(q, 1, ambient, [vector]), ambient)


def test_row_space_example():
    m = MatrixFq(2, 3, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
    s = row_space(m, 4)
    assert s.dim == 2  # third row is the sum of the first two
    assert set(s.vectors()) == _span_vectors(m.entries, 2, 4)


@pytest.mark.parametrize("q", [2, 3, 5, 17])
def test_vectors_enumerate_the_span_in_coefficient_order(q):
    """vectors() yields sum_i c_i b_i over the canonical basis, for c in
    itertools.product order, each vector once."""
    rng = SplitMix64(40 + q)
    for _ in range(20):
        ambient = 1 + rng.randbelow(5)
        space = random_subspace(q, ambient, rng.randbelow(min(ambient, 3) + 1), rng)
        expected = []
        for coeffs in itertools.product(range(q), repeat=space.dim):
            vec = [0] * ambient
            for c, row in zip(coeffs, space.basis.entries):
                vec = [(a + c * b) % q for a, b in zip(vec, row)]
            expected.append(tuple(vec))
        got = list(space.vectors())
        assert got == expected
        assert len(set(got)) == q**space.dim


def test_vectors_checks_the_enumeration_cap_at_the_call():
    """2^21 vectors are more than the enumeration cap: vectors() raises when
    it is called, not at the first read of its iterator."""
    space = full_space(2, 21)
    assert 2**space.dim > linalg._ENUMERATION_CAP
    with pytest.raises(CapacityError, match="too large to enumerate"):
        space.vectors()


def test_row_space_trivial_cases():
    assert row_space(MatrixFq.zeros(2, 3, 4), 4).dim == 0
    # the identity's rows, last first, reduce to the canonical basis of F_2^4
    reversed_identity = MatrixFq(2, 4, 4, [[int(i + j == 3) for j in range(4)] for i in range(4)])
    assert row_space(reversed_identity, 4) == full_space(2, 4)


@pytest.mark.parametrize("q", [2, 3])
def test_full_dimension_draws_leave_the_stream_untouched(q):
    """The whole space and V itself are the only subspaces of their
    dimension: they come back with nothing drawn."""
    for ambient in range(6):
        rng, untouched = SplitMix64(ambient), SplitMix64(ambient)
        whole = random_subspace(q, ambient, ambient, rng)
        assert whole == full_space(q, ambient)
        assert Subspace(ambient, whole.basis) == whole
        assert rng.next64() == untouched.next64()
        v = random_subspace(q, ambient + 2, ambient, rng)
        untouched = copy.copy(rng)
        assert random_subspace_of(v, ambient, rng) is v
        assert rng.next64() == untouched.next64()


def test_sum_examples():
    v = row_space(MatrixFq(2, 1, 3, [[1, 0, 0]]), 3)
    u = row_space(MatrixFq(2, 1, 3, [[0, 1, 0]]), 3)
    both = subspace_sum(v, u)
    assert both.dim == 2
    assert set(both.vectors()) == _span_vectors([(1, 0, 0), (0, 1, 0)], 2, 3)
    assert subspace_sum(v, Subspace.zero(2, 3)) == v
    assert subspace_sum(v, v) == v


def test_intersection_examples():
    a = row_space(MatrixFq(2, 2, 3, [[1, 0, 0], [0, 1, 0]]), 3)
    b = row_space(MatrixFq(2, 2, 3, [[0, 1, 0], [0, 0, 1]]), 3)
    inter = intersection(a, b)
    # oracle: membership of all 8 vectors
    expected = {
        v
        for v in _span_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, 3)
        if subspace_sum(a, _line(2, v, 3)) == a and subspace_sum(b, _line(2, v, 3)) == b
    }
    assert set(inter.vectors()) == expected
    assert inter.basis.entries == ((0, 1, 0),)
    assert intersection(a, a) == a
    assert intersection(a, Subspace.zero(2, 3)).dim == 0


def test_subspace_distance_dimension_arithmetic():
    # dims 7,7 with intersection 5 -> 4 ; dims 7,6 with intersection 5 -> 3
    rng = SplitMix64(5)
    ambient = 11
    while True:
        v = random_subspace(2, ambient, 7, rng)
        inter = random_subspace_of(v, 5, rng)
        rest = random_subspace(2, ambient, 2, rng)
        u = subspace_sum(inter, rest)
        if u.dim == 7 and intersection(v, u) == inter:
            assert subspace_distance(v, u) == 7 + 7 - 2 * 5 == 4
            break
    while True:
        v = random_subspace(2, ambient, 7, rng)
        inter = random_subspace_of(v, 5, rng)
        rest = random_subspace(2, ambient, 1, rng)
        u = subspace_sum(inter, rest)
        if u.dim == 6 and intersection(v, u) == inter:
            assert subspace_distance(v, u) == 7 + 6 - 2 * 5 == 3
            break


def test_metric_and_dimension_identities():
    rng = SplitMix64(6)
    for _ in range(400):
        ambient = rng.randint(1, 9)
        v = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        u = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        w = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        assert subspace_distance(v, v) == 0
        assert subspace_distance(v, u) == subspace_distance(u, v)
        assert subspace_distance(v, w) <= subspace_distance(v, u) + subspace_distance(u, w)
        assert (
            subspace_sum(v, u).dim + intersection(v, u).dim == v.dim + u.dim
        )


def test_nested_subspace_deficiency_bound():
    rng = SplitMix64(7)
    for _ in range(500):
        ambient = rng.randint(1, 11)
        a = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        b = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        a_sub = random_subspace_of(a, rng.randint(0, a.dim), rng)
        assert a.dim - intersection(a, b).dim >= a_sub.dim - intersection(a_sub, b).dim


def test_rank_distance_examples():
    x = MatrixFq(2, 3, 4, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
    zero = MatrixFq.zeros(2, 3, 4)
    assert rank_distance(x, x) == 0
    assert rank_distance(x, zero) == 1
    # oracle: rank = number of distinct nonzero rows in span
    assert len(_span_vectors(x.entries, 2, 4)) == 2  # dim 1
    with pytest.raises(ParameterError):
        rank_distance(x, MatrixFq.zeros(2, 2, 4))


def test_rref_gf2_matches_generic():
    rng = SplitMix64(8)
    for _ in range(200):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 7)
        entries = [[rng.randbelow(2) for _ in range(cols)] for _ in range(rows)]
        fast, fast_p = rref(entries, cols, 2)
        slow, slow_p = rref_generic([list(r) for r in entries], 2)
        assert [list(r) for r in fast] == [list(r) for r in slow]
        assert list(fast_p) == list(slow_p)


def test_canonical_form_is_equality():
    # two different spanning sets of the same space compare equal
    a = row_space(MatrixFq(2, 2, 3, [[1, 1, 0], [0, 1, 1]]), 3)
    b = row_space(MatrixFq(2, 2, 3, [[1, 0, 1], [0, 1, 1]]), 3)
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_validation_rejects_non_canonical():
    with pytest.raises(ParameterError):
        Subspace(3, MatrixFq(2, 2, 3, [[1, 1, 0], [0, 0, 0]]))
    with pytest.raises(ParameterError):
        Subspace(3, MatrixFq(2, 2, 3, [[0, 1, 0], [1, 0, 0]]))


def test_ambient_mismatch_rejected():
    """An operand in another ambient, or in the same ambient over another
    field, is refused by the one membership check."""
    v = full_space(2, 3)
    for u in (full_space(2, 4), full_space(3, 3)):
        for operation in (subspace_sum, intersection, subspace_distance):
            with pytest.raises(ParameterError, match=r"must lie in F_2\^3"):
                operation(v, u)


def test_dump_parse_roundtrip():
    rng = SplitMix64(9)
    for _ in range(50):
        ambient = rng.randint(1, 8)
        v = random_subspace(2, ambient, rng.randint(0, ambient), rng)
        assert parse_subspace(dump_subspace(v), 2) == v
    for _ in range(50):
        ambient = rng.randint(1, 8)
        v = random_subspace(3, ambient, rng.randint(0, ambient), rng)
        assert parse_subspace(dump_subspace(v), 3) == v
    assert dump_subspace(Subspace.zero(2, 5)) == "ambient 5\n"
    for text in (
        "ambient 3\n120\n",  # a digit >= q
        "ambient x\n100\n",  # a header that is not an integer
        "ambient -3\n",
        "ambient 3\n1a0\n",  # a character that is not a digit
        "ambient 3\n1 0\n",
        "ambient 3\n1000\n",  # wrong width
    ):
        with pytest.raises(ParameterError):
            parse_subspace(text, 2)
    assert parse_subspace("ambient 3\n120\n", 3).basis.entries == ((1, 2, 0),)


def test_dump_holds_single_digit_entries_only():
    """Over F_11 the row (1, 10, 3) would dump as 1103 under ``ambient 3``;
    the dump refuses it.  Entries up to 9 still round-trip for any q."""
    wide = row_space(MatrixFq(11, 1, 3, [(1, 10, 3)]), 3)
    with pytest.raises(ParameterError, match="single digits"):
        dump_subspace(wide)
    narrow = row_space(MatrixFq(11, 2, 3, [(1, 0, 9), (0, 1, 4)]), 3)
    assert dump_subspace(narrow) == "ambient 3\n109\n014\n"
    assert parse_subspace(dump_subspace(narrow), 11) == narrow


def test_q3_subspace_operations():
    rng = SplitMix64(10)
    for _ in range(100):
        v = random_subspace(3, 5, rng.randint(0, 5), rng)
        u = random_subspace(3, 5, rng.randint(0, 5), rng)
        assert subspace_sum(v, u).dim + intersection(v, u).dim == v.dim + u.dim
        inter = intersection(v, u)
        assert subspace_sum(v, inter) == v and subspace_sum(u, inter) == u


# --- packed rows against a plain-list reference ---


def _ref_span(rows, q):
    """List reference: the nonzero rows of the generic elimination."""
    reduced, pivots = rref_generic([list(r) for r in rows], q)
    return tuple(tuple(r) for r in reduced[: len(pivots)])


def _ref_intersection(a, b, n, q):
    block = [tuple(r) + tuple(r) for r in a] + [tuple(r) + (0,) * n for r in b]
    return _ref_span([r[n:] for r in _ref_span(block, q) if not any(r[:n])], q)


def _ref_shorten(rows, columns, n, q):
    others = [c for c in range(n) if c not in columns]
    zero_off = [tuple(int(i == c) for i in range(n)) for c in columns]
    inter = _ref_intersection(rows, zero_off, n, q)
    assert all(row[c] == 0 for row in inter for c in others)
    return _ref_span([tuple(row[c] for c in columns) for row in inter], q)


def _ref_embed(rows, columns, n):
    out = []
    for row in rows:
        full = [0] * n
        for c, x in zip(columns, row):
            full[c] = x
        out.append(tuple(full))
    return tuple(out)


def _random_rows(rng, q, nrows, ncols):
    return [[rng.randbelow(q) for _ in range(ncols)] for _ in range(nrows)]


def _block_shapes(n):
    """Every (start, width, tail) in an ambient of n: every gap n - start -
    width - tail, and widths, gaps and tails of 0."""
    for start in range(n + 1):
        for width in range(n - start + 1):
            for tail in range(n - start - width + 1):
                yield start, width, tail


def _assert_block_moves(u, start, width, tail):
    """``shorten`` and ``embed`` on one block shape against the list
    reference, read at the block's columns and then the tail's."""
    q, n = u.q, u.ambient_dim
    columns = list(range(start, start + width)) + list(range(n - tail, n))
    short = shorten(u, start, width, tail)
    assert short.ambient_dim == width + tail
    assert short.basis.entries == _ref_shorten(u.basis.entries, columns, n, q)
    placed = embed(short, start, width, n)
    assert placed.basis.entries == _ref_embed(short.basis.entries, columns, n)
    assert Subspace(n, placed.basis) == placed  # canonical
    assert shorten(placed, start, width, tail) == short


@pytest.mark.parametrize(
    "q, count", [(2, 200), (3, 40), (5, 30), (7, 30), (11, 30), (13, 30), (17, 20)]
)
def test_packed_rows_match_list_reference(q, count):
    """Every operation on stored rows agrees with the list reference (N <= 40).

    q = 2 has one-bit fields, q = 3, 5, 7, 11, 13 one-byte fields and q = 17
    two-byte fields (16 + 16^2 > 255).  q = 13 is the widest one-byte field
    (12 + 12^2 = 156), and the only one whose products reduce after every
    term.
    """
    rng = SplitMix64(40 + q)
    for _ in range(count):
        n = rng.randint(1, 40)
        # mostly short matrices; sometimes enough rows for full rank
        nrows = rng.randint(n, n + 2) if n <= 16 and not rng.randbelow(4) else rng.randint(0, 8)
        a_rows = _random_rows(rng, q, nrows, n)
        b_rows = _random_rows(rng, q, len(a_rows), n)
        c_rows = _random_rows(rng, q, n, rng.randint(0, 6))
        a = MatrixFq(q, len(a_rows), n, a_rows)
        b = MatrixFq(q, len(b_rows), n, b_rows)
        c = MatrixFq(q, n, len(c_rows[0]), c_rows)
        assert a.entries == tuple(map(tuple, a_rows))
        assert (a + b).entries == tuple(
            tuple((x + y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a_rows, b_rows)
        )
        assert (a - b).entries == tuple(
            tuple((x - y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a_rows, b_rows)
        )
        assert (a @ c).entries == tuple(
            tuple(sum(x * row[j] for x, row in zip(ra, c_rows)) % q for j in range(c.cols))
            for ra in a_rows
        )
        assert transpose(a).entries == (tuple(zip(*a_rows)) if a_rows else ((),) * n)
        assert transpose(transpose(a)) == a
        assert a.hstack(b).entries == tuple(tuple(x + y) for x, y in zip(a_rows, b_rows))
        # a zero-width side adds no columns, on either side
        empty = MatrixFq(q, len(a_rows), 0, [()] * len(a_rows))
        assert a.hstack(empty) == a and empty.hstack(a) == a
        assert a.vstack(b).entries == tuple(map(tuple, a_rows + b_rows))
        assert (not any(a._data)) == (not any(map(any, a_rows)))
        reduced, pivots = rref_generic([list(r) for r in a_rows], q)
        got, got_pivots = _eliminate(q, n, a._data)
        got = MatrixFq._unchecked(q, len(got), n, tuple(got))
        assert got.entries == tuple(map(tuple, reduced[: len(pivots)])) and got_pivots == pivots
        assert not any(map(any, reduced[len(pivots) :]))
        assert rref(a_rows, n, q) == (reduced, pivots)
        assert a.rank() == len(pivots)
        kernel = _kernel(q, n, *_eliminate(q, n, a._data))
        assert kernel.rows == n - len(pivots)
        assert not any((a @ transpose(kernel))._data)
        assert kernel.rank() == kernel.rows

        v, u = row_space(a, n), row_space(b, n)
        assert v.basis.entries == _ref_span(a_rows, q)
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v and hash(copy) == hash(v)
        assert subspace_sum(v, u).basis.entries == _ref_span(a_rows + b_rows, q)
        assert intersection(v, u).basis.entries == _ref_intersection(
            v.basis.entries, u.basis.entries, n, q
        )
        probe = tuple(rng.randbelow(q) for _ in range(n))
        spans_probe = _rank(q, n, v.basis._data + MatrixFq(q, 1, n, [probe])._data) == v.dim
        assert spans_probe == (len(_ref_span(a_rows + [probe], q)) == v.dim)
        assert _rank(q, n, v.basis._data + a._data) == v.dim
        assert subspace_sum(subspace_sum(v, u), u) == subspace_sum(v, u)
        assert (subspace_sum(v, u) == v) == (len(_ref_span(a_rows + b_rows, q)) == v.dim)

        start = rng.randint(0, n)
        width = rng.randint(0, n - start)
        _assert_block_moves(u, start, width, rng.randint(0, n - start - width))

    # every block shape in small ambients, on the zero, the full and random spaces
    for n in range(7):
        spaces = [Subspace.zero(q, n), full_space(q, n)]
        spaces += [random_subspace(q, n, rng.randint(0, n), rng) for _ in range(2)]
        for start, width, tail in _block_shapes(n):
            for u in spaces:
                _assert_block_moves(u, start, width, tail)
        # one column too many: the block and the tail do not fit
        u = spaces[-1]
        for start, width, tail in ((n + 1, 0, 0), (0, n + 1, 0), (0, 0, n + 1), (-1, 0, 0)):
            with pytest.raises(ParameterError):
                shorten(u, start, width, tail)
        for start, width in ((1, n), (-1, 0), (0, n + 1)):
            with pytest.raises(ParameterError):
                embed(u, start, width, n)


@pytest.mark.parametrize(
    "q, layers, channel",
    [
        (2, [(3, 3), (2, 1)], ("exact", 1, 1)),  # k = n
        (2, [(4, 2)], ("exact", 1, 1)),  # a single layer
        (2, [(3, 1), (4, 1)], ("exact", "dim", 0)),  # rho = dim V
        (2, [(3, 1), (4, 1)], ("exact", 0, "rest")),  # t = ambient - dim V
        (2, [(3, 1), (4, 1)], ("matrix", 0, 0)),  # matrix mode, 0 packets
        (3, [(2, 1), (2, 1)], ("matrix", 3, 1)),
        (5, [(4, 2), (3, 1)], ("exact", 1, 0)),
        (7, [(3, 1), (2, 1)], ("matrix", 4, 1)),
        (2, [(2, 1), (3, 1), (2, 1)], ("exact", 1, 1)),  # a layer between two others
    ],
)
def test_edge_shapes_match_list_reference(q, layers, channel):
    """Trials at the edge shapes: every space the decoders build is the list reference's."""
    from lsc.channel import ChannelSpec, make_trial
    from lsc.field import DEFAULT_MODULI, FieldParams
    from lsc.layered import LayeredCode
    from lsc.lifted import lift

    m = 4 if (q, 4) in DEFAULT_MODULI else 3  # there is no (7, 4) default modulus
    code = LayeredCode.standard(FieldParams.default(q, m), layers)
    n = code.ambient_dim
    mode, first, second = channel
    for seed in range(6):
        if mode == "exact":
            rho = code.total_length if first == "dim" else first
            t = code.params.m if second == "rest" else second
            word, outcome = make_trial(code, seed, ChannelSpec(rho=rho, t=t))
            assert outcome.U.dim == code.total_length - rho + t
        else:
            word, outcome = make_trial(code, seed, collected=first, error_packets=second)
        assert word.V.basis.entries == _ref_span(word.V.basis.entries, q)
        assert outcome.U.basis.entries == _ref_span(outcome.U.basis.entries, q)
        for layer, (offset, inner) in enumerate(zip(code.offsets, code.layers), 1):
            columns = list(range(offset, offset + inner.n)) + list(range(code.total_length, n))
            extracted = code.extract_component(outcome.U, layer)
            assert extracted.basis.entries == _ref_shorten(outcome.U.basis.entries, columns, n, q)
        for report in (
            code.decode_alg1(outcome.U),
            code.decode_alg2(outcome.U),
            code.decode_alg2(outcome.U, iterative=True),
        ):
            placed = []
            for offset, inner, result in zip(code.offsets, code.layers, report.layers):
                columns = list(range(offset, offset + inner.n))
                columns += list(range(code.total_length, n))
                if result.matrix is not None:  # a failed layer places nothing
                    placed += _ref_embed(lift(inner, result.matrix).basis.entries, columns, n)
            assert report.recombined.basis.entries == _ref_span(placed, q)
            for space in report.accumulated:
                assert space.basis.entries == _ref_span(space.basis.entries, q)
        if mode == "exact" and 2 * (rho + t) < code.min_distance():
            assert code.decode_alg1(outcome.U).recombined == word.V


def test_checked_constructors_reject_malformed_input():
    for args in (
        (2, 1, 2, ((0, 2),)),  # entry out of range
        (3, 1, 2, ((0, -1),)),
        (2, 2, 2, ((0, 1), (1,))),  # ragged rows
        (2, 2, 2, ((0, 1),)),  # row count
        (1, 0, 0, ()),  # q < 2
        (2, -1, 2, ()),
    ):
        with pytest.raises(ParameterError):
            MatrixFq(*args)
    for q, ambient, rows in (
        (2, 3, ((1, 1, 0), (0, 0, 0))),  # zero row
        (2, 3, ((0, 1, 0), (1, 0, 0))),  # not echelon
        (2, 3, ((1, 1, 0), (0, 1, 0))),  # pivot column not elsewhere zero
        (3, 2, ((2, 0),)),  # pivot entry not 1
        (2, 4, ((1, 0, 0),)),  # width
        (2, 1, ((1,), (1,))),  # more rows than the ambient
    ):
        with pytest.raises(ParameterError):
            Subspace(ambient, MatrixFq(q, len(rows), len(rows[0]), rows))


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_is_a_frozen_slotted_value(q):
    """A matrix is frozen and slotted, compares and hashes by its stored
    rows whether or not its ``entries`` cache is filled, and pickles whole
    with that cache empty."""
    rows = ((1, 0, q - 1), (0, 1, 1))
    checked = MatrixFq(q, 2, 3, rows)
    for name in ("q", "_data"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(checked, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(checked, name)
    assert not hasattr(checked, "__dict__")
    assert tuple(MatrixFq.__slots__) == ("q", "rows", "cols", "_data", "_entries")
    for read in (False, True):
        unchecked = MatrixFq._unchecked(q, 2, 3, checked._data)
        if read:
            assert unchecked.entries == rows
        assert unchecked == checked and hash(unchecked) == hash(checked)
    assert checked.__eq__(checked.entries) is NotImplemented
    lazy = MatrixFq._unchecked(q, 2, 3, checked._data)
    assert pickle.loads(pickle.dumps(lazy)) == lazy


@pytest.mark.parametrize("q", [2, 3, 5, 7, 17])
def test_subspace_distance_is_the_rank_of_the_stacked_bases(q):
    """Rank-only distance against 2 dim(V+U) - dim V - dim U and the intersection."""
    rng = SplitMix64(70 + q)
    for _ in range(300 if q == 2 else 120):
        ambient = rng.randint(1, 12 if q == 2 else 7)
        v = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        if rng.randbelow(3):
            u = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        else:  # overlapping pairs
            inside = random_subspace_of(v, rng.randint(0, v.dim), rng)
            outside = random_subspace(q, ambient, rng.randint(0, min(2, ambient)), rng)
            u = subspace_sum(inside, outside)
        expected = 2 * subspace_sum(v, u).dim - v.dim - u.dim
        assert subspace_distance(v, u) == expected
        assert expected == v.dim + u.dim - 2 * intersection(v, u).dim
    for ambient in (1, 5):
        zero, full = Subspace.zero(q, ambient), full_space(q, ambient)
        some = random_subspace(q, ambient, 2 if ambient > 2 else 1, rng)
        assert subspace_distance(zero, zero) == 0
        assert subspace_distance(full, full) == 0
        assert subspace_distance(zero, full) == ambient
        assert subspace_distance(zero, some) == some.dim
        assert subspace_distance(some, full) == ambient - some.dim


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_intersection_matches_the_full_zassenhaus_elimination(q):
    """``intersection`` back-substitutes only the forward-pass rows with a
    zero left half; the full elimination of the block gives the same basis."""
    rng = SplitMix64(90 + q)
    pairs = []
    for _ in range(150 if q == 2 else 60):
        ambient = rng.randint(1, 12 if q == 2 else 7)
        v = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        u = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        inside = random_subspace_of(v, rng.randint(0, v.dim), rng)
        pairs += [(v, u), (v, inside), (inside, v), (v, v)]
    for ambient in (1, 4, 7):
        some = random_subspace(q, ambient, rng.randint(1, ambient), rng)
        for other in (Subspace.zero(q, ambient), full_space(q, ambient)):
            pairs += [(some, other), (other, some), (other, other)]
        # a trivial intersection: complementary coordinate spans
        half = ambient // 2
        low, high = unit_span(q, ambient, range(half)), unit_span(q, ambient, range(half, ambient))
        pairs += [(low, high), (high, low)]
    trivial = 0
    for v, u in pairs:
        expected = zassenhaus_intersection(v, u)
        assert intersection(v, u) == expected
        trivial += expected.dim == 0 < min(v.dim, u.dim)
    assert trivial


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_row_index_bridge_matches_coords(q):
    """MatrixFq._from_indices / _row_indices agree with field.coords_of / index_of."""
    from lsc.field import coords_of, index_of

    rng = SplitMix64(80 + q)
    for m in range(1, 13):
        size = q**m
        if size > 1 << 16:
            break
        indices = [0, 1, size - 1, size // q] + [rng.randbelow(size) for _ in range(40)]
        matrix = MatrixFq._from_indices(q, m, indices)
        assert (matrix.rows, matrix.cols) == (len(indices), m)
        assert matrix.entries == tuple(coords_of(i, q, m) for i in indices)
        assert matrix == MatrixFq(q, len(indices), m, [coords_of(i, q, m) for i in indices])
        assert matrix._row_indices() == indices
        rows = _random_rows(rng, q, 12, m)
        checked = MatrixFq(q, len(rows), m, rows)
        assert checked._row_indices() == [index_of(row, q) for row in rows]
        assert MatrixFq._from_indices(q, m, checked._row_indices()) == checked
    assert MatrixFq._from_indices(2, 16, [1, 1 << 15]).entries == (
        (1,) + (0,) * 15, (0,) * 15 + (1,)
    )
    assert MatrixFq._from_indices(q, 3, []) == MatrixFq.zeros(q, 0, 3)


# --- results read off the canonical basis, and the packed draws ---


def _eliminating_shorten(u, start, width, tail):
    """``shorten`` with no gap and no shortcut: eliminate the basis again and
    keep the rows that pivot past the first ``start`` columns."""
    q, n = u.q, u.ambient_dim
    reduced, pivots = _eliminate(q, n, u.basis._data)
    return Subspace._unchecked(q, width + tail, reduced[bisect_left(pivots, start) :])


def _block_test_spaces(q, n, rng):
    """The zero and full spaces, random spaces of every dimension, and spaces
    that lie in the trailing columns (every pivot before them erased)."""
    spaces = [Subspace.zero(q, n), full_space(q, n)]
    spaces += [random_subspace(q, n, dim, rng) for dim in range(n + 1)]
    for width in range(n + 1):
        inner = random_subspace(q, width, rng.randint(0, width), rng)
        spaces.append(embed(inner, 0, 0, n))
    return spaces


@pytest.mark.parametrize(
    "q, ambients", [(2, (1, 7, 16)), (3, (5, 13)), (5, (4, 9)), (7, (6,)), (17, (5,))]
)
def test_block_shortcuts_match_the_eliminating_path(monkeypatch, q, ambients):
    """With no gap (start + width + tail = ambient) ``shorten`` reads the
    canonical basis: it equals the eliminating path at every split of the
    kept columns into block and tail, 0 columns and the whole ambient
    included, and runs no elimination or forward pass."""
    rng = SplitMix64(90 + q)
    cases = []
    for n in ambients:
        for u in _block_test_spaces(q, n, rng):
            for start in range(n + 1):
                for width in range(n - start + 1):
                    tail = n - start - width
                    short = _eliminating_shorten(u, start, width, tail)
                    cases.append((u, (start, width, tail), short))

    def no_elimination(*args):
        raise AssertionError("an elimination ran where the canonical basis answers")

    for name in ("_eliminate", "_rank", "_echelon_gf2", "_echelon_odd"):
        monkeypatch.setattr(linalg, name, no_elimination)
    for u, block, short in cases:
        got = shorten(u, *block)
        assert got == short and got.ambient_dim == block[1] + block[2]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 17])
def test_random_rows_match_the_entry_by_entry_draws(q):
    """``MatrixFq.random`` packs one batch of draws: its rows, its entries
    and the generator state after it are those of building the matrix entry
    by entry from the same batch, with 0 rows and 0 columns included."""

    def entry_by_entry(q, rows, cols, rng):
        _check_dims(q, rows, cols)
        draws = iter(rng.randbelow_many(q, rows * cols))
        entries = tuple(tuple(itertools.islice(draws, cols)) for _ in range(rows))
        return MatrixFq(q, rows, cols, entries)

    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 40), (12, 12), (3, 24), (7, 3)]
    for seed in range(10):
        for rows, cols in shapes:
            mine, theirs = SplitMix64(seed), SplitMix64(seed)
            got, want = MatrixFq.random(q, rows, cols, mine), entry_by_entry(q, rows, cols, theirs)
            assert got._data == want._data and got.entries == want.entries
            assert (got.rows, got.cols) == (rows, cols)
            assert mine._state == theirs._state
