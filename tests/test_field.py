"""Finite-field arithmetic against independent schoolbook oracles."""

import itertools

import pytest

from lsc.errors import ParameterError
from lsc.field import DEFAULT_MODULI, ExtFieldElement, FieldParams, coords_of, index_of
from lsc.rng import SplitMix64


def _poly_mul_mod(a, b, modulus, q):
    """In-test oracle: schoolbook multiply then long division by modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % q
    deg_m = len(modulus) - 1
    while len(prod) > deg_m:
        lead = prod[-1]
        if lead:
            shift = len(prod) - 1 - deg_m
            for i, c in enumerate(modulus):
                prod[shift + i] = (prod[shift + i] - lead * c) % q
        prod.pop()
    prod += [0] * (deg_m - len(prod))
    return tuple(prod)


def _elements(params):
    return [params.from_index(i) for i in range(params.size)]


def test_add_examples(fp24):
    a = ExtFieldElement(fp24, (1, 1, 0, 0))  # 1 + x
    b = ExtFieldElement(fp24, (0, 1, 1, 0))  # x + x^2
    assert (a + b).coords == (1, 0, 1, 0)  # XOR oracle
    assert a + fp24.from_index(0) == a
    assert (a + a).coords == (0, 0, 0, 0)  # characteristic 2


def test_mul_examples(fp24):
    alpha = ExtFieldElement(fp24, (0, 1, 0, 0))
    assert (alpha * alpha * alpha * alpha).coords == (1, 1, 0, 0)  # x^4 = x + 1
    x = ExtFieldElement(fp24, (1, 0, 1, 1))
    one = fp24.from_index(1)
    assert x * one == x
    assert x * x.inverse() == one


def test_mul_matches_schoolbook_oracle(fp24):
    elements = _elements(fp24)
    for a in elements:
        for b in elements:
            expected = _poly_mul_mod(list(a.coords), list(b.coords), fp24.modulus, 2)
            assert (a * b).coords == expected


def _digits(index, q, m):
    """In-test oracle: base-q digits of an element index, least significant first."""
    return tuple(index // q**i % q for i in range(m))


def _check_int_path(params, seed):
    """Index arithmetic against coordinate-wise oracles: every pair of
    elements up to 2^8 elements, 2000 seeded random pairs above that."""
    q, m, size, modulus = params.q, params.m, params.size, params.modulus
    ops = params.ops
    if size <= 1 << 8:
        pairs = [(a, b) for a in range(size) for b in range(size)]
    else:
        rng = SplitMix64(seed)
        pairs = [(rng.randbelow(size), rng.randbelow(size)) for _ in range(2000)]
    one = _digits(1, q, m)
    for a, b in pairs:
        ca, cb = _digits(a, q, m), _digits(b, q, m)
        assert _digits(ops.mul(a, b), q, m) == _poly_mul_mod(ca, cb, modulus, q)
        assert _digits(ops.add(a, b), q, m) == tuple((x + y) % q for x, y in zip(ca, cb))
        assert _digits(ops.sub(a, b), q, m) == tuple((x - y) % q for x, y in zip(ca, cb))
    for a in sorted({a for pair in pairs for a in pair}):
        coords = _digits(a, q, m)
        assert coords_of(a, q, m) == coords and index_of(coords, q) == a
        if a:
            assert _poly_mul_mod(coords, _digits(ops.inv(a), q, m), modulus, q) == one
        power = coords  # a^(q^i), by q - 1 schoolbook products per step
        for i in range(m):
            assert _digits(ops.frob(a, i), q, m) == power
            step = power
            for _ in range(q - 1):
                step = _poly_mul_mod(step, power, modulus, q)
            power = step
        assert power == coords  # a^(q^m) = a


@pytest.mark.parametrize("q, m", sorted(DEFAULT_MODULI))
def test_int_path_matches_oracles(q, m):
    _check_int_path(FieldParams.default(q, m), seed=100 * q + m)


def test_int_path_with_non_primitive_modulus():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1, so x has order 5, not 15
    params = FieldParams(2, 4, (1, 1, 1, 1, 1))
    x = index_of((0, 1, 0, 0), 2)
    powers = itertools.accumulate([x] * 5, params.ops.mul)  # x, x^2, ..., x^5
    assert [p == 1 for p in powers] == [False] * 4 + [True]
    _check_int_path(params, seed=5)


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2), (7, 2), (2, 12)])
def test_zero_sentinel_tables(q, m):
    """zexp[zlog[a] + zlog[b]] is the schoolbook product, zeros included: every
    pair in fields of up to 49 elements, 3000 seeded pairs and zeros above."""
    params = FieldParams.default(q, m)
    ops, size, order = params.ops, params.size, params.size - 1
    assert ops.zlog[0] == 2 * order
    assert len(ops.zexp) == 4 * order + 1 and not any(ops.zexp[2 * order :])
    if size <= 49:
        pairs = [(a, b) for a in range(size) for b in range(size)]
    else:
        rng = SplitMix64(size)
        pairs = [(rng.randbelow(size), rng.randbelow(size)) for _ in range(3000)]
        pairs += [(0, 0), (0, 1), (order, 0)]
    zero = (0,) * m
    for a, b in pairs:
        ca, cb = _digits(a, q, m), _digits(b, q, m)
        expected = _poly_mul_mod(ca, cb, params.modulus, q) if a and b else zero
        assert _digits(ops.zexp[ops.zlog[a] + ops.zlog[b]], q, m) == expected


def test_inverse_by_exhaustive_search(fp24):
    alpha, one = ExtFieldElement(fp24, (0, 1, 0, 0)), fp24.from_index(1)
    nonzero = _elements(fp24)[1:]
    # oracle: scan the 15 nonzero elements for the product 1
    matches = [e for e in nonzero if alpha * e == one]
    assert matches == [alpha.inverse()]
    assert alpha.inverse().coords == (1, 0, 0, 1)  # 1 + x^3
    assert one.inverse() == one
    for e in nonzero:
        assert e.inverse().inverse() == e


def test_inverse_of_zero_raises(fp24):
    with pytest.raises(ZeroDivisionError):
        fp24.from_index(0).inverse()


def test_frobenius(fp24):
    for e in _elements(fp24):
        assert e.frobenius(0) == e
        assert e.frobenius(fp24.m) == e
        assert e.frobenius(1) == e * e  # q = 2: squaring
    a, b = fp24.from_index(11), fp24.from_index(6)
    assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)


def test_axioms_random(fp24):
    rng = SplitMix64(17)
    for _ in range(2000):
        a = fp24.from_index(rng.randbelow(16))
        b = fp24.from_index(rng.randbelow(16))
        c = fp24.from_index(rng.randbelow(16))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_coords_bijection_small_fields():
    for m in range(1, 9):
        params = FieldParams.default(2, m)
        seen = set()
        for idx in range(params.size):
            e = params.from_index(idx)
            assert e.to_index() == idx
            seen.add(e.coords)
        assert len(seen) == params.size


def test_default_moduli_all_construct():
    for (q, m) in DEFAULT_MODULI:
        params = FieldParams.default(q, m)
        assert params.modulus[-1] == 1


def test_q3_field_arithmetic():
    params = FieldParams.default(3, 3)
    one = params.from_index(1)
    for e in _elements(params):
        assert e.frobenius(1) == e * e * e
        if e.to_index():
            assert e * e.inverse() == one


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        FieldParams(4, 2, (1, 1, 1))  # q must be prime in this release
    with pytest.raises(ParameterError):
        FieldParams(2, 4, (1, 1, 1))  # wrong degree
    with pytest.raises(ParameterError):
        FieldParams(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4 is reducible
    with pytest.raises(ParameterError):
        FieldParams.default(2, 99)
    # at most 2^16 elements: x^16+x^5+x^3+x^2+1 is accepted, x^17+x^3+1 is not
    FieldParams(2, 16, tuple(int(i in (0, 2, 3, 5, 16)) for i in range(17)))
    with pytest.raises(ParameterError):
        FieldParams(2, 17, tuple(int(i in (0, 3, 17)) for i in range(18)))


def test_irreducibility_check_runs_once_per_field(monkeypatch):
    """The table build is the check, once per field: a rebuilt field builds
    no second table, and a reducible modulus raises every time."""
    from lsc import field

    field._field_ops.cache_clear()
    builds = []
    powers = field._generator_powers
    monkeypatch.setattr(
        field, "_generator_powers", lambda *args: builds.append(args) or powers(*args)
    )
    first = FieldParams(2, 12, DEFAULT_MODULI[(2, 12)])
    assert builds == [(2, 12, first.modulus)]
    assert FieldParams.default(2, 12) == first
    assert FieldParams(2, 12, first.modulus) == first
    assert first.ops.mul(2, 3) == 6
    assert len(builds) == 1
    builds.clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match=r"^modulus \(1, 0, 0, 0, 1\) is reducible over F_2$"):
            FieldParams(2, 4, (1, 0, 0, 0, 1))
        # 2x^2 + 1 = 2(x + 1)(x + 2), normalised to x^2 + 2
        with pytest.raises(ParameterError, match=r"^modulus \(2, 0, 1\) is reducible over F_3$"):
            FieldParams(3, 2, (1, 0, 2))
    assert len(builds) == 4


def _poly_rem(a, b, q):
    """In-test oracle: the remainder of a mod a monic b over F_q."""
    rem = list(a)
    while len(rem) >= len(b):
        lead = rem[-1]
        shift = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - lead * c) % q
        rem.pop()
    return rem


def _irreducible_by_trial_division(modulus, q):
    """In-test oracle: no monic polynomial of degree 1..m/2 divides the
    monic modulus."""
    m = len(modulus) - 1
    for deg in range(1, m // 2 + 1):
        for lower in itertools.product(range(q), repeat=deg):
            if not any(_poly_rem(modulus, lower + (1,), q)):
                return False
    return True


@pytest.mark.parametrize("q, max_m", [(2, 8), (3, 4), (5, 3), (7, 3)])
def test_field_check_matches_trial_division(q, max_m):
    """Every monic modulus up to degree ``max_m``: the field accepts exactly
    the moduli trial division finds irreducible, and refuses the rest."""
    accepted = refused = 0
    for m in range(1, max_m + 1):
        for lower in itertools.product(range(q), repeat=m):
            modulus = lower + (1,)
            if _irreducible_by_trial_division(modulus, q):
                assert FieldParams(q, m, modulus).modulus == modulus
                accepted += 1
            else:
                with pytest.raises(ParameterError) as err:
                    FieldParams(q, m, modulus)
                assert str(err.value) == f"modulus {modulus} is reducible over F_{q}"
                refused += 1
    assert accepted and refused


def _poly(*exponents):
    """The F_2 polynomial with these exponents, constant term first."""
    return tuple(int(i in exponents) for i in range(max(exponents) + 1))


@pytest.mark.parametrize(
    "modulus, factor",
    [
        # (x^8 + x^4 + x^3 + x^2 + 1)^2, squared term by term over F_2
        (_poly(16, 8, 6, 4, 0), _poly(8, 4, 3, 2, 0)),
        # x^16 + 1 = (x + 1)^16
        (_poly(16, 0), _poly(1, 0)),
    ],
    ids=["square-of-degree-8", "x16-plus-1"],
)
def test_reducible_degree_16_products_are_refused(modulus, factor):
    assert not any(_poly_rem(modulus, factor, 2))
    with pytest.raises(ParameterError, match=r"is reducible over F_2$"):
        FieldParams(2, 16, modulus)


def test_mismatched_fields_rejected(fp24):
    other = FieldParams.default(2, 3)
    with pytest.raises(ParameterError):
        fp24.from_index(1) + other.from_index(1)
    with pytest.raises(ParameterError):
        fp24.from_index(1) * other.from_index(1)
