"""Finite-field arithmetic against independent schoolbook oracles."""

import pytest

from lsc.errors import ParameterError
from lsc.field import DEFAULT_MODULI, FieldParams, coords_of, index_of
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


def test_add_examples(fp24):
    a = fp24.element([1, 1, 0, 0])  # 1 + x
    b = fp24.element([0, 1, 1, 0])  # x + x^2
    assert (a + b).coords == (1, 0, 1, 0)  # XOR oracle
    assert a + fp24.zero() == a
    assert (a + a).is_zero()  # characteristic 2


def test_mul_examples(fp24):
    alpha = fp24.alpha()
    assert (alpha**3 * alpha).coords == (1, 1, 0, 0)  # x^4 = x + 1
    x = fp24.element([1, 0, 1, 1])
    assert x * fp24.one() == x
    assert x * x.inverse() == fp24.one()


def test_mul_matches_schoolbook_oracle(fp24):
    for a in fp24.elements():
        for b in fp24.elements():
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
    alpha, one = params.alpha(), params.one()
    assert [alpha**k == one for k in range(1, 6)] == [False] * 4 + [True]
    _check_int_path(params, seed=5)


def test_inverse_by_exhaustive_search(fp24):
    alpha = fp24.alpha()
    # oracle: scan the 15 nonzero elements for the product 1
    matches = [
        e for e in fp24.elements() if not e.is_zero() and (alpha * e) == fp24.one()
    ]
    assert matches == [alpha.inverse()]
    assert alpha.inverse().coords == (1, 0, 0, 1)  # 1 + x^3
    assert fp24.one().inverse() == fp24.one()
    for e in fp24.elements():
        if not e.is_zero():
            assert e.inverse().inverse() == e


def test_inverse_of_zero_raises(fp24):
    with pytest.raises(ZeroDivisionError):
        fp24.zero().inverse()


def test_frobenius(fp24):
    for e in fp24.elements():
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
    one = params.one()
    for e in params.elements():
        assert e.frobenius(1) == e**3
        if not e.is_zero():
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


def test_mismatched_fields_rejected(fp24):
    other = FieldParams.default(2, 3)
    with pytest.raises(ParameterError):
        fp24.one() + other.one()
    with pytest.raises(ParameterError):
        fp24.one() * other.one()
