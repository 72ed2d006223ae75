"""Arithmetic in the prime field F_q and the extension field F_{q^m}.

Base-field elements are plain ints in ``range(q)``.  An extension-field
element has coordinates in the polynomial basis 1, a, ..., a^(m-1),
constant term first, where ``a`` is a root of the defining modulus.  Its
*index* is the int whose base-q digits, least significant first, are
those coordinates (``coords_of`` and ``index_of`` convert).  ``q`` must
be prime in this release, and a field has at most 2^16 elements.

All arithmetic runs on indices, in ``FieldOps``.  Products, inverses
and the Frobenius map x -> x^(q^i) are lookups in log/antilog
tables over a primitive element g.  g is found by search: the modulus is
only required to be irreducible, so ``a`` need not generate the
multiplicative group.  The log/antilog pair carries a zero sentinel:
the logarithm of 0 is 2(q^m - 1), and the antilog table is 0 from that
index on, so a product, or a product with a power of g, is one lookup
with no test for zero.  Kernels that multiply many elements by one
(``gabidulin``'s elimination, evaluation and division) add logarithms
directly.  Addition is XOR for q = 2; for odd q it goes through a
Zech-log table, log(1 + g^k).  The tables are built when a
``FieldParams`` is constructed, once per field per process, and held by
the module-level ``_field_ops`` cache, never by a ``FieldParams``, which
stays small and pickles by value (an unpickled copy builds them on first
use).  That build is the irreducibility test: the q^m - 1 powers of g
are distinct and nonzero exactly when the modulus is irreducible (see
``_generator_powers``), so no trial division runs.

The codes speak indices too: a message, an evaluation point and a
decoded message are tuples of element indices in [0, q^m), and so do
the field's own property checks (``properties.field_suite``).
``ExtFieldElement``, the coordinate-tuple type, is no part of that path:
it stays only as a public name (see its docstring).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import ParameterError

# Largest supported field.  The tables hold about six entries per
# element, so 2^16 elements cost a few MB; 2^24 would cost over 1 GB.
_MAX_FIELD_SIZE = 1 << 16

# Default modulus per (q, m): the monic irreducible of degree m over F_q
# with the fewest nonzero terms, ties broken by the ascending list of
# exponents carrying nonzero coefficients, then by coefficient values.
# Listed constant term first (e.g. x^4+x+1 for q=2, m=4).  Overridable
# everywhere a FieldParams is built.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 1, 0, 0, 0, 0, 1, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (1, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 1): (1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
}


# --- polynomial helpers over F_q (coefficient lists, constant term first) ---


def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def coords_of(index: int, q: int, m: int) -> tuple[int, ...]:
    """The m base-q digits of an element index, least significant first."""
    out = []
    for _ in range(m):
        index, digit = divmod(index, q)
        out.append(digit)
    return tuple(out)


def index_of(coords: Sequence[int], q: int) -> int:
    """The element index whose base-q digits are ``coords``."""
    idx = 0
    for c in reversed(coords):
        idx = idx * q + c
    return idx


def _too_many(q: int, m: int) -> ParameterError:
    return ParameterError(
        f"q^m = {q}^{m} elements is too many; "
        f"at most 2^16 = {_MAX_FIELD_SIZE} are supported"
    )


def _check_q(q: int, m: int) -> None:
    """Refuse a q that is not prime.  q^m <= 2^16 bounds q, so a larger q
    is refused for its size first, and the prime test (``_prime_factors``,
    the generator search's own) runs at most 256 trial divisions."""
    if q > _MAX_FIELD_SIZE:
        raise _too_many(q, m)
    if _prime_factors(q) != [q]:
        raise ParameterError(f"q must be prime in this release, got {q}")


@dataclass(frozen=True)
class FieldParams:
    """Defines F_{q^m}: prime q, extension degree m, irreducible modulus.

    The modulus is a degree-m coefficient tuple, constant term first, and
    is normalized to be monic.  Instances are immutable and safe to share
    across workers.
    """

    q: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_q(self.q, self.m)
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        # m > 16 short-cuts q^m for absurd m (q >= 2)
        if self.m > 16 or self.q**self.m > _MAX_FIELD_SIZE:
            raise _too_many(self.q, self.m)
        mod = _poly_trim(tuple(c % self.q for c in self.modulus))
        if len(mod) != self.m + 1:
            raise ParameterError(
                f"modulus must have degree exactly {self.m}, got degree {len(mod) - 1}"
            )
        if mod[-1] != 1:
            inv = pow(mod[-1], -1, self.q)
            mod = tuple((c * inv) % self.q for c in mod)
        object.__setattr__(self, "modulus", mod)
        # building the tables is the irreducibility test (``_generator_powers``)
        _field_ops(self.q, self.m, mod)

    @classmethod
    def default(cls, q: int, m: int) -> "FieldParams":
        _check_q(q, m)
        try:
            modulus = DEFAULT_MODULI[(q, m)]
        except KeyError:
            raise ParameterError(
                f"no built-in modulus for (q={q}, m={m}); supply one explicitly"
            ) from None
        return cls(q, m, modulus)

    @property
    def size(self) -> int:
        return self.q**self.m

    @property
    def ops(self) -> "FieldOps":
        """Arithmetic on element indices, shared per process: built when the
        field is constructed, or on first use by an unpickled copy."""
        return _field_ops(self.q, self.m, self.modulus)

    def from_index(self, index: int) -> "ExtFieldElement":
        """Element whose coordinates are the base-q digits of index."""
        if not 0 <= index < self.size:
            raise ParameterError(f"index {index} outside [0, {self.size})")
        return ExtFieldElement(self, coords_of(index, self.q, self.m))


# --- arithmetic on indices ---


class FieldOps:
    """Arithmetic of one F_{q^m} on element indices (see the module docstring).

    ``zlog`` and ``zexp`` are the log/antilog pair with a zero sentinel:
    ``zlog[a]`` is the logarithm of a nonzero a and ``zlog[0]`` is
    2(q^m - 1); ``zexp[i]`` is g^i for 0 <= i < 2(q^m - 1) and 0 from
    there on.  So ``zexp[zlog[a] + zlog[b]]`` is a * b for every a and b,
    zero or not, and ``zexp[zlog[a] + e]`` is a * g^e for 0 <= e <= q^m - 1.
    ``order`` is q^m - 1, ``qpow[i]`` is q^i mod (q^m - 1) (the Frobenius
    map multiplies logarithms by it) and ``minus_one`` is the logarithm of
    -1.  ``add`` and ``sub`` are chosen per characteristic: XOR for q = 2,
    Zech logarithms for odd q.
    """

    __slots__ = ("q", "m", "zexp", "zlog", "zech", "add", "sub", "order", "qpow", "minus_one")

    def __init__(self, q: int, m: int, modulus: tuple[int, ...]) -> None:
        self.q, self.m = q, m
        order = q**m - 1
        powers = _generator_powers(q, m, modulus)
        # indices up to zlog[0] + zlog[0] = 4 * order
        self.zexp = powers + powers + [0] * (2 * order + 1)
        self.zlog = [2 * order] * (order + 1)
        for i, a in enumerate(powers):
            self.zlog[a] = i
        self.order = order
        self.qpow = [q**i % order for i in range(m)]
        # -1 = g^((q^m - 1) / 2) for odd q, and 1 = g^0 for q = 2
        self.minus_one = 0 if q == 2 else order // 2
        if q == 2:
            self.zech = None
            self.add = self.sub = operator.xor
        else:
            # zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0; adding 1
            # changes only the lowest digit of an index
            self.zech = []
            for a in powers:
                low = a % q
                plus_one = a - low + (low + 1) % q
                self.zech.append(self.zlog[plus_one] if plus_one else -1)
            self.add = self._add_odd
            self.sub = self._sub_odd

    def mul(self, a: int, b: int) -> int:
        return self.zexp[self.zlog[a] + self.zlog[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.zexp[self.order - self.zlog[a]]

    def frob(self, a: int, i: int) -> int:
        """a^(q^i); F_q-linear in a, periodic in i with period m."""
        if a:
            return self.zexp[self.zlog[a] * self.qpow[i % self.m] % self.order]
        return 0

    def _add_logs(self, la: int, lb: int) -> int:
        """g^la + g^lb = g^la * (1 + g^(lb - la))."""
        z = self.zech[(lb - la) % self.order]
        return self.zexp[la + z] if z >= 0 else 0

    def _add_odd(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        return self._add_logs(self.zlog[a], self.zlog[b])

    def _sub_odd(self, a: int, b: int) -> int:
        if not b:
            return a
        lb = self.zlog[b] + self.minus_one
        if not a:
            return self.zexp[lb]
        return self._add_logs(self.zlog[a], lb)


# Caches only tables that were built: a reducible modulus raises every time.
@lru_cache(maxsize=16)
def _field_ops(q: int, m: int, modulus: tuple[int, ...]) -> FieldOps:
    return FieldOps(q, m, modulus)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _digit_add(a: int, b: int, q: int) -> int:
    """Sum of two indices, digit by digit mod q."""
    if q == 2:
        return a ^ b
    out, place = 0, 1
    while a or b:
        a, da = divmod(a, q)
        b, db = divmod(b, q)
        out += (da + db) % q * place
        place *= q
    return out


def _generator_powers(q: int, m: int, modulus: tuple[int, ...]) -> list[int]:
    """[g^0, ..., g^(q^m - 2)] as indices, g the primitive element of least index.

    g is primitive when g^((q^m - 1) / p) != 1 for every prime p dividing
    q^m - 1.  Products here are shift-and-add on indices; they run only
    while the tables are built.

    The list is the irreducibility test: F_q[x]/(f) is a field iff its
    q^m - 1 nonzero elements are units, so a reducible f has fewer units.
    A unit's powers return to 1 early; a non-unit's never do and stay
    among the non-units, so they repeat or reach 0.  Either way the q^m - 1
    powers are not distinct and nonzero, and the modulus is refused.  The
    search stops at the latest at f's lowest-degree factor, a non-unit.
    """
    size = q**m
    order = size - 1
    top = size // q
    # wrap[c] is the index of c * x^m mod the modulus: -c * (its lower terms)
    wrap = [
        index_of([(-c * coef) % q for coef in modulus[:m]], q) for c in range(q)
    ]

    def times_x(a: int) -> int:
        high, low = divmod(a, top)
        return _digit_add(low * q, wrap[high], q)

    def times(a: int, b: int) -> int:
        digits = []
        while b:
            b, digit = divmod(b, q)
            digits.append(digit)
        out = 0
        for digit in reversed(digits):
            out = times_x(out)
            for _ in range(digit):
                out = _digit_add(out, a, q)
        return out

    def power(a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = times(out, a)
            a = times(a, a)
            e >>= 1
        return out

    primes = _prime_factors(order)
    g = next(
        c for c in range(1, size) if all(power(c, order // p) != 1 for p in primes)
    )
    powers = [1]
    for _ in range(order - 1):
        powers.append(times(powers[-1], g))
    if 0 in powers or len(set(powers)) != order:
        raise ParameterError(f"modulus {modulus} is reducible over F_{q}")
    return powers


@dataclass(frozen=True)
class ExtFieldElement:
    """An element of F_{q^m} as an m-tuple of base-field coordinates.

    The operators convert their operands to indices, compute with
    ``FieldParams.ops`` and convert the result back.  No ``lsc`` code
    builds one: the class stays because ``lsc`` exports it and
    ``perfbench`` binds its methods by name.
    """

    params: FieldParams
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.params.m:
            raise ParameterError(
                f"expected {self.params.m} coordinates, got {len(self.coords)}"
            )
        q = self.params.q
        if any(not 0 <= c < q for c in self.coords):
            raise ParameterError(f"coordinates must lie in [0, {q})")

    def _check_params(self, other: "ExtFieldElement") -> None:
        if self.params != other.params:
            raise ParameterError("operands belong to different fields")

    def __add__(self, other: "ExtFieldElement") -> "ExtFieldElement":
        self._check_params(other)
        ops = self.params.ops
        return self.params.from_index(ops.add(self.to_index(), other.to_index()))

    def __mul__(self, other: "ExtFieldElement") -> "ExtFieldElement":
        self._check_params(other)
        ops = self.params.ops
        return self.params.from_index(ops.mul(self.to_index(), other.to_index()))

    def inverse(self) -> "ExtFieldElement":
        return self.params.from_index(self.params.ops.inv(self.to_index()))

    def frobenius(self, i: int) -> "ExtFieldElement":
        """Return self^(q^i); F_q-linear in self, periodic with period m."""
        if i < 0:
            raise ParameterError("frobenius exponent must be non-negative")
        return self.params.from_index(self.params.ops.frob(self.to_index(), i))

    def to_index(self) -> int:
        return index_of(self.coords, self.params.q)

    def __repr__(self) -> str:
        return f"Ext({','.join(map(str, self.coords))})"
