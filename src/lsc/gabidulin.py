"""Gabidulin (maximum-rank-distance) codes over F_{q^m}.

Encoding evaluates a linearized polynomial at F_q-linearly-independent
points.  ``decode_bounded`` is an interpolation decoder in the
Welch-Berlekamp style, extended to errors-and-erasures: a known part of
the error row space is absorbed by composing with its subspace
annihilator polynomial, and a known part of the error column space is
projected out with an F_q left-annihilator of the received word.  It
succeeds whenever some codeword c satisfies

    2 * rank(received - c) + mu + delta <= d - 1,

where mu and delta count the supplied column/row erasure directions and
the rank is taken modulo those hint spaces (plain rank when no hints are
supplied).  ``brute_force_decode`` is the independent minimum-distance
oracle used to cross-check it.

The algorithms (linearized-polynomial evaluation, composition, left
division and subspace annihilators, encoding, the decoder and its
F_{q^m} nullspace, the brute-force oracle) compute on element indices
with ``FieldParams.ops``.  The public surface holds ``ExtFieldElement``
values and converts at that boundary: ``LinearizedPoly``,
``RankCodeword``, and the arguments and results of ``GabidulinCode``
methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import CapacityError, ParameterError
from .field import ExtFieldElement, FieldOps, FieldParams, coords_of, index_of
from .linalg import MatrixFq, row_space

REASON_RADIUS = "radius-exceeded"
REASON_TIE = "tie"


@dataclass(frozen=True)
class DecodeFailure:
    """Decoder outcome value (not an exception) carrying a reason code."""

    reason: str
    detail: str = ""

    def __bool__(self) -> bool:
        return False


# --- linearized polynomials on element indices ---
#
# A coefficient list holds, at position i, the index of the coefficient
# of x^(q^i), with trailing zeros trimmed; the zero polynomial is [].


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _lp_evaluate(ops: FieldOps, coeffs: Sequence[int], x: int) -> int:
    add, mul, frob = ops.add, ops.mul, ops.frob
    acc = 0
    for i, c in enumerate(coeffs):
        if c:
            acc = add(acc, mul(c, frob(x, i)))
    return acc


def _lp_compose(ops: FieldOps, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a(b(x)); coefficient k is sum_{i+j=k} a_i * b_j^(q^i)."""
    if not a or not b:
        return []
    add, mul, frob = ops.add, ops.mul, ops.frob
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add(out[i + j], mul(ai, frob(bj, i)))
    return _trim(out)


def _lp_divide_left(
    ops: FieldOps, num: Sequence[int], left: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(quotient, remainder) with num = left(quotient(x)) + remainder.

    The remainder has lower q-degree than ``left``.
    """
    if not left:
        raise ZeroDivisionError("division by the zero polynomial")
    sub, mul, frob = ops.sub, ops.mul, ops.frob
    m = ops.m
    l = len(left) - 1
    lead_inv = ops.inv(left[-1])
    work = list(num)
    quot = [0] * max(0, len(work) - l)
    while len(work) - 1 >= l and work:
        j = len(work) - 1 - l
        # solve left_l * c^(q^l) = top  =>  c = (top / left_l)^(q^(m-l))
        c = frob(mul(work[-1], lead_inv), (m - l) % m)
        quot[j] = c
        for u, lu in enumerate(left):
            if lu:
                work[u + j] = sub(work[u + j], mul(lu, frob(c, u)))
        _trim(work)
    return _trim(quot), work


def _lp_annihilator(ops: FieldOps, elements: Sequence[int]) -> list[int]:
    """Monic polynomial whose kernel is the F_q-span of linearly independent elements."""
    sigma = [1]
    for z in elements:
        w = _lp_evaluate(ops, sigma, z)
        if not w:
            raise ParameterError("annihilator basis is linearly dependent")
        # x^q - w^(q-1) x vanishes at w
        sigma = _lp_compose(ops, [ops.sub(0, ops.pow(w, ops.q - 1)), 1], sigma)
    return sigma


@dataclass(frozen=True)
class LinearizedPoly:
    """Sum of a_i x^(q^i); evaluation is F_q-linear.

    Coefficients are stored with index i holding the coefficient of
    x^(q^i), trailing zeros trimmed; the zero polynomial has no
    coefficients.  The methods compute on element indices.
    """

    params: FieldParams
    coeffs: tuple[ExtFieldElement, ...]

    @classmethod
    def from_coeffs(cls, params: FieldParams, coeffs: Sequence[ExtFieldElement]) -> "LinearizedPoly":
        out = list(coeffs)
        while out and out[-1].is_zero():
            out.pop()
        return cls(params, tuple(out))

    @classmethod
    def _from_indices(cls, params: FieldParams, coeffs: Sequence[int]) -> "LinearizedPoly":
        return cls(params, tuple(params.from_index(c) for c in coeffs))

    def _indices(self) -> list[int]:
        return [c.to_index() for c in self.coeffs]

    @classmethod
    def zero(cls, params: FieldParams) -> "LinearizedPoly":
        return cls(params, ())

    @classmethod
    def identity(cls, params: FieldParams) -> "LinearizedPoly":
        return cls(params, (params.one(),))

    @property
    def q_degree(self) -> int:
        """Degree in the q-power ladder; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: ExtFieldElement) -> ExtFieldElement:
        params = self.params
        return params.from_index(_lp_evaluate(params.ops, self._indices(), x.to_index()))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.params.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return LinearizedPoly.from_coeffs(self.params, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.params.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return LinearizedPoly.from_coeffs(self.params, [x - y for x, y in zip(a, b)])

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """self(other(x)); coefficient k is sum_{i+j=k} a_i * b_j^(q^i)."""
        params = self.params
        return LinearizedPoly._from_indices(
            params, _lp_compose(params.ops, self._indices(), other._indices())
        )

    def divide_left(self, left: "LinearizedPoly") -> tuple["LinearizedPoly", "LinearizedPoly"]:
        """Solve self = left(quotient(x)) + remainder with q-deg(remainder) < q-deg(left)."""
        params = self.params
        quot, rem = _lp_divide_left(params.ops, self._indices(), left._indices())
        return (
            LinearizedPoly._from_indices(params, quot),
            LinearizedPoly._from_indices(params, rem),
        )

    @staticmethod
    def subspace_annihilator(params: FieldParams, elements: Sequence[ExtFieldElement]) -> "LinearizedPoly":
        """Monic linearized polynomial whose kernel is the F_q-span of ``elements``.

        The elements must be linearly independent over F_q; the result has
        q-degree equal to their count.
        """
        sigma = _lp_annihilator(params.ops, [z.to_index() for z in elements])
        return LinearizedPoly._from_indices(params, sigma)


@dataclass(frozen=True)
class RankCodeword:
    """A length-n word over F_{q^m}, equivalently an n x m matrix over F_q."""

    symbols: tuple[ExtFieldElement, ...]

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def params(self) -> FieldParams:
        return self.symbols[0].params

    def as_matrix(self) -> MatrixFq:
        params = self.params
        return MatrixFq(
            params.q, self.n, params.m, tuple(s.coords for s in self.symbols)
        )

    @classmethod
    def from_matrix(cls, params: FieldParams, matrix: MatrixFq) -> "RankCodeword":
        if matrix.cols != params.m or matrix.q != params.q:
            raise ParameterError("matrix shape does not match the field")
        return cls(tuple(ExtFieldElement(params, row) for row in matrix.entries))

    def __add__(self, other: "RankCodeword") -> "RankCodeword":
        if self.n != other.n:
            raise ParameterError("length mismatch")
        return RankCodeword(tuple(a + b for a, b in zip(self.symbols, other.symbols)))

    def __sub__(self, other: "RankCodeword") -> "RankCodeword":
        if self.n != other.n:
            raise ParameterError("length mismatch")
        return RankCodeword(tuple(a - b for a, b in zip(self.symbols, other.symbols)))


@dataclass(frozen=True)
class GabidulinCode:
    """Parameters (q, m, n, k) plus evaluation points; d_R = n - k + 1."""

    params: FieldParams
    n: int
    k: int
    eval_points: tuple[ExtFieldElement, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n <= self.params.m:
            raise ParameterError(
                f"need 1 <= k <= n <= m, got k={self.k}, n={self.n}, m={self.params.m}"
            )
        if len(self.eval_points) != self.n:
            raise ParameterError("need exactly n evaluation points")
        for g in self.eval_points:
            if g.params != self.params:
                raise ParameterError("evaluation point from a different field")
        coords = MatrixFq(
            self.params.q, self.n, self.params.m, tuple(g.coords for g in self.eval_points)
        )
        if coords.rank() != self.n:
            raise ParameterError("evaluation points must be F_q-linearly independent")

    @classmethod
    def standard(cls, params: FieldParams, n: int, k: int) -> "GabidulinCode":
        """Code on the first n polynomial-basis points 1, a, ..., a^(n-1)."""
        points = []
        for i in range(n):
            coords = [0] * params.m
            if i < params.m:
                coords[i] = 1
            points.append(ExtFieldElement(params, tuple(coords)))
        return cls(params, n, k, tuple(points))

    @property
    def min_rank_distance(self) -> int:
        return self.n - self.k + 1

    @cached_property
    def _points(self) -> tuple[int, ...]:
        return tuple(g.to_index() for g in self.eval_points)

    def encode(self, message: Sequence[ExtFieldElement]) -> RankCodeword:
        """Evaluate f = sum_j u_j x^(q^j) at the evaluation points."""
        if len(message) != self.k:
            raise ParameterError(f"message must have length {self.k}")
        for u in message:
            if u.params != self.params:
                raise ParameterError("message symbol from a different field")
        symbols = self._evaluate([u.to_index() for u in message])
        return RankCodeword(tuple(self.params.from_index(s) for s in symbols))

    def _evaluate(self, f: Sequence[int]) -> list[int]:
        """The linearized polynomial f (on indices) at every evaluation point."""
        ops = self.params.ops
        return [_lp_evaluate(ops, f, g) for g in self._points]

    def _check_received(self, received: RankCodeword) -> None:
        if received.n != self.n:
            raise ParameterError(f"received word must have length {self.n}")
        if received.symbols[0].params != self.params:
            raise ParameterError("received word from a different field")

    # --- bounded-distance errors-and-erasures decoding ---

    def decode_bounded(
        self,
        received: RankCodeword,
        row_erasures: MatrixFq | None = None,
        col_erasures: MatrixFq | None = None,
    ):
        """Decode, exploiting optional erasure side information.

        ``row_erasures`` rows (width m) span a known subspace of the error
        row space; ``col_erasures`` rows (width n) span a known subspace of
        the error column space.  Both are in the form produced by the
        lifted-code reduction.  Returns the message (tuple of k elements)
        or a DecodeFailure value.
        """
        self._check_received(received)
        params = self.params
        ops = params.ops
        add, sub, mul, frob = ops.add, ops.sub, ops.mul, ops.frob
        m, n, k = params.m, self.n, self.k
        d = self.min_rank_distance

        zb = self._canonical_hint(row_erasures, m, "row_erasures")
        cb = self._canonical_hint(col_erasures, n, "col_erasures")
        delta = zb.rows
        mu = cb.rows
        if mu + delta > d - 1:
            return DecodeFailure(REASON_RADIUS, f"mu+delta = {mu + delta} exceeds d-1 = {d - 1}")
        tau_max = (d - 1 - mu - delta) // 2

        sigma = _lp_annihilator(ops, [index_of(r, params.q) for r in zb.entries])
        proj = cb.kernel_basis()  # (n - mu) x n, rows annihilate the column hints
        n_prime = proj.rows
        k_prime = k + delta

        def combine(vals: Sequence[int], weights: tuple[int, ...]) -> int:
            acc = 0
            for w, v in zip(weights, vals):
                if w:
                    acc = add(acc, mul(v, w))
            return acc

        r = [s.to_index() for s in received.symbols]
        g_proj = [combine(self._points, row) for row in proj.entries]
        r_sigma = [_lp_evaluate(ops, sigma, s) for s in r]
        r_proj = [combine(r_sigma, row) for row in proj.entries]

        # interpolation system: V(r'_s) - N(g'_s) = 0 with q-deg V <= tau_max,
        # q-deg N <= k' + tau_max - 1
        n_v = tau_max + 1
        n_n = k_prime + tau_max
        rows = []
        for s in range(n_prime):
            row = [frob(r_proj[s], j) for j in range(n_v)]
            row += [sub(0, frob(g_proj[s], j)) for j in range(n_n)]
            rows.append(row)
        solutions = _ext_nullspace(ops, rows, n_v + n_n)

        for sol in solutions:
            locator = _trim(sol[:n_v])
            if not locator:
                continue
            numer = _trim(sol[n_v:])
            f_sigma, rem = _lp_divide_left(ops, numer, locator)
            if rem:
                continue
            f, rem = _lp_divide_left(ops, f_sigma, sigma)
            if rem or len(f) > k:
                continue
            codeword = self._evaluate(f)
            error_rows = tuple(coords_of(sub(a, b), params.q, m) for a, b in zip(r, codeword))
            error = MatrixFq(params.q, n, m, error_rows)
            q_ann = zb.kernel_basis().transpose()  # m x (m - delta)
            residual = (proj @ error) @ q_ann
            if 2 * residual.rank() + mu + delta <= d - 1:
                return tuple(params.from_index(u) for u in f + [0] * (k - len(f)))
        return DecodeFailure(REASON_RADIUS, "no codeword within the decoding radius")

    def _canonical_hint(self, hint: MatrixFq | None, width: int, name: str) -> MatrixFq:
        if hint is None:
            return MatrixFq(self.params.q, 0, width, ())
        if not isinstance(hint, MatrixFq) or hint.q != self.params.q:
            raise ParameterError(f"{name} must be a MatrixFq over F_{self.params.q}")
        if hint.cols != width:
            raise ParameterError(f"{name} must have width {width}")
        return row_space(hint, width).basis

    # --- exhaustive oracle ---

    def _message_indices(self, cap: int):
        size = self.params.size
        if size**self.k > cap:
            raise CapacityError(f"message space {size ** self.k} exceeds the cap {cap}")
        return itertools.product(range(size), repeat=self.k)

    def iter_messages(self, cap: int = 1 << 20):
        from_index = self.params.from_index
        for idx in self._message_indices(cap):
            yield tuple(from_index(i) for i in idx)

    def brute_force_decode(self, received: RankCodeword, cap: int = 1 << 20):
        """Minimum rank-distance decoding by full enumeration; ties fail."""
        self._check_received(received)
        q, m = self.params.q, self.params.m
        rec = received.as_matrix()
        best = None
        best_dist = None
        tie = False
        for message in self._message_indices(cap):
            symbols = self._evaluate(message)
            cand = MatrixFq(q, self.n, m, tuple(coords_of(s, q, m) for s in symbols))
            dist = (rec - cand).rank()
            if best_dist is None or dist < best_dist:
                best, best_dist, tie = message, dist, False
            elif dist == best_dist:
                tie = True
        if tie:
            return DecodeFailure(REASON_TIE, f"multiple codewords at distance {best_dist}")
        return tuple(self.params.from_index(u) for u in best)


def _ext_nullspace(ops: FieldOps, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Nullspace basis of a homogeneous system over F_{q^m}, on element indices."""
    sub, mul = ops.sub, ops.mul
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ops.inv(work[r][col])
        work[r] = [mul(x, inv) for x in work[r]]
        for i in range(nrows):
            f = work[i][col]
            if i != r and f:
                work[i] = [sub(a, mul(f, b)) for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, p in enumerate(pivots):
            vec[p] = sub(0, work[i][free])
        basis.append(vec)
    return basis
