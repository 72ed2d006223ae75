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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError, ParameterError
from .field import ExtFieldElement, FieldParams
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


@dataclass(frozen=True)
class LinearizedPoly:
    """Sum of a_i x^(q^i); evaluation is F_q-linear.

    Coefficients are stored with index i holding the coefficient of
    x^(q^i), trailing zeros trimmed; the zero polynomial has no
    coefficients.
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
        acc = self.params.zero()
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + c * x.frobenius(i)
        return acc

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
        if self.is_zero() or other.is_zero():
            return LinearizedPoly.zero(self.params)
        out = [self.params.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b.frobenius(i)
        return LinearizedPoly.from_coeffs(self.params, out)

    def divide_left(self, left: "LinearizedPoly") -> tuple["LinearizedPoly", "LinearizedPoly"]:
        """Solve self = left(quotient(x)) + remainder with q-deg(remainder) < q-deg(left)."""
        if left.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        params = self.params
        m = params.m
        l = left.q_degree
        lead_inv = left.coeffs[-1].inverse()
        work = list(self.coeffs)
        quot = [params.zero()] * max(0, len(work) - l)
        while len(work) - 1 >= l and work:
            top = work[-1]
            j = len(work) - 1 - l
            # solve left_l * c^(q^l) = top  =>  c = (top / left_l)^(q^(m-l))
            c = (top * lead_inv).frobenius((m - l) % m)
            quot[j] = c
            for u in range(l + 1):
                if left.coeffs[u].is_zero():
                    continue
                work[u + j] = work[u + j] - left.coeffs[u] * c.frobenius(u)
            while work and work[-1].is_zero():
                work.pop()
        return (
            LinearizedPoly.from_coeffs(params, quot),
            LinearizedPoly.from_coeffs(params, work),
        )

    @staticmethod
    def subspace_annihilator(params: FieldParams, elements: Sequence[ExtFieldElement]) -> "LinearizedPoly":
        """Monic linearized polynomial whose kernel is the F_q-span of ``elements``.

        The elements must be linearly independent over F_q; the result has
        q-degree equal to their count.
        """
        sigma = LinearizedPoly.identity(params)
        for z in elements:
            w = sigma.evaluate(z)
            if w.is_zero():
                raise ParameterError("annihilator basis is linearly dependent")
            factor = LinearizedPoly.from_coeffs(
                params, (-(w ** (params.q - 1)), params.one())
            )
            sigma = factor.compose(sigma)
        return sigma


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

    def encode(self, message: Sequence[ExtFieldElement]) -> RankCodeword:
        """Evaluate f = sum_j u_j x^(q^j) at the evaluation points."""
        if len(message) != self.k:
            raise ParameterError(f"message must have length {self.k}")
        for u in message:
            if u.params != self.params:
                raise ParameterError("message symbol from a different field")
        f = LinearizedPoly.from_coeffs(self.params, message)
        return RankCodeword(tuple(f.evaluate(g) for g in self.eval_points))

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
        m, n, k = params.m, self.n, self.k
        d = self.min_rank_distance

        zb = self._canonical_hint(row_erasures, m, "row_erasures")
        cb = self._canonical_hint(col_erasures, n, "col_erasures")
        delta = zb.rows
        mu = cb.rows
        if mu + delta > d - 1:
            return DecodeFailure(REASON_RADIUS, f"mu+delta = {mu + delta} exceeds d-1 = {d - 1}")
        tau_max = (d - 1 - mu - delta) // 2

        sigma = LinearizedPoly.subspace_annihilator(
            params, [ExtFieldElement(params, r) for r in zb.entries]
        )
        proj = cb.kernel_basis()  # (n - mu) x n, rows annihilate the column hints
        n_prime = proj.rows
        k_prime = k + delta

        def combine(vals: Sequence[ExtFieldElement], weights: tuple[int, ...]) -> ExtFieldElement:
            acc = params.zero()
            for w, v in zip(weights, vals):
                if w:
                    acc = acc + v.scale_base(w)
            return acc

        g_proj = [combine(self.eval_points, row) for row in proj.entries]
        r_sigma = [sigma.evaluate(s) for s in received.symbols]
        r_proj = [combine(r_sigma, row) for row in proj.entries]

        # interpolation system: V(r'_s) - N(g'_s) = 0 with q-deg V <= tau_max,
        # q-deg N <= k' + tau_max - 1
        n_v = tau_max + 1
        n_n = k_prime + tau_max
        rows = []
        for s in range(n_prime):
            row = [r_proj[s].frobenius(j) for j in range(n_v)]
            row += [-(g_proj[s].frobenius(j)) for j in range(n_n)]
            rows.append(row)
        solutions = _ext_nullspace(params, rows, n_v + n_n)

        for sol in solutions:
            locator = LinearizedPoly.from_coeffs(params, sol[:n_v])
            if locator.is_zero():
                continue
            numer = LinearizedPoly.from_coeffs(params, sol[n_v:])
            f_sigma, rem = numer.divide_left(locator)
            if not rem.is_zero():
                continue
            f, rem = f_sigma.divide_left(sigma)
            if not rem.is_zero() or f.q_degree >= k:
                continue
            message = tuple(f.coeffs) + (params.zero(),) * (k - len(f.coeffs))
            codeword = self.encode(message)
            error = received.as_matrix() - codeword.as_matrix()
            q_ann = zb.kernel_basis().transpose()  # m x (m - delta)
            residual = (proj @ error) @ q_ann
            if 2 * residual.rank() + mu + delta <= d - 1:
                return message
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

    def iter_messages(self, cap: int = 1 << 20):
        if self.params.size**self.k > cap:
            raise CapacityError(
                f"message space {self.params.size ** self.k} exceeds the cap {cap}"
            )
        size = self.params.size
        for idx in itertools.product(range(size), repeat=self.k):
            yield tuple(self.params.from_index(i) for i in idx)

    def brute_force_decode(self, received: RankCodeword, cap: int = 1 << 20):
        """Minimum rank-distance decoding by full enumeration; ties fail."""
        self._check_received(received)
        rec = received.as_matrix()
        best = None
        best_dist = None
        tie = False
        for message in self.iter_messages(cap):
            cand = self.encode(message).as_matrix()
            dist = (rec - cand).rank()
            if best_dist is None or dist < best_dist:
                best, best_dist, tie = message, dist, False
            elif dist == best_dist:
                tie = True
        if tie:
            return DecodeFailure(REASON_TIE, f"multiple codewords at distance {best_dist}")
        return best


def _ext_nullspace(
    params: FieldParams, rows: list[list[ExtFieldElement]], ncols: int
) -> list[list[ExtFieldElement]]:
    """Nullspace basis of a homogeneous system over F_{q^m}."""
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    zero = params.zero()
    one = params.one()
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for i, p in enumerate(pivots):
            vec[p] = -work[i][free]
        basis.append(vec)
    return basis
