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
supplied).

The decoder has two parts.  ``decode_bounded``, the public entry, checks
its inputs and reduces each hint to its canonical basis by one
elimination; no hint, or a hint of 0 rows, spans nothing.  Column hints
(mu > 0) give the projection P, the kernel of the hints, and the
projected word y = P r; without them y is the word.  The private core,
``_decode_projected``, takes y, the rows of P (none when mu = 0) and the
row-hint basis, all on element indices, and returns message indices; the
entry turns them into elements.  ``lifted.subspace_decode`` calls the
core directly, with a P and y it reads off the received space (see
``lifted``).

In the core, the points are projected, g' = P g, when mu > 0.  Row hints
(delta > 0) put y through their annihilator sigma and divide each
candidate by sigma once more; without them there is no sigma.  A
candidate f is then checked at the projected points: P (r - f(g)) =
y - f(g'), because f is F_q-linear, so the residual is n - mu field
elements, and its rank modulo the row hints is the rank of the residual
rows stacked on the row-hint basis, less delta.

Only the row space of P matters.  Another projection T P, with T
invertible over F_q, gives T y and T g'; x -> x^(q^j) is F_q-linear, so
each interpolation row becomes an F_q-combination of the old rows and
the system keeps its row space.  The nullspace, its canonical basis, the
order of the candidates and the rank of each residual are unchanged, and
so is the outcome.

``brute_force_decode`` is the independent minimum-distance
oracle used to cross-check it.  It shares nothing with the decoder but
encoding: each code builds its codebook once, on the first oracle call
(every message's element indices and its codeword's stored rows), and
every call scans it with one row difference and one rank per codeword.

The algorithms (linearized-polynomial evaluation, composition, left
division and subspace annihilators, encoding, the decoder and its
F_{q^m} nullspace, the codebook) compute on element indices
with ``FieldParams.ops``; the kernels that multiply one element into
many (evaluation, left division, the interpolation rows and the
nullspace) add logarithms on its zero-sentinel tables.
``RankCodeword`` stores indices too, and its ``symbols`` are an
``ExtFieldElement`` view built only when read.  Words, points and hints
meet their F_q matrices at one bridge, ``MatrixFq._from_indices`` and
``MatrixFq._row_indices`` in ``linalg``: the projections P r and P g are
``MatrixFq`` products across it, and the points' independence is the
rank of their matrix.  The rest of the public surface holds
``ExtFieldElement`` values and converts at that boundary:
``LinearizedPoly``, the messages ``encode`` takes, and the messages the
public decoders return.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Sequence

from .errors import CapacityError, ParameterError
from .field import ExtFieldElement, FieldOps, FieldParams
from .linalg import MatrixFq, _add_rows, _eliminate, _kernel, _rank

_set = object.__setattr__

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
    """sum_i c_i x^(q^i): each term is one antilog lookup, zero coefficients included."""
    if not x:
        return 0
    zexp, zlog, add, order = ops.zexp, ops.zlog, ops.add, ops.order
    lx = zlog[x]
    acc = 0
    for c, qp in zip(coeffs, itertools.cycle(ops.qpow)):
        acc = add(acc, zexp[zlog[c] + lx * qp % order])
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

    The remainder has lower q-degree than ``left``.  Each step subtracts
    left(c x^(q^j)); its terms are antilog lookups on the logarithms of
    ``left``'s coefficients.
    """
    if not left:
        raise ZeroDivisionError("division by the zero polynomial")
    zexp, zlog, add, order, qpow, m = ops.zexp, ops.zlog, ops.add, ops.order, ops.qpow, ops.m
    minus_one = ops.minus_one
    l = len(left) - 1
    lead_log = zlog[left[-1]]
    # u, log(left_u) and q^u mod (q^m - 1) of each nonzero coefficient
    terms = [(u, zlog[lu], qpow[u % m]) for u, lu in enumerate(left) if lu]
    to_root = qpow[(m - l) % m]
    work = _trim(list(num))
    quot = [0] * max(0, len(work) - l)
    while len(work) - 1 >= l and work:
        j = len(work) - 1 - l
        # solve left_l * c^(q^l) = top  =>  c = (top / left_l)^(q^(m-l))
        lc = (zlog[work[-1]] - lead_log) * to_root % order
        quot[j] = zexp[lc]
        for u, lu, qp in terms:
            work[u + j] = add(work[u + j], zexp[lu + (lc * qp + minus_one) % order])
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

    def _check_field(self, params: FieldParams) -> None:
        if params != self.params:
            raise ParameterError("operands belong to different fields")

    def evaluate(self, x: ExtFieldElement) -> ExtFieldElement:
        self._check_field(x.params)
        params = self.params
        return params.from_index(_lp_evaluate(params.ops, self._indices(), x.to_index()))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self._check_field(other.params)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.params.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return LinearizedPoly.from_coeffs(self.params, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self._check_field(other.params)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.params.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return LinearizedPoly.from_coeffs(self.params, [x - y for x, y in zip(a, b)])

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """self(other(x)); coefficient k is sum_{i+j=k} a_i * b_j^(q^i)."""
        self._check_field(other.params)
        params = self.params
        return LinearizedPoly._from_indices(
            params, _lp_compose(params.ops, self._indices(), other._indices())
        )

    def divide_left(self, left: "LinearizedPoly") -> tuple["LinearizedPoly", "LinearizedPoly"]:
        """Solve self = left(quotient(x)) + remainder with q-deg(remainder) < q-deg(left)."""
        self._check_field(left.params)
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
        if any(z.params != params for z in elements):
            raise ParameterError("operands belong to different fields")
        sigma = _lp_annihilator(params.ops, [z.to_index() for z in elements])
        return LinearizedPoly._from_indices(params, sigma)


class RankCodeword:
    """A length-n word over F_{q^m}, equivalently an n x m matrix over F_q.

    It stores the element index of each symbol.  ``symbols`` is the
    ``ExtFieldElement`` view, built on first use and cached; equality,
    hashing and pickling go by field and indices.
    """

    __slots__ = ("params", "_indices", "_symbols")

    def __init__(self, symbols: Sequence[ExtFieldElement]) -> None:
        symbols = tuple(symbols)
        params = symbols[0].params if symbols else None
        if any(s.params != params for s in symbols):
            raise ParameterError("symbols from different fields")
        _set(self, "params", params)
        _set(self, "_indices", tuple(s.to_index() for s in symbols))
        _set(self, "_symbols", symbols)

    @classmethod
    def _from_indices(cls, params: FieldParams, indices: Sequence[int]) -> "RankCodeword":
        """The word whose symbols have these element indices, which must lie in range."""
        word = object.__new__(cls)
        _set(word, "params", params)
        _set(word, "_indices", tuple(indices))
        return word

    @property
    def symbols(self) -> tuple[ExtFieldElement, ...]:
        try:
            return self._symbols
        except AttributeError:
            symbols = tuple(map(self.params.from_index, self._indices))
            _set(self, "_symbols", symbols)
            return symbols

    @property
    def n(self) -> int:
        return len(self._indices)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not RankCodeword:
            return NotImplemented
        return self._indices == other._indices and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.params, self._indices))

    def __repr__(self) -> str:
        return f"RankCodeword(symbols={self.symbols!r})"

    def __reduce__(self):
        return (RankCodeword, (self.symbols,))

    def as_matrix(self) -> MatrixFq:
        params = self.params
        return MatrixFq._from_indices(params.q, params.m, self._indices)

    @classmethod
    def from_matrix(cls, params: FieldParams, matrix: MatrixFq) -> "RankCodeword":
        if matrix.cols != params.m or matrix.q != params.q:
            raise ParameterError("matrix shape does not match the field")
        return cls._from_indices(params, matrix._row_indices())

    def __add__(self, other: "RankCodeword") -> "RankCodeword":
        return self._combine(other, self.params.ops.add)

    def __sub__(self, other: "RankCodeword") -> "RankCodeword":
        return self._combine(other, self.params.ops.sub)

    def _combine(self, other: "RankCodeword", op) -> "RankCodeword":
        if self.n != other.n:
            raise ParameterError("length mismatch")
        if self.params != other.params:
            raise ParameterError("operands belong to different fields")
        return RankCodeword._from_indices(self.params, map(op, self._indices, other._indices))


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
        if self._points_matrix.rank() != self.n:
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

    @cached_property
    def _subspace_decode_memo(self) -> dict:
        """``lifted.subspace_decode``'s outcomes on this code, by received
        basis; ``lifted`` bounds and fills it."""
        return {}

    @cached_property
    def _points_matrix(self) -> MatrixFq:
        """The evaluation points as the rows of an n x m matrix over F_q."""
        return MatrixFq._from_indices(self.params.q, self.params.m, self._points)

    def encode(self, message: Sequence[ExtFieldElement]) -> RankCodeword:
        """Evaluate f = sum_j u_j x^(q^j) at the evaluation points."""
        return RankCodeword._from_indices(self.params, self._evaluate(self._indices(message)))

    def _indices(self, message: Sequence[ExtFieldElement]) -> list[int]:
        """The element indices of a message, after checking its length and field."""
        if len(message) != self.k:
            raise ParameterError(f"message must have length {self.k}")
        for u in message:
            if u.params != self.params:
                raise ParameterError("message symbol from a different field")
        return [u.to_index() for u in message]

    def _evaluate(self, f: Sequence[int]) -> list[int]:
        """The linearized polynomial f (on indices) at every evaluation point."""
        ops = self.params.ops
        return [_lp_evaluate(ops, f, g) for g in self._points]

    def _codeword_matrix(self, f: Sequence[int]) -> MatrixFq:
        """The codeword of the message with element indices f, as its n x m matrix."""
        return MatrixFq._from_indices(self.params.q, self.params.m, self._evaluate(f))

    def _check_received(self, received: RankCodeword) -> None:
        if received.n != self.n:
            raise ParameterError(f"received word must have length {self.n}")
        if received.params != self.params:
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
        the error column space.  Any rows spanning those spaces will do.
        Returns the message (tuple of k elements) or a DecodeFailure value.

        Each hint is reduced to its canonical basis; column hints (mu > 0)
        give the projection P, their kernel, and the projected word P r.
        The rest is ``_decode_projected``.
        """
        self._check_received(received)
        params = self.params
        q, m, n = params.q, params.m, self.n
        row_basis, _ = self._hint_basis(row_erasures, m, "row_erasures")
        col_basis, col_pivots = self._hint_basis(col_erasures, n, "col_erasures")
        if col_basis:
            # (n - mu) x n over F_q; its rows annihilate the column hints
            kernel = _kernel(q, n, col_basis, col_pivots)
            word = (kernel @ MatrixFq._from_indices(q, m, received._indices))._row_indices()
            proj = kernel._data
        else:
            word, proj = received._indices, None
        outcome = self._decode_projected(word, proj, row_basis)
        if isinstance(outcome, DecodeFailure):
            return outcome
        return tuple(map(params.from_index, outcome))

    def _decode_projected(
        self, word: Sequence[int], proj: tuple[int, ...] | None, row_basis: tuple[int, ...]
    ):
        """The decoder once its hints are in place; returns the message as k
        element indices, or a DecodeFailure.

        ``proj`` holds the stored rows of a full-rank (n - mu) x n projection
        P whose row space is the annihilator of the column-erasure space
        (None when mu = 0), and ``word`` is the projected word P r as
        element indices.  ``row_basis`` holds the canonical basis of the
        row-erasure space as stored rows of width m (delta rows).  Only the
        row space of P matters: another P' = T P with T invertible over F_q
        gives the same outcome (see the module docstring).

        A hint costs only when it spans something: the points are projected
        only for mu > 0, and the annihilator sigma with the second left
        division only for delta > 0.  A candidate f is checked on its
        residual at the projected points, y_i - f(g'_i), which is the
        projected error because f is F_q-linear.
        """
        params = self.params
        ops = params.ops
        q, m, n, k = params.q, params.m, self.n, self.k
        d = self.min_rank_distance
        delta = len(row_basis)
        mu = 0 if proj is None else n - len(proj)
        if mu + delta > d - 1:
            return DecodeFailure(REASON_RADIUS, f"mu+delta = {mu + delta} exceeds d-1 = {d - 1}")
        tau_max = (d - 1 - mu - delta) // 2

        if proj is None:
            points = self._points
        else:
            proj = MatrixFq._unchecked(q, n - mu, n, proj)
            points = (proj @ self._points_matrix)._row_indices()
        if delta:
            hint_elements = MatrixFq._unchecked(q, delta, m, row_basis)._row_indices()
            sigma = _lp_annihilator(ops, hint_elements)
            word_sigma = [_lp_evaluate(ops, sigma, y) for y in word]
        else:
            word_sigma = word

        # interpolation system: V(y'_s) - N(g'_s) = 0 with q-deg V <= tau_max,
        # q-deg N <= k + delta + tau_max - 1
        n_v = tau_max + 1
        n_n = k + delta + tau_max
        # entries y^(q^j) and -g^(q^j), one antilog lookup each; g' is never 0,
        # since P has full rank and the points are independent
        zexp, zlog, order, minus_one = ops.zexp, ops.zlog, ops.order, ops.minus_one
        qpow_v, qpow_n = ops.qpow[:n_v], ops.qpow[:n_n]
        rows = []
        for y, g in zip(word_sigma, points):
            ly, lg = zlog[y], zlog[g]
            row = [zexp[ly * qp % order] for qp in qpow_v] if y else [0] * n_v
            row += [zexp[(lg * qp + minus_one) % order] for qp in qpow_n]
            rows.append(row)
        for sol in _ext_nullspace(ops, rows, n_v + n_n):
            locator = _trim(sol[:n_v])
            if not locator:
                continue
            f, rem = _lp_divide_left(ops, _trim(sol[n_v:]), locator)
            if rem:
                continue
            if delta:
                f, rem = _lp_divide_left(ops, f, sigma)
                if rem:
                    continue
            if len(f) > k:
                continue
            # P (r - f(g)) = y - f(g'); its rank modulo the row hints is
            # rank([residual; row hints]) - delta
            residual = list(map(ops.sub, word, (_lp_evaluate(ops, f, g) for g in points)))
            stacked = MatrixFq._from_indices(q, m, residual)._data + row_basis
            if 2 * (_rank(q, m, stacked) - delta) + mu + delta <= d - 1:
                return f + [0] * (k - len(f))
        return DecodeFailure(REASON_RADIUS, "no codeword within the decoding radius")

    def _hint_basis(
        self, hint: MatrixFq | None, width: int, name: str
    ) -> tuple[tuple[int, ...], list[int]]:
        """The canonical basis of the space a hint's rows span, as stored rows,
        and its pivots: one elimination, which also gives the hint's kernel
        (``linalg._kernel``).  No hint spans nothing."""
        if hint is None:
            return (), []
        if not isinstance(hint, MatrixFq) or hint.q != self.params.q:
            raise ParameterError(f"{name} must be a MatrixFq over F_{self.params.q}")
        if hint.cols != width:
            raise ParameterError(f"{name} must have width {width}")
        basis, pivots = _eliminate(hint.q, width, hint._data)
        return tuple(basis), pivots

    # --- exhaustive oracle ---

    def _check_cap(self, cap: int) -> None:
        size = self.params.size**self.k
        if size > cap:
            raise CapacityError(f"message space {size} exceeds the cap {cap}")

    def iter_messages(self, cap: int = 1 << 20):
        self._check_cap(cap)
        from_index = self.params.from_index
        for idx in itertools.product(range(self.params.size), repeat=self.k):
            yield tuple(from_index(i) for i in idx)

    @cached_property
    def _codebook(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(messages, codewords): every message as element indices, in
        ``iter_messages`` order, and its codeword as stored rows.

        Built on the first oracle call that passes its cap check, then read
        by every later call and by ``lifted.codeword_subspaces``.
        """
        messages = tuple(itertools.product(range(self.params.size), repeat=self.k))
        return messages, tuple(self._codeword_matrix(f)._data for f in messages)

    def brute_force_decode(self, received: RankCodeword, cap: int = 1 << 20):
        """Minimum rank-distance decoding by a scan of the codebook; ties fail.

        The first codeword at the least distance wins unless a later one is
        as near.  The cap is checked before the codebook is built or read.
        """
        self._check_received(received)
        self._check_cap(cap)
        q, m = self.params.q, self.params.m
        rec = received.as_matrix()._data
        messages, codewords = self._codebook
        best = best_dist = None
        tie = False
        for i, rows in enumerate(codewords):
            dist = _rank(q, m, _add_rows(q, m, rec, rows, -1))
            if best_dist is None or dist < best_dist:
                best, best_dist, tie = i, dist, False
            elif dist == best_dist:
                tie = True
        if tie:
            return DecodeFailure(REASON_TIE, f"multiple codewords at distance {best_dist}")
        return tuple(map(self.params.from_index, messages[best]))


def _ext_nullspace(ops: FieldOps, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Nullspace basis of a homogeneous system over F_{q^m}, on element indices:
    one vector per free column, 1 there and 0 at the other free columns.

    A forward pass (as ``linalg._echelon_gf2``) keeps each row, scaled to
    lead 1, under its leading column once the kept rows have cleared its
    earlier entries; a row subtracts a multiple of a kept row by adding
    logarithms to the kept row's, one antilog lookup per entry.  Back
    substitution then solves each basis vector's pivot entries.
    """
    zexp, zlog, add, sub, order = ops.zexp, ops.zlog, ops.add, ops.sub, ops.order
    minus_one = ops.minus_one
    kept: dict[int, list[int]] = {}  # leading column -> logarithms of the kept row
    for row in rows:
        for col in range(ncols):
            f = row[col]
            if not f:
                continue
            logs = kept.get(col)
            if logs is None:
                scale = order - zlog[f]
                kept[col] = [zlog[zexp[zlog[x] + scale]] for x in row]
                break
            lf = (zlog[f] + minus_one) % order
            row = [add(a, zexp[lf + lb]) for a, lb in zip(row, logs)]
    pivots = sorted(kept, reverse=True)
    basis = []
    for free in range(ncols):
        if free in kept:
            continue
        vec = [0] * ncols
        vec[free] = 1
        # x_p = -sum_{c > p} row_p[c] x_c; it is 0 for every pivot p > free
        for p in pivots:
            if p < free:
                logs = kept[p]
                acc = 0
                for c in range(p + 1, ncols):
                    acc = add(acc, zexp[logs[c] + zlog[vec[c]]])
                vec[p] = sub(0, acc)
        basis.append(vec)
    return basis
