"""Gabidulin (maximum-rank-distance) codes over F_{q^m}.

Encoding evaluates a linearized polynomial at F_q-linearly-independent
points.  ``decode_bounded`` is an errors-and-erasures decoder in the
form of Silva and Kschischang ("Fast encoding and decoding of Gabidulin
codes", ISIT 2009): it Newton-interpolates the word on some of the
points and solves a key equation on the syndrome at the others.  A known
part of the error row space is absorbed by composing with its subspace
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
row-hint basis, all on element indices, and returns the message's
indices.  ``lifted.subspace_decode`` calls the core directly, with a P
and y it reads off the received space (see ``lifted``).

In the core, the points are projected, g' = P g, when mu > 0.  Row hints
(delta > 0) put y through their annihilator sigma, which turns the sent
f into sigma o f, of q-degree < r = k + delta, and the hinted part of
the error into 0; the core decodes sigma(y) on the (n - mu, r) Gabidulin
code of the points g' and divides the result by sigma.  Without row
hints there is no sigma.  The Newton data of the points
(``_newton_table``) is a table on the code when mu = 0 (``_newton``) and
is computed per call when mu > 0.  The projected error is
y - f(g') = P (r - f(g)), because f is F_q-linear, and sigma maps it to
values whose F_q-span has its rank modulo the row hints.  The failure
detail says either that mu + delta exceeds d - 1 or that no codeword
lies within the radius.

Only the row space of P matters.  Another projection T P, with T
invertible over F_q, gives T y, T g' and T times the projected error, of
the same rank.  The core returns the unique codeword within the radius
when there is one and the radius failure when there is none, whichever
points it interpolates on, so the outcome is unchanged.

``brute_force_decode`` is the independent minimum-distance
oracle used to cross-check it.  It shares nothing with the decoder but
encoding: each code builds its codebook once, on the first oracle call
(every message's element indices and its codeword's stored rows), and
every call scans it in one bounded pass (``linalg._least_rank``), which
drops a codeword once it can neither win nor tie.  The lifted oracle scans
the same codebook in the same way; both fail a tie with ``_tie``.  The
codebook lists the messages through ``iter_messages``, which checks the
one enumeration cap (``linalg._ENUMERATION_CAP``) when it is called.

A codeword is a pure function of its message, and a run meets the same
messages again and again: each trial encodes one per layer, and each
successful lifted decode returns the codeword matrix of the message it
found.  So ``_codeword_matrix`` reads a memo on the code
(``_codeword_memo``, made on first use and keyed by the message's index
tuple) and evaluates (``_evaluate``) only on a miss.  The codebook
evaluates outside the memo, so the oracle leaves it alone.

The memo rules hold for all three memos of a code: the codewords and
lifted decodes of a ``GabidulinCode``, and the steps of a
``LayeredCode``.  They are stated only here; README and the ``lifted``
and ``layered`` docstrings point here.  A memo is made on first use and holds at most
``MEMO_SIZE`` = 4,096 entries, and every memo is read through one
function, ``_memoized``: a miss runs the entry's maker and stores what
it returns, and a full memo is emptied before that store (the bound is
read at call time).  The maker runs the key's check before its
computation, so a key is stored only once what it names has passed that
check, and a hit is not checked again: a key that names a space carries
the space's q and ambient with its rows, so a space over another field
or ambient that stores the same rows misses, and is refused by the check.
``ExperimentConfig.build_code`` builds fresh codes, so a memo lasts one
run.

A rank-metric word, sent or received, is its n x m ``MatrixFq`` over
F_q: row i holds the coordinates of symbol i (Silva, Kschischang and
Koetter, "A rank-metric approach to error control in random network
coding", IEEE T-IT 2008).  ``encode`` returns that matrix, and the public
decoders take it and raise ``ParameterError`` for anything else: a tuple
of symbols, a matrix over another field, or the wrong shape.  A
message, the vector in F_{q^m}^k of that paper, is a tuple of k element
indices in [0, q^m): ``encode`` takes one and raises ``ParameterError``
for anything else, and the public decoders and ``iter_messages`` give
one.  The evaluation points are element indices too.

The algorithms (linearized-polynomial evaluation, composition, left
division, subspace annihilators and the Newton table, encoding, the
decoder and its F_{q^m} null vector, the codebook) compute on element
indices with ``FieldParams.ops``; the kernels that multiply one element
into many (evaluation, composition, left division, the Newton table and
interpolation, the key-equation rows and the null vector) add logarithms
on its zero-sentinel tables.  Words, points and hints meet their F_q
matrices at one bridge, ``MatrixFq._from_indices`` and
``MatrixFq._row_indices`` in ``linalg``: the projections P r and P g are
``MatrixFq`` products across it, and the points' independence is the
rank of their matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapacityError, ParameterError
from .field import FieldOps, FieldParams, _trim
from .linalg import _ENUMERATION_CAP, MatrixFq, _eliminate, _kernel, _least_rank

REASON_RADIUS = "radius-exceeded"
REASON_TIE = "tie"

# the bound of every memo of a code (the memo rules: module docstring)
MEMO_SIZE = 4096


def _memoized(memo: dict, key, make):
    """The one read of a code memo: ``memo[key]``, or on a miss ``make()``,
    which runs the key's check and then the computation, stored under
    ``key`` and returned; a memo that already holds ``MEMO_SIZE`` entries
    is emptied before the store."""
    value = memo.get(key)
    if value is None:
        value = make()
        if len(memo) >= MEMO_SIZE:
            memo.clear()
        memo[key] = value
    return value


@dataclass(frozen=True)
class DecodeFailure:
    """Decoder outcome value (not an exception) carrying a reason code."""

    reason: str
    detail: str = ""

    def __bool__(self) -> bool:
        return False


_NO_CODEWORD = DecodeFailure(REASON_RADIUS, "no codeword within the decoding radius")


def _tie(distance: int) -> DecodeFailure:
    """Both oracles' failure when two codewords share the least distance."""
    return DecodeFailure(REASON_TIE, f"multiple codewords at distance {distance}")


# --- linearized polynomials on element indices ---
#
# A coefficient list holds, at position i, the index of the coefficient
# of x^(q^i), with trailing zeros trimmed (``field._trim``); the zero
# polynomial is [].


def _lp_evaluate(ops: FieldOps, coeffs: Sequence[int], xs: Iterable[int]) -> list[int]:
    """sum_i c_i x^(q^i) at each x of ``xs``: each nonzero term is one antilog
    lookup, on logarithms of the coefficients taken once."""
    zexp, zlog, add, order = ops.zexp, ops.zlog, ops.add, ops.order
    terms = [(zlog[c], qp) for c, qp in zip(coeffs, itertools.cycle(ops.qpow)) if c]
    out = []
    for x in xs:
        acc = 0
        if x:
            lx = zlog[x]
            for lc, qp in terms:
                acc = add(acc, zexp[lc + lx * qp % order])
        out.append(acc)
    return out


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


def _lp_compose(ops: FieldOps, a: Sequence[int], b_logs: Sequence[int]) -> list[int]:
    """a(b(x)) for b given by the logarithms of its coefficients (the zero
    sentinel for 0): coefficient t is sum_(i+j=t) a_i b_j^(q^i), one antilog
    lookup a term."""
    zexp, zlog, add, order, qpow, m = ops.zexp, ops.zlog, ops.add, ops.order, ops.qpow, ops.m
    zero = zlog[0]
    b_terms = [(j, lb) for j, lb in enumerate(b_logs) if lb != zero]
    out = [0] * (len(a) + len(b_logs) - 1)
    for i, ai in enumerate(a):
        if ai:
            la, qp = zlog[ai], qpow[i % m]
            for j, lb in b_terms:
                out[i + j] = add(out[i + j], zexp[la + lb * qp % order])
    return _trim(out)


def _newton_table(ops: FieldOps, points: Sequence[int], top: int):
    """The annihilator recurrence on ``points``: (bases, values) for i = 0..top.

    A_0 = x and A_(i+1) = (x^q - w^(q-1) x) o A_i with w = A_i(points[i]),
    so A_i is monic of q-degree i and vanishes exactly on the F_q-span of
    the first i points.  ``bases[i]`` holds the logarithms of A_i's
    coefficients and ``values[i]`` those of A_i at points i, i + 1, ...
    (it is 0 at the earlier ones), all with the zero sentinel for 0.  A
    point in the span of those before it makes w = 0, a ParameterError.
    A_i(x)^q - w^(q-1) A_i(x) carries each value from A_i to A_(i+1), so
    no polynomial is evaluated.
    """
    zexp, zlog, add, order, q = ops.zexp, ops.zlog, ops.add, ops.order, ops.q
    zero, minus_one = zlog[0], ops.minus_one
    base, logs = [0], [zlog[g] for g in points]
    bases, values = [base], [logs]
    for _ in range(top):
        if logs[0] == zero:
            raise ParameterError("annihilator basis is linearly dependent")
        # the logarithm of -w^(q-1)
        lneg = (logs[0] * (q - 1) + minus_one) % order
        # coefficient t of A_(i+1) is A_i[t-1]^q - w^(q-1) A_i[t]: the first
        # has no A_i[-1], and the last is A_i[i]^q = 1
        base = [
            zlog[zexp[lneg + base[0]]],
            *[
                zlog[add(zexp[h * q % order] if h != zero else 0, zexp[lneg + l])]
                for h, l in zip(base, base[1:])
            ],
            0,
        ]
        logs = [
            zlog[add(zexp[l * q % order], zexp[lneg + l])] if l != zero else zero for l in logs[1:]
        ]
        bases.append(base)
        values.append(logs)
    return bases, values


def _newton_interpolate(ops: FieldOps, values, ys: Sequence[int], r: int):
    """Newton interpolation of ``ys`` at the first r points of a
    ``_newton_table`` with those ``values``: (terms, syndrome).

    h = sum_i c_i A_i with c_i = (y_i - sum_(j<i) c_j A_j(g_i)) / A_i(g_i)
    takes y_i at point i < r; ``terms`` lists (i, log c_i) for each nonzero
    c_i, and ``syndrome`` holds y_j - h(g_j) at the points j >= r.  Each step
    subtracts c_i A_i(g_j) from the later points.
    """
    zexp, zlog, add, order, minus_one = ops.zexp, ops.zlog, ops.add, ops.order, ops.minus_one
    residue = list(ys)
    terms = []
    for i in range(r):
        c = residue[i]
        if c:
            logs = values[i]
            lc = (zlog[c] - logs[0]) % order
            lneg = (lc + minus_one) % order
            residue[i + 1 :] = [add(y, zexp[lneg + l]) for y, l in zip(residue[i + 1 :], logs[1:])]
            terms.append((i, lc))
    return terms, residue[r:]


def _newton_sum(ops: FieldOps, bases, terms, start: Sequence[int]) -> list[int]:
    """start + sum_i c_i A_i for the (i, log c_i) ``terms`` of
    ``_newton_interpolate`` and the ``bases`` of ``_newton_table``: with
    ``start`` = [] that is the interpolant h, of q-degree < r."""
    zexp, add = ops.zexp, ops.add
    out = list(start)
    if terms:
        out += [0] * (terms[-1][0] + 1 - len(out))
    for i, lc in terms:
        out[: i + 1] = [add(a, zexp[lc + la]) for a, la in zip(out, bases[i])]
    return _trim(out)


def _lp_annihilator(ops: FieldOps, elements: Sequence[int]) -> list[int]:
    """Monic polynomial whose kernel is the F_q-span of linearly independent elements."""
    return [ops.zexp[l] for l in _newton_table(ops, elements, len(elements))[0][-1]]


@dataclass(frozen=True)
class GabidulinCode:
    """Parameters (q, m, n, k) plus evaluation points; d_R = n - k + 1."""

    params: FieldParams
    n: int
    k: int
    eval_points: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n <= self.params.m:
            raise ParameterError(
                f"need 1 <= k <= n <= m, got k={self.k}, n={self.n}, m={self.params.m}"
            )
        if len(self.eval_points) != self.n:
            raise ParameterError("need exactly n evaluation points")
        points = _element_indices(self.params, self.eval_points, "evaluation point")
        object.__setattr__(self, "eval_points", points)
        if self._points_matrix.rank() != self.n:
            raise ParameterError("evaluation points must be F_q-linearly independent")

    @classmethod
    def standard(cls, params: FieldParams, n: int, k: int) -> "GabidulinCode":
        """Code on the first n polynomial-basis points 1, a, ..., a^(n-1),
        whose indices are 1, q, ..., q^(n-1)."""
        return cls(params, n, k, tuple(params.q**i for i in range(n)))

    @property
    def min_rank_distance(self) -> int:
        return self.n - self.k + 1

    @cached_property
    def _subspace_decode_memo(self) -> dict:
        """``lifted.subspace_decode``'s outcomes on this code, by (q,
        ambient, received basis rows), read through ``_memoized``."""
        return {}

    @cached_property
    def _codeword_memo(self) -> dict:
        """``_codeword_matrix``'s codewords on this code, by message indices."""
        return {}

    @cached_property
    def _points_matrix(self) -> MatrixFq:
        """The evaluation points as the rows of an n x m matrix over F_q."""
        return MatrixFq._from_indices(self.params.q, self.params.m, self.eval_points)

    @cached_property
    def _newton(self):
        """``_newton_table`` on the evaluation points up to A_n: the Newton
        data of every decode without column hints, whatever its r."""
        return _newton_table(self.params.ops, self.eval_points, self.n)

    def encode(self, message: Sequence[int]) -> MatrixFq:
        """Evaluate f = sum_j u_j x^(q^j) at the evaluation points; the
        codeword is its n x m matrix over F_q."""
        return self._codeword_matrix(self._indices(message))

    def _indices(self, message: Sequence[int]) -> tuple[int, ...]:
        """A message of k element indices, after checking its length and range."""
        if len(message) != self.k:
            raise ParameterError(f"message must have length {self.k}")
        return _element_indices(self.params, message, "message symbol")

    def _evaluate(self, f: Sequence[int]) -> MatrixFq:
        """The linearized polynomial f (on indices) at every evaluation
        point: the codeword of the message f as its n x m matrix."""
        points = _lp_evaluate(self.params.ops, f, self.eval_points)
        return MatrixFq._from_indices(self.params.q, self.params.m, points)

    def _codeword_matrix(self, f: tuple[int, ...]) -> MatrixFq:
        """The codeword of the message with element indices f, as its n x m
        matrix: read from ``_codeword_memo``, evaluated on a miss."""
        return _memoized(self._codeword_memo, f, lambda: self._evaluate(f))

    def _check_received(self, received: MatrixFq) -> None:
        """A word is an n x m ``MatrixFq`` over F_q; anything else is a ParameterError."""
        q, m, n = self.params.q, self.params.m, self.n
        shape = (received.q, received.rows, received.cols) if isinstance(received, MatrixFq) else None
        if shape != (q, n, m):
            raise ParameterError(f"word must be a {n}x{m} MatrixFq over F_{q}")

    # --- bounded-distance errors-and-erasures decoding ---

    def decode_bounded(
        self,
        received: MatrixFq,
        row_erasures: MatrixFq | None = None,
        col_erasures: MatrixFq | None = None,
    ):
        """Decode, exploiting optional erasure side information.

        ``row_erasures`` rows (width m) span a known subspace of the error
        row space; ``col_erasures`` rows (width n) span a known subspace of
        the error column space.  Any rows spanning those spaces will do.
        Returns the message (tuple of k element indices) or a DecodeFailure value.

        Each hint is reduced to its canonical basis; column hints (mu > 0)
        give the projection P, their kernel, and the projected word P r.
        The rest is ``_decode_projected``.
        """
        self._check_received(received)
        q, m, n = self.params.q, self.params.m, self.n
        row_basis, _ = self._hint_basis(row_erasures, m, "row_erasures")
        col_basis, col_pivots = self._hint_basis(col_erasures, n, "col_erasures")
        if col_basis:
            # (n - mu) x n over F_q; its rows annihilate the column hints
            kernel = _kernel(q, n, col_basis, col_pivots)
            word = (kernel @ received)._row_indices()
            proj = kernel._data
        else:
            word, proj = received._row_indices(), None
        return self._decode_projected(word, proj, row_basis)

    def _decode_projected(
        self, word: Sequence[int], proj: tuple[int, ...] | None, row_basis: tuple[int, ...]
    ):
        """The decoder once its hints are in place; returns the message, a
        tuple of k element indices, or a DecodeFailure.

        ``proj`` holds the stored rows of a full-rank (n - mu) x n projection
        P whose row space is the annihilator of the column-erasure space
        (None when mu = 0), and ``word`` is the projected word P r as
        element indices.  ``row_basis`` holds the canonical basis of the
        row-erasure space as stored rows of width m (delta rows).  Only the
        row space of P matters: another P' = T P with T invertible over F_q
        gives the same outcome (see the module docstring).

        The core Newton-interpolates sigma(y) on the first r = k + delta
        projected points: h = sum_i c_i A_i, of q-degree < r, with the bases
        A_i of ``_newton_table``, and A = A_r.  The syndrome
        e_j = sigma(y_j) - h(g'_j) at the other n - mu - r >= 2 tau_max
        points gives quot, and the message is f = (h + quot) / sigma unless
        a remainder is nonzero or q-deg f >= k:

        - every e_j is 0: quot = 0, and f leaves a residual in the row
          hints.  A codeword within the radius would leave an error of rank
          <= tau_max on the (n - mu, r) code of sigma(y), of distance
          > tau_max, so a remainder means there is none;
        - tau_max = 0: a codeword within the radius would make every e_j 0;
        - otherwise a nonzero (V, Q), q-deg V <= tau_max > q-deg Q, with
          V(e_j) = Q(A(g'_j)) at the syndrome points gives quot =
          (Q o A) / V: N = V o h + Q o A solves V(sigma(y_s)) = N(g'_s) at
          all n - mu points.  V = 0 would make Q vanish on 2 tau_max
          independent A(g'_j), so Q = 0.

        One solution decides.  A pass gives N = V o sigma o f, so ker V, of
        dimension <= tau_max, holds each sigma(y_s - f(g'_s)): f is within
        the radius.  If F = sigma o f is, with errors E_s = sigma(y_s) -
        F(g'_s) of rank tau, N - V o F (q-degree < r + tau_max) takes V(E_s)
        at g'_s, so it vanishes on the n - mu - tau >= r + tau_max
        independent combinations of the g'_s whose E_s combine to 0: every
        solution gives N / V = F.
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
        r = k + delta

        if proj is None:
            bases, values = self._newton
        else:
            proj = MatrixFq._unchecked(q, n - mu, n, proj)
            bases, values = _newton_table(ops, (proj @ self._points_matrix)._row_indices(), r)
        if delta:
            hint_elements = MatrixFq._unchecked(q, delta, m, row_basis)._row_indices()
            sigma = _lp_annihilator(ops, hint_elements)
            word = _lp_evaluate(ops, sigma, word)

        terms, syndrome = _newton_interpolate(ops, values, word, r)
        if not any(syndrome):
            quot = []
        elif not tau_max:
            return _NO_CODEWORD
        else:
            # key equation on the syndrome points: V(e_j) - Q(A(g'_j)) = 0
            # with q-deg V <= tau_max, q-deg Q <= tau_max - 1; entries
            # e^(q^a) and -A(g')^(q^b), one antilog lookup each (A(g'_j) != 0
            # past r)
            zexp, zlog, order, minus_one = ops.zexp, ops.zlog, ops.order, ops.minus_one
            n_v = tau_max + 1
            qpow_v, qpow_q = ops.qpow[:n_v], ops.qpow[:tau_max]
            rows = [
                ([zexp[zlog[e] * qp % order] for qp in qpow_v] if e else [0] * n_v)
                + [zexp[(la * qp + minus_one) % order] for qp in qpow_q]
                for e, la in zip(syndrome, values[r])
            ]
            sol = _ext_null_vector(ops, rows, n_v + tau_max)
            if sol is None:
                return _NO_CODEWORD
            # V divides V o h, so the remainder of N / V is that of (Q o A) / V
            locator = _trim(sol[:n_v])
            quot, rem = _lp_divide_left(ops, _lp_compose(ops, sol[n_v:], bases[r]), locator)
            if rem:
                return _NO_CODEWORD
        f = _newton_sum(ops, bases, terms, quot)
        if delta:
            f, rem = _lp_divide_left(ops, f, sigma)
            if rem:
                return _NO_CODEWORD
        if len(f) > k:
            return _NO_CODEWORD
        return tuple(f) + (0,) * (k - len(f))

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

    def iter_messages(self):
        """An iterator over every message, as k element indices, in
        ``itertools.product`` order; a message space larger than the
        enumeration cap (``linalg._ENUMERATION_CAP``) is a CapacityError at
        the call."""
        size = self.params.size**self.k
        if size > _ENUMERATION_CAP:
            raise CapacityError(f"message space {size} exceeds the cap {_ENUMERATION_CAP}")
        return itertools.product(range(self.params.size), repeat=self.k)

    @cached_property
    def _codebook(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(messages, codewords): every message as element indices, in
        ``iter_messages`` order, and its codeword as stored rows.

        Built on the first oracle call, after ``iter_messages`` has checked
        the cap, then read by every later call.
        """
        messages = tuple(self.iter_messages())
        return messages, tuple(self._evaluate(f)._data for f in messages)

    def brute_force_decode(self, received: MatrixFq):
        """Minimum rank-distance decoding by a scan of the codebook: the rank
        of the row differences with each codeword, in one bounded scan
        (``linalg._least_rank``); ties fail (``_tie``)."""
        self._check_received(received)
        messages, codewords = self._codebook
        best, index = _least_rank(self.params.q, self.params.m, (), received._data, -1, codewords)
        return _tie(best) if index is None else messages[index]


def _element_indices(params: FieldParams, values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple; a ParameterError unless each is an int in [0, q^m)."""
    size = params.size
    for x in values:
        if not isinstance(x, int) or not 0 <= x < size:
            raise ParameterError(f"{what} must be an element index in [0, {size}), got {x!r}")
    return tuple(values)


def _ext_null_vector(ops: FieldOps, rows: list[list[int]], ncols: int) -> list[int] | None:
    """A nonzero solution of a homogeneous system over F_{q^m}, on element
    indices, or None when there is none: 1 at the first free column and 0
    past it.

    A forward pass (as ``linalg._echelon_gf2``) keeps each row, scaled to
    lead 1, under its leading column once the kept rows have cleared its
    earlier entries; a row subtracts a multiple of a kept row by adding
    logarithms to the kept row's, one antilog lookup per entry.  Every
    column before the free one leads a kept row, solved by back substitution.
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
    free = next((col for col in range(ncols) if col not in kept), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    # x_p = -sum_(p < c <= free) row_p[c] x_c
    for p in range(free - 1, -1, -1):
        logs = kept[p]
        acc = 0
        for c in range(p + 1, free + 1):
            acc = add(acc, zexp[logs[c] + zlog[vec[c]]])
        vec[p] = sub(0, acc)
    return vec
