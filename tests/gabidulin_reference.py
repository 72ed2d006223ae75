"""The errors-and-erasures Gabidulin decoder the tests check ``decode_bounded`` against.

This is the Welch-Berlekamp interpolation decoder as it stood before the
decoder learned to skip the steps its hints do not need, and before it
took to Newton interpolation and a key equation on the syndrome: it
always canonicalizes both hints, projects through an n x n identity when
there are no column hints, composes with a degree-0 annihilator when
there are no row hints, and checks a candidate on the full error matrix.  Its helpers
compute with ``FieldOps.add/sub/mul/frob/inv`` and ``_pow`` only.  Kept verbatim
but for ``self`` -> ``code``, ``ops.pow``, now this module's ``_pow`` with
the same body, the codeword evaluation, which used the
decoder's own ``_lp_evaluate``, the hint kernels, which read ``_kernel``
off one more elimination of the hint's canonical basis (it called
``basis.kernel_basis()``, the same matrix), the transpose, now
``rref_reference.transpose`` (it called ``MatrixFq.transpose``), and the
received word, an n x m ``MatrixFq`` whose element indices it reads
with ``received._row_indices()`` (it read ``received._indices`` when a
word had a type of its own).  It reads the evaluation points as
``code.eval_points`` and returns the message as k element indices, since
both are indices now (it read ``code._points`` and returned elements).
"""

from __future__ import annotations

from typing import Sequence

from lsc.errors import ParameterError
from lsc.field import FieldOps
from lsc.gabidulin import REASON_RADIUS, DecodeFailure
from lsc.linalg import MatrixFq, Subspace, _eliminate, _kernel, row_space
from rref_reference import transpose


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _pow(ops: FieldOps, a: int, n: int) -> int:
    if a:
        return ops.zexp[ops.zlog[a] * n % ops.order]
    if n < 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return 0 if n else 1


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
        sigma = _lp_compose(ops, [ops.sub(0, _pow(ops, w, ops.q - 1)), 1], sigma)
    return sigma


def decode_bounded(
    code,
    received,
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
    code._check_received(received)
    params = code.params
    ops = params.ops
    add, sub, mul, frob = ops.add, ops.sub, ops.mul, ops.frob
    m, n, k = params.m, code.n, code.k
    d = code.min_rank_distance

    zs = _canonical_hint(code, row_erasures, m, "row_erasures")
    cs = _canonical_hint(code, col_erasures, n, "col_erasures")
    delta = zs.dim
    mu = cs.dim
    if mu + delta > d - 1:
        return DecodeFailure(REASON_RADIUS, f"mu+delta = {mu + delta} exceeds d-1 = {d - 1}")
    tau_max = (d - 1 - mu - delta) // 2

    sigma = _lp_annihilator(ops, zs.basis._row_indices())
    # (n - mu) x n, rows annihilate the column hints
    proj = _kernel(params.q, n, *_eliminate(params.q, n, cs.basis._data))
    n_prime = proj.rows
    k_prime = k + delta

    def combine(vals: Sequence[int], weights: tuple[int, ...]) -> int:
        acc = 0
        for w, v in zip(weights, vals):
            if w:
                acc = add(acc, mul(v, w))
        return acc

    r = received._row_indices()
    g_proj = [combine(code.eval_points, row) for row in proj.entries]
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

    # m x (m - delta), projects out the row hints; built on first use (the
    # identity when there are none)
    q_ann = None
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
        codeword = [_lp_evaluate(ops, f, g) for g in code.eval_points]
        error = MatrixFq._from_indices(params.q, m, list(map(sub, r, codeword)))
        residual = proj @ error
        if delta:
            if q_ann is None:
                q_ann = transpose(_kernel(params.q, m, *_eliminate(params.q, m, zs.basis._data)))
            residual = residual @ q_ann
        if 2 * residual.rank() + mu + delta <= d - 1:
            return tuple(f + [0] * (k - len(f)))
    return DecodeFailure(REASON_RADIUS, "no codeword within the decoding radius")


def _canonical_hint(code, hint: MatrixFq | None, width: int, name: str) -> Subspace:
    """The space a hint's rows span: one elimination, whose canonical
    basis also gives the hint's kernel."""
    if hint is None:
        return Subspace.zero(code.params.q, width)
    if not isinstance(hint, MatrixFq) or hint.q != code.params.q:
        raise ParameterError(f"{name} must be a MatrixFq over F_{code.params.q}")
    if hint.cols != width:
        raise ParameterError(f"{name} must have width {width}")
    return row_space(hint, width)


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
