"""Lifting a rank-metric code into a subspace code, and back.

A codeword matrix X becomes the row space of [I_n | X], an n-dimensional
subspace of F_q^(n+m).  Decoding a received space cuts its canonical
basis at the identity/payload column boundary (``linalg.split_basis``,
through the one private ``_split`` both entries share).  The rows that
pivot in the header form H, reduced, with n - mu rows at the surviving
header pivots; their payload parts are the payload rows.  The other
rows, whose header is zero, give the row-space side information
(inserted dimensions) as a canonical basis.

``reduce_received`` spells that out as the inputs of the public
``GabidulinCode.decode_bounded``: the received word r (payload row i at
pivot i, erased rows zero), the row hints, and the column hints, the
header directions lost by the channel (the kernel of H, up to sign).

``subspace_decode`` does not take that detour.  The decoder wants a
projection onto the annihilator of the column hints, and the word
projected there.  The column hints span the kernel of H, so that
annihilator is the row space of H, and H itself is a projection.  Its
projected word is the payload: row i of H is 1 at its own pivot and 0 at
the others, and r is 0 off the pivots, so H r = payload.  So the decoder
core (``GabidulinCode._decode_projected``) gets H's rows, the payload
rows as element indices and the row-hint basis as they are, with no
kernel, no hint elimination and no product.  ``decode_bounded`` on the
reduction would project with T H for some invertible T over F_q, which
gives the same outcome (see ``gabidulin``).  The core returns message
indices; they go to the codeword matrix directly
(``GabidulinCode._codeword_matrix``), and the message elements are built
once, for the result.

Every function here takes the inner ``GabidulinCode`` itself and checks
a received space against its ambient n + m; the lifted code has no object
of its own.  A one-layer ``LayeredCode`` is the same code, and states its
minimum distance 2 (n - k + 1).

The exhaustive oracle ``brute_force_subspace_decode`` reads
``codeword_subspaces``, which lifts the inner code's codebook (built once
per code, see ``gabidulin``) rather than encoding every message again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError
from .field import ExtFieldElement
from .gabidulin import (
    DecodeFailure,
    GabidulinCode,
    RankCodeword,
)
from .linalg import MatrixFq, Subspace, _kernel, identity_lift, split_basis, subspace_distance


@dataclass(frozen=True)
class LiftedDecodeResult:
    matrix: MatrixFq
    message: tuple[ExtFieldElement, ...]


def lift(inner: GabidulinCode, codeword) -> Subspace:
    """Row space of [I_n | X]; already in reduced row echelon form."""
    if isinstance(codeword, RankCodeword):
        matrix = codeword.as_matrix()
    else:
        matrix = codeword
    n, m, q = inner.n, inner.params.m, inner.params.q
    if matrix.rows != n or matrix.cols != m or matrix.q != q:
        raise ParameterError(f"codeword matrix must be {n}x{m} over F_{q}")
    return identity_lift(matrix, 0, n + m)


def _check_ambient(inner: GabidulinCode, received: Subspace) -> None:
    ambient = inner.n + inner.params.m
    if received.ambient_dim != ambient:
        raise ParameterError(f"received space ambient {received.ambient_dim} != {ambient}")


def _split(inner: GabidulinCode, received: Subspace):
    """(pivots, header, payload, rest): the received space's canonical basis
    cut at the header/payload boundary (``linalg.split_basis``)."""
    _check_ambient(inner, received)
    return split_basis(received, inner.n)


def reduce_received(inner: GabidulinCode, received: Subspace):
    """Split a received space into (received word, row hints, column hints).

    Returns (r, row_erasures, col_erasures) where r is an n x m received
    word with erased rows zeroed, row_erasures rows span the payloads of
    the pure-payload basis vectors, and col_erasures rows span the header
    directions lost by the channel: the inputs of ``decode_bounded``.
    """
    n, q = inner.n, inner.params.q
    pivots, header, payload, row_hints = _split(inner, received)
    symbols = [0] * n
    for pivot, symbol in zip(pivots, payload._row_indices()):
        symbols[pivot] = symbol
    word = RankCodeword._from_indices(inner.params, symbols)
    # erased header column j: -e_j plus, at each pivot i, entry j of row i;
    # that is minus the kernel vector of the header rows at free column j,
    # read off the header, which is already reduced with these pivots
    lost = _kernel(q, n, header._data, pivots)
    col_hints = lost if q == 2 else MatrixFq.zeros(q, lost.rows, n) - lost
    return word, row_hints, col_hints


def subspace_decode(inner: GabidulinCode, received: Subspace):
    """Recover (X, message) from a received space, or DecodeFailure.

    Succeeds whenever 2 d_S(V, received) < 2 d_R(inner) for some lifted
    codeword V; beyond that radius success is opportunistic.  The reduced
    header is the decoder's projection and the payload rows its projected
    word (see the module docstring).
    """
    pivots, header, payload, row_hints = _split(inner, received)
    proj = header._data if len(pivots) < inner.n else None
    outcome = inner._decode_projected(payload._row_indices(), proj, row_hints._data)
    if isinstance(outcome, DecodeFailure):
        return outcome
    message = tuple(map(inner.params.from_index, outcome))
    return LiftedDecodeResult(inner._codeword_matrix(outcome), message)


@lru_cache(maxsize=16)
def codeword_subspaces(inner: GabidulinCode, cap: int = 1 << 20):
    """All (subspace, matrix, message) triples of the lifted code, in message
    order: the inner code's codebook, lifted."""
    inner._check_cap(cap)
    q, m, n = inner.params.q, inner.params.m, inner.n
    from_index = inner.params.from_index
    out = []
    for indices, rows in zip(*inner._codebook):
        matrix = MatrixFq._unchecked(q, n, m, rows)
        out.append((lift(inner, matrix), matrix, tuple(map(from_index, indices))))
    return tuple(out)


def brute_force_subspace_decode(inner: GabidulinCode, received: Subspace, cap: int = 1 << 20):
    """Minimum subspace-distance decoding by full enumeration; ties fail.
    A success is a ``LiftedDecodeResult``, as from ``subspace_decode``."""
    _check_ambient(inner, received)
    best = None
    best_dist = None
    tie = False
    for subspace, matrix, message in codeword_subspaces(inner, cap):
        dist = subspace_distance(subspace, received)
        if best_dist is None or dist < best_dist:
            best = LiftedDecodeResult(matrix, message)
            best_dist, tie = dist, False
        elif dist == best_dist:
            tie = True
    if tie:
        return DecodeFailure("tie", f"multiple codewords at distance {best_dist}")
    return best
