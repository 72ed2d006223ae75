"""Lifting a rank-metric code into a subspace code, and back.

A codeword matrix X becomes the row space of [I_n | X], an n-dimensional
subspace of F_q^(n+m).  Decoding a received space cuts its canonical
basis at the identity/payload column boundary, in the one private
``_split`` both entries share.  The cut is a test on stored rows, with
no elimination and no ``MatrixFq`` built: the basis rows decrease, so
the rows that pivot in the header are the prefix of rows at least
2^(m b), b bits per entry (``linalg._head_rows``).  Shifted right by m b
they form H, reduced, with n - mu rows at the surviving header pivots;
their low m b bits are the payload rows, read as element indices.  The
other rows, whose header is zero, give the row-space side information
(inserted dimensions) as a canonical basis of width m as they are.

``reduce_received`` spells that out as the inputs of the public
``GabidulinCode.decode_bounded``: the received word r, an n x m
``MatrixFq`` (payload row i at pivot i, erased rows zero), the row
hints, and the column hints, the header directions lost by the channel
(the kernel of H, up to sign).

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
indices, and the result is their codeword matrix X
(``GabidulinCode._codeword_matrix``, read from the code's codeword memo):
the encoding is injective, so X fixes the message.

The same split gives the distance of any lift as one rank.  Write Y for
the payload rows and R for the rest, mu = n - rows(H) and delta =
rows(R).  A vector of A lies in lift(X) = rowspace [I | X] exactly when
its coefficients (b, c) on the rows of [H | Y] and [0 | R] satisfy
b (Y - H X) + c R = 0, so dim(lift X ∩ A) = dim A - rank [Y - H X; R] and

    d_S(lift X, A) = mu - delta + 2 rank [Y - H X; R] = 2 tau(X) + mu + delta,

where tau(X) is the rank of E = Y - H X modulo the row space of R (R's
rows are independent, so rank [E; R] = tau(X) + delta).
``LayeredCode.layer_distance`` keeps the stacked rank
(``linalg._distance``): the rank above is cheaper for q = 2 but about
twice as dear for q = 3 (ROADMAP item 27).

Hence a decode lies within the radius of what it returns:
``subspace_decode`` returns X only if d_S(lift X, A) <= d - 1.  So a
layer attempt outside the radius of the sent X never returns X, the
"only if" half of the bounded-distance claim.  The core gets y = Y and
g' = H g, so f(g') = H X for the f of X (f is F_q-linear and X is f at
the points g): its projected error y - f(g') is E.  The kernel of sigma
is the span of R's rows, so the sigma(E_s) span tau(X) dimensions.  The
core returns f only when mu + delta <= d - 1 and either

- every syndrome is 0 and sigma o f = h: h interpolates sigma(y) at all
  n - mu points, so every sigma(E_s) is 0 and tau(X) = 0; or
- tau_max >= 1 and its key-equation solution (V, Q), with V nonzero of
  q-degree <= tau_max (see the core), passes both divisions: then
  N = V o h + Q o A = V o sigma o f, and N(g'_s) = V(sigma(y_s)) at
  every point (h(g'_s) = sigma(y_s) and A(g'_s) = 0 at the first r,
  V(e_s) = Q(A(g'_s)) at the others).  So V(sigma(E_s)) = 0: every
  sigma(E_s) lies in ker V, of dimension <= tau_max, and tau(X) <= tau_max.

Either way 2 tau(X) + mu + delta <= 2 tau_max + mu + delta <= d - 1.

A lifted decode is a pure function of the inner code and the received
space, and the layered decoders repeat many: alg2's first attempt is
alg1's attempt at layer L, and alg2-iterative's first sweep is all of
alg2.  So ``subspace_decode`` keeps a memo on the inner code
(``GabidulinCode._subspace_decode_memo``), keyed by the received
space's field, ambient and canonical basis, and read through
``gabidulin._memoized``: only a miss runs the uncached ``_decode_space``,
which checks the ambient (``linalg._check_space``) before it decodes.
The memo rules (its bound, and a key stored only once checked) are
stated in ``gabidulin``.  An outcome (a codeword matrix or a
``DecodeFailure``) is immutable, so reports share it.

One level up, ``LayeredCode._step_memo`` keeps the pure rest of an
attempt, by (layer, working space), under the same bound: the
extraction and the SIC sum (see ``layered``).  The step memo does not hold
the outcome: every decoder attempt is still exactly one
``subspace_decode`` call, a dict hit here on a repeat, because perfbench
counts those calls against the attempts a simulate CSV implies.  Folding
the two memos into one waits on that check.

Every function here takes the inner ``GabidulinCode`` itself and checks
that a received space lies in F_q^(n + m), with ``linalg._check_space``;
the lifted code has no object of its own.  A one-layer ``LayeredCode``
is the same code, and states its minimum distance 2 (n - k + 1).

The exhaustive oracle ``brute_force_subspace_decode`` scans the inner
code's one codebook (see ``gabidulin``) in one bounded pass that extends
the received space's forward pass by each codeword's lift, with no
``Subspace`` built.
"""

from __future__ import annotations

from .gabidulin import DecodeFailure, GabidulinCode, _memoized, _tie
from .linalg import (
    MatrixFq,
    Subspace,
    _check_space,
    _field_bits,
    _head_rows,
    _index_rows,
    _kernel,
    _lead_columns,
    _least_rank,
    _lift_rows,
)


def lift(inner: GabidulinCode, matrix: MatrixFq) -> Subspace:
    """Row space of [I_n | X] for the n x m codeword matrix X; already in
    reduced row echelon form."""
    inner._check_received(matrix)
    q, ambient = inner.params.q, inner.n + inner.params.m
    return Subspace._unchecked(q, ambient, _lift_rows(q, matrix._data, 0, ambient))


def _split(inner: GabidulinCode, received: Subspace):
    """(header, payload, rest): the received space's canonical basis cut
    before column n, as stored rows and with no ambient check.

    The rows that lead before column n come first (``linalg._head_rows``):
    ``header`` holds their first n columns, a reduced echelon matrix of
    width n, and ``payload`` their other columns as element indices.
    ``rest`` holds the remaining rows, whose first n columns are zero, so
    they are a canonical basis of width m as they are.
    """
    q, m = inner.params.q, inner.params.m
    data = received.basis._data
    shift = m * _field_bits(q)
    cut = _head_rows(data, shift)
    low = (1 << shift) - 1
    index = _index_rows(q, m)[1]
    head = data[:cut]
    return tuple(v >> shift for v in head), [index[v & low] for v in head], data[cut:]


def reduce_received(inner: GabidulinCode, received: Subspace):
    """Split a received space into (received word, row hints, column hints).

    Returns (r, row_erasures, col_erasures) where r is the n x m received
    word, a ``MatrixFq`` with erased rows zeroed, row_erasures rows span the payloads of
    the pure-payload basis vectors, and col_erasures rows span the header
    directions lost by the channel: the inputs of ``decode_bounded``.
    """
    n, q, m = inner.n, inner.params.q, inner.params.m
    _check_space(received, q, n + m)
    header, payload, rest = _split(inner, received)
    pivots = _lead_columns(header, q, n)
    symbols = [0] * n
    for pivot, symbol in zip(pivots, payload):
        symbols[pivot] = symbol
    word = MatrixFq._from_indices(q, m, symbols)
    # erased header column j: -e_j plus, at each pivot i, entry j of row i;
    # that is minus the kernel vector of the header rows at free column j,
    # read off the header, which is already reduced with these pivots
    lost = _kernel(q, n, header, pivots)
    col_hints = lost if q == 2 else MatrixFq.zeros(q, lost.rows, n) - lost
    return word, MatrixFq._unchecked(q, len(rest), m, rest), col_hints


def subspace_decode(inner: GabidulinCode, received: Subspace):
    """Recover the n x m codeword matrix X from a received space, or DecodeFailure.

    Succeeds whenever 2 d_S(V, received) < 2 d_R(inner) for some lifted
    codeword V; beyond that radius success is opportunistic.  The outcome
    is ``_decode_space``'s, looked up first in the code's memo, keyed by
    the received space's field, ambient and canonical basis, so the ambient
    check runs on a miss.  The layered walk calls this once per attempt, a
    repeat included, and memoizes the extraction before it itself (see the
    module docstring).
    """
    basis = received.basis
    key = (basis.q, received.ambient_dim, basis._data)
    return _memoized(inner._subspace_decode_memo, key, lambda: _decode_space(inner, received))


def _decode_space(inner: GabidulinCode, received: Subspace):
    """``subspace_decode`` without the memo: the ambient check, then the
    reduced header is the decoder's projection and the payload rows its
    projected word (see the module docstring)."""
    _check_space(received, inner.params.q, inner.n + inner.params.m)
    header, payload, rest = _split(inner, received)
    proj = header if len(header) < inner.n else None
    outcome = inner._decode_projected(payload, proj, rest)
    if isinstance(outcome, DecodeFailure):
        return outcome
    return inner._codeword_matrix(outcome)


def brute_force_subspace_decode(inner: GabidulinCode, received: Subspace):
    """Minimum subspace-distance decoding by a scan of the codebook; ties
    fail (``gabidulin._tie``).  A success is the codeword matrix, as from
    ``subspace_decode``.

    d_S(lift X, U) = 2 rank([U; lift X]) - n - dim U, so the nearest lift
    has the least stacked rank: one bounded scan (``linalg._least_rank``)
    extends U's forward pass by each lift's rows, the lift of zero OR-ed
    with the codeword's rows as they are met.
    """
    q, m, n = inner.params.q, inner.params.m, inner.n
    ambient = n + m
    _check_space(received, q, ambient)
    basis = received.basis._data
    codewords = inner._codebook[1]
    best, index = _least_rank(q, ambient, basis, _lift_rows(q, (0,) * n, 0, ambient), 1, codewords)
    if index is None:
        return _tie(2 * best - n - len(basis))
    return MatrixFq._unchecked(q, n, m, codewords[index])
