"""Simulation of the operator channel: U = (V ∩ U) ⊕ E.

Exact mode deletes exactly rho dimensions of the transmitted space and
inserts exactly t error dimensions disjoint from it, so the requested
and realized (rho, t) coincide and d_S(V, U) = rho + t.  Matrix mode
mimics a receiver collecting random linear combinations plus corrupt
packets; there (rho, t) are emergent and only reported.

``make_trial`` is the one trial recipe shared by the harness and the
property suites: seed -> random codeword -> channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ParameterError
from .layered import LayeredCode, LayeredCodeword
from .linalg import (
    MatrixFq,
    Subspace,
    _SAMPLING_ATTEMPT_CAP,
    _back_substitute,
    _echelon,
    _random_rows,
    _span,
    random_full_rank_matrix,
    row_space,
    subspace_distance,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class ChannelSpec:
    """Requested erasure count rho and error count t of the exact channel."""

    rho: int
    t: int

    def __post_init__(self) -> None:
        if self.rho < 0 or self.t < 0:
            raise ParameterError("rho and t must be non-negative")


@dataclass(frozen=True)
class ChannelOutcome:
    """The received space and the realized erasure and error counts."""

    U: Subspace
    realized_rho: int
    realized_t: int

    @property
    def distance(self) -> int:
        """d_S(V, U), fixed by the realized counts in both modes.

        dim(V∩U) = dim V - rho and dim U = dim(V∩U) + t, so
        d_S = dim V + dim U - 2 dim(V∩U) = rho + t.
        """
        return self.realized_rho + self.realized_t


def apply_exact(v: Subspace, spec: ChannelSpec, rng) -> ChannelOutcome:
    """Sample U with exactly the requested erasures and insertions.

    The kept part is spanned by C·B for a uniform full-rank (dim(V) - rho)
    x dim(V) matrix C and V's basis B; at rho = 0 it is V itself, and no C
    is drawn.  E is built by rejection sampling of vectors independent of
    V and of the insertions so far: the missing candidates are drawn in one
    batch (the same stream as one at a time), each extends one kept forward
    pass in turn and is taken iff the pass grows, and only rejected ones are
    drawn again, in at most ``linalg._SAMPLING_ATTEMPT_CAP`` batches, the
    one cap of every rejection sampler.  That forces E ∩ V = {0} and hence
    realized == requested.  One elimination (``linalg._span``) reduces the
    kept rows and the insertions together; at rho = 0 the forward pass
    already spans U, so back substitution on it alone gives U's canonical
    basis.

    At rho = 0 no decoded result depends on the insertions drawn: U ⊇ V,
    so each layer's extraction U_l ⊇ V_l has dimension n_l + t and lies at
    subspace distance at least t (the dimension gap) from every lift, and
    exactly t from the sent one.  A layer thus decodes iff t <= d_R(l) - 1,
    a decoded component lies in V ⊆ U, and SIC never moves the working
    space: every record is a function of (code, t).
    """
    if spec.rho > v.dim:
        raise ParameterError(f"rho = {spec.rho} exceeds dim(V) = {v.dim}")
    if spec.t > v.ambient_dim - v.dim:
        raise ParameterError(
            f"t = {spec.t} exceeds ambient - dim(V) = {v.ambient_dim - v.dim}"
        )
    q, n, kept = v.q, v.ambient_dim, v.dim - spec.rho
    rows = ()
    if 0 < kept < v.dim:
        rows = (random_full_rank_matrix(q, kept, v.dim, rng) @ v.basis)._data
    # insertions must stay independent of all of V, not just the kept part
    span = _echelon(q, n, v.basis._data)
    inserted = 0
    for _ in range(_SAMPLING_ATTEMPT_CAP):
        if inserted == spec.t:
            break
        for cand in _random_rows(q, spec.t - inserted, n, rng):
            before = len(span)
            _echelon(q, n, (cand,), span)
            if len(span) > before:
                rows += (cand,)
                inserted += 1
    if inserted < spec.t:
        raise CapacityError("insertion sampling exceeded its attempt cap")

    if kept == v.dim:
        u = Subspace._unchecked(q, n, _back_substitute(q, n, span)[0])
    else:
        u = _span(q, n, rows)
    if u.dim != kept + spec.t:
        raise CapacityError("channel sampling produced a dependent insertion")
    return ChannelOutcome(U=u, realized_rho=spec.rho, realized_t=spec.t)


def apply_matrix(v: Subspace, collected_packets: int, error_packets: int, rng) -> ChannelOutcome:
    """Receiver-side model: U = rowspace(A B + D Z) with uniform A, D, Z,
    drawn in that order (Z and D draw nothing when there are no error
    packets, and [A | D] is then A itself); A B + D Z is the one product
    [A | D] [B ; Z]."""
    if collected_packets < 0 or error_packets < 0:
        raise ParameterError("packet counts must be non-negative")
    q = v.q
    a = MatrixFq.random(q, collected_packets, v.dim, rng)
    z = MatrixFq.random(q, error_packets, v.ambient_dim, rng)
    d = MatrixFq.random(q, collected_packets, error_packets, rng)
    u = row_space(a.hstack(d) @ v.basis.vstack(z), v.ambient_dim)
    inter = (v.dim + u.dim - subspace_distance(v, u)) // 2  # dim(V∩U)
    return ChannelOutcome(U=u, realized_rho=v.dim - inter, realized_t=u.dim - inter)


def make_trial(
    code: LayeredCode,
    seed: int,
    spec: ChannelSpec | None = None,
    collected: int = 0,
    error_packets: int = 0,
) -> tuple[LayeredCodeword, ChannelOutcome]:
    """One trial from its seed: a random codeword, then the channel.

    Given ``spec`` the exact channel runs, otherwise the matrix channel with
    ``collected`` and ``error_packets``.  Both draw from the one SplitMix64
    stream after the messages, so a trial is fixed by (code, seed, channel).
    """
    rng = SplitMix64(seed)
    word = code.random_codeword(rng)
    if spec is not None:
        outcome = apply_exact(word.V, spec, rng)
    else:
        outcome = apply_matrix(word.V, collected, error_packets, rng)
    return word, outcome
