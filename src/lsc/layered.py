"""Layered subspace codes: superposition of lifted Gabidulin components.

The overall code stacks L lifted component codes with disjoint identity
blocks sharing one payload block of width m.  Components combine by
direct sum, and a codeword determines its components uniquely, so
decoding splits per layer.  One walk over the layers
(``LayeredCode._walk``) serves the three decoders named in ``ALGORITHMS``:

* ``alg1`` (parallel decoding) walks layers 1..L once and extracts each
  component from the received space;
* ``alg2`` (successive interference cancellation) walks the layers (by
  default from the last to the first), adding each decoded component
  back into the working space before extracting the next;
* ``alg2-iterative`` is alg2 sweeping again over failed layers until a
  sweep decodes nothing new.

``LayeredCode.decode(received, algorithm)`` runs one by name;
``decode_alg1`` and ``decode_alg2`` are the same walk with the SIC order
and sweep options spelled out.

A layer's coordinates (its identity columns, then the payload columns)
are fixed.  A component is the lift [0 | I | 0 | X]: the layer's cached
identity rows OR-ed with X's rows (``_lift``), with no elimination.  One
block per layer, its n_l identity columns from ``offsets[l - 1]`` and
then the m payload columns, serves embedding (``linalg.embed``) and
extraction (``linalg.shorten``: the block moves past the later layers'
identity columns, then one elimination).  The last layer has no later
identity columns, so its extraction is read off the canonical basis
with no elimination (see ``linalg``).

Encoding stacks the lifts' rows into V directly, so a codeword's
components are read off V, and a random codeword draws every layer's
message in one batch (the layers share F_{q^m}, so the stream is that
of one batch per layer).  A decoded layer is stored once, as its matrix
X_l (``LayerResult``), which fixes the message; the walk lifts X_l as
encoding does, so the recombined estimate is stacked like an encoded V,
already canonical.  Failed layers contribute the zero subspace.
``recompose`` direct-sums arbitrary per-layer estimates.

An attempt is one step of the walk (``LayeredCode._step``): extract
the layer from the working space and decode it.  On a success the walk
lifts it and, under SIC, spans the working rows and the lift's rows; a
lone ``decode_layer`` builds no lift.  Each part is a pure function of
(layer, working space), and the decoders repeat many steps, so each
code keeps the extraction and the sum in ``_step_memo``, keyed by the
layer and the space's field, ambient and rows and read through
``gabidulin._memoized``; ``extract_component``, which checks the layer
and the space (``linalg._check_space``), is the check a key passes
before it is stored.  The decode itself stays one
``lifted.subspace_decode`` call per attempt, which has its own memo (see
``lifted``).  ``layer_distance`` measures a layer on the extraction an
attempt reads, d_S(lift(X_l), U_l) in the component ambient n_l + m,
through the same memo entry: a trial's layer distances and its decodes
extract each (layer, space) once.  The distance is one stacked rank
(``linalg._distance``) on the stored rows, with no ``Subspace`` built
for the lift.  With the inner codes' codeword, key-equation and decode
memos, a code keeps four, all under the rules in ``gabidulin``.

``LayeredCode.capability`` is the one statement of the guaranteed regime:
a received space U with d_S(V, U) <= capability, that is
2 d_S(V, U) < d_S, is decoded by every decoder, whatever the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from operator import or_
from typing import Iterable, Sequence

from .errors import InvariantError, ParameterError
from .field import FieldParams
from .gabidulin import DecodeFailure, GabidulinCode, _memoized
from .linalg import (
    MatrixFq,
    Subspace,
    _check_space,
    _distance,
    _lift_rows,
    _span,
    embed,
    row_space,
    shorten,
)

from . import lifted as lifted_mod

STATUS_OK = "ok"
STATUS_FAIL = "fail"

# the decoder names, in report order; ``LayeredCode.decode`` runs one by name
ALGORITHMS = ("alg1", "alg2", "alg2-iterative")


def _check_sweeps(max_sweeps: int) -> None:
    """Refuse a sweep bound below 1, whichever decoder it is given to."""
    if max_sweeps < 1:
        raise ParameterError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class LayeredCode:
    """Ordered component Gabidulin codes sharing (q, m); ambient is N + m."""

    layers: tuple[GabidulinCode, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ParameterError("a layered code needs at least one layer")
        params = self.layers[0].params
        for code in self.layers[1:]:
            if code.params != params:
                raise ParameterError("all layers must share the same field")

    @classmethod
    def standard(cls, params: FieldParams, shape: Sequence[tuple[int, int]]) -> "LayeredCode":
        """Build from an ordered list of (n_l, k_l) pairs on default points."""
        return cls(tuple(GabidulinCode.standard(params, n, k) for n, k in shape))

    @property
    def params(self) -> FieldParams:
        return self.layers[0].params

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """offsets[l-1] = sum of n_i for i < l (0-based column of layer l's block)."""
        return tuple(accumulate((code.n for code in self.layers[:-1]), initial=0))

    @cached_property
    def total_length(self) -> int:
        return sum(code.n for code in self.layers)

    @property
    def ambient_dim(self) -> int:
        return self.total_length + self.params.m

    @cached_property
    def _identity_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per layer, the stored rows of its lift of zero, [0 | I_n | 0 | 0]."""
        q, ambient = self.params.q, self.ambient_dim
        return tuple(
            _lift_rows(q, (0,) * code.n, start, ambient)
            for start, code in zip(self.offsets, self.layers)
        )

    def _lift(self, layer: int, matrix: MatrixFq) -> tuple[int, ...]:
        """The canonical rows of [0 | I | 0 | X] in the full ambient for a
        codeword matrix X of ``layer`` whose shape and field are checked."""
        return tuple(map(or_, self._identity_rows[layer - 1], matrix._data))

    @cached_property
    def prefixes(self) -> tuple["LayeredCode", ...]:
        """``prefixes[c - 1]`` is the code of the first c layers; the last is this code."""
        shorter = [LayeredCode(self.layers[:count]) for count in range(1, self.num_layers)]
        return (*shorter, self)

    def min_distance(self) -> int:
        """Minimum subspace distance: the smallest component distance."""
        return min(2 * code.min_rank_distance for code in self.layers)

    @cached_property
    def capability(self) -> int:
        """The largest d_S(V, U) with 2 d_S(V, U) < d_S: every decoder recovers V."""
        return (self.min_distance() - 1) // 2

    def _check_layer(self, layer: int) -> None:
        if not 1 <= layer <= self.num_layers:
            raise ParameterError(f"layer {layer} outside [1, {self.num_layers}]")

    # --- encoding ---

    def random_codeword(self, rng) -> "LayeredCodeword":
        """The codeword of uniform messages: one ``rng.randbelow`` per symbol,
        layer by layer, drawn as element indices in one batch (the layers
        share F_{q^m}, so this is the stream of one batch per layer)."""
        draws = iter(rng.randbelow_many(self.params.size, sum(code.k for code in self.layers)))
        return self._encode_indices([tuple(islice(draws, code.k)) for code in self.layers])

    def encode(self, messages: Sequence[Sequence[int]]) -> "LayeredCodeword":
        """Encode one message per layer, each k_l element indices in [0, q^m)."""
        if len(messages) != self.num_layers:
            raise ParameterError(f"need {self.num_layers} messages")
        return self._encode_indices(
            [code._indices(message) for code, message in zip(self.layers, messages)]
        )

    def _encode_indices(self, messages: Sequence[tuple[int, ...]]) -> "LayeredCodeword":
        """Encode messages given as element indices, one tuple per layer; each
        codeword matrix has its layer's shape, so it is lifted unchecked."""
        matrices = tuple(
            code._codeword_matrix(message) for code, message in zip(self.layers, messages)
        )
        lifts = (self._lift(layer, matrix) for layer, matrix in enumerate(matrices, 1))
        return LayeredCodeword(component_matrices=matrices, V=self._stack(lifts))

    # --- layer extraction and embedding ---

    def extract_component(self, received: Subspace, layer: int) -> Subspace:
        """Vectors of the received space supported only on layer's columns.

        ``shorten`` on the layer's block and the payload: the result is the
        canonical basis in the component ambient n_l + m.
        ``embed_component`` reinserts the known-zero columns.
        """
        self._check_layer(layer)
        _check_space(received, self.params.q, self.ambient_dim)
        return shorten(received, self.offsets[layer - 1], self.layers[layer - 1].n, self.params.m)

    def layer_distance(self, matrix: MatrixFq, space: Subspace, layer: int) -> int:
        """d_S(lift(X_l), U_l) in the component ambient n_l + m, for the
        codeword matrix X_l of ``layer`` and U_l the layer extracted from
        ``space``: the extraction an attempt at ``layer`` on ``space`` decodes.

        One stacked rank (``linalg._distance``)."""
        extracted = self._memo_entry(space, layer)[0]
        code = self.layers[layer - 1]
        code._check_received(matrix)
        q, ambient = self.params.q, code.n + self.params.m
        lift = _lift_rows(q, matrix._data, 0, ambient)
        return _distance(q, ambient, lift, extracted.basis._data)

    def embed_component(self, layer: int, stripped: Subspace) -> Subspace:
        """Inverse of stripping: reinsert the known-zero columns."""
        self._check_layer(layer)
        _check_space(stripped, self.params.q, self.layers[layer - 1].n + self.params.m)
        return embed(stripped, self.offsets[layer - 1], self.layers[layer - 1].n, self.ambient_dim)

    def _stack(self, lifts: Iterable[tuple[int, ...]]) -> Subspace:
        """Stack lifts' rows given in layer order: disjoint identity blocks keep it canonical."""
        return Subspace._unchecked(self.params.q, self.ambient_dim, chain.from_iterable(lifts))

    def recompose(self, components: Sequence[Subspace]) -> Subspace:
        """Direct-sum any per-layer estimates by one elimination, which checks the sum."""
        if len(components) != self.num_layers:
            raise ParameterError(f"need {self.num_layers} component spaces")
        stacked = MatrixFq.zeros(self.params.q, 0, self.ambient_dim)
        for layer, comp in enumerate(components, 1):
            stacked = stacked.vstack(self.embed_component(layer, comp).basis)
        total = row_space(stacked, self.ambient_dim)
        if total.dim != stacked.rows:
            raise InvariantError("component estimates do not combine by direct sum")
        return total

    # --- decoding ---

    def decode(self, received: Subspace, algorithm: str, max_sweeps: int = 8) -> "LayerDecodeReport":
        """Run the decoder ``algorithm`` names, one of ``ALGORITHMS``, through
        ``decode_alg1``/``decode_alg2``: perfbench times those per algorithm."""
        if algorithm not in ALGORITHMS:
            raise ParameterError(f"algorithm must be one of {', '.join(ALGORITHMS)}, got {algorithm!r}")
        _check_sweeps(max_sweeps)
        if algorithm == "alg1":
            return self.decode_alg1(received)
        return self.decode_alg2(received, algorithm == "alg2-iterative", max_sweeps)

    def decode_alg1(self, received: Subspace) -> "LayerDecodeReport":
        """Decode every layer independently from the received space."""
        return self._walk("alg1", received, range(1, self.num_layers + 1), 1)

    def decode_alg2(
        self,
        received: Subspace,
        iterative: bool = False,
        max_sweeps: int = 8,
        order: Sequence[int] | None = None,
    ) -> "LayerDecodeReport":
        """Successive interference cancellation over the layers.

        Walks ``order`` (default: last layer to first), adding each decoded
        component back into the working space before the next extraction.
        With ``iterative`` the sweep repeats over failed layers until a
        sweep decodes nothing new or ``max_sweeps`` is reached; decoded
        layers are never revisited.  Every sweep but the last decodes a
        new layer, so a walk ends within L sweeps (``report.sweeps <=
        num_layers``), and ``max_sweeps`` binds only below L.
        """
        _check_sweeps(max_sweeps)
        order = range(self.num_layers, 0, -1) if order is None else list(order)
        if sorted(order) != list(range(1, self.num_layers + 1)):
            raise ParameterError("order must be a permutation of the layers")
        algorithm = "alg2-iterative" if iterative else "alg2"
        return self._walk(algorithm, received, order, max_sweeps if iterative else 1)

    def _walk(self, algorithm, received, order, max_sweeps) -> "LayerDecodeReport":
        """The one decode loop: sweep ``order`` over the undecoded layers.

        All but ``alg1`` cancel: each decoded component joins the working
        space before the next extraction, and the report records every
        working space.  Sweeps stop at ``max_sweeps``, or when one decodes
        nothing new or nothing is left to decode.
        """
        cancel = algorithm != "alg1"
        working = received
        results: dict[int, LayerResult] = {}
        decoded: dict[int, tuple[int, ...]] = {}  # layer -> its lift's rows (``_lift``)
        accumulated = [working] if cancel else []
        attempts: list[int] = []
        sweeps = 0
        while sweeps < max_sweeps:
            sweeps += 1
            decoded_before = len(decoded)
            for layer in order:
                if layer in decoded:
                    continue
                results[layer], step = self._step(working, layer)
                matrix = results[layer].matrix
                if matrix is not None:
                    decoded[layer] = self._lift(layer, matrix)
                    if cancel:
                        # the sum is built here, where it is read
                        if step[1] is None:
                            rows = working.basis._data + decoded[layer]
                            step[1] = _span(working.q, working.ambient_dim, rows)
                        working = step[1]
                if cancel:
                    accumulated.append(working)
                    attempts.append(layer)
            if len(decoded) == decoded_before or len(decoded) == self.num_layers:
                break
        return LayerDecodeReport(
            algorithm=algorithm,
            layers=[results[layer] for layer in range(1, self.num_layers + 1)],
            recombined=self._stack(decoded[layer] for layer in sorted(decoded)),
            sweeps=sweeps,
            accumulated=accumulated,
            attempt_layers=attempts,
        )

    def decode_layer(self, received: Subspace, layer: int) -> "LayerResult":
        """Decode one layer from ``received`` alone: extract it, then run the
        layer's lifted decoder.  Every decoder attempt is one such step; this
        one builds no lift."""
        return self._step(received, layer)[0]

    @cached_property
    def _step_memo(self) -> dict:
        """The pure results of an attempt on this code (``_memo_entry``), by
        (layer, q, ambient, working basis rows): [extracted component,
        working + its decoded lift], the sum filled by ``_walk`` once the
        step decodes under SIC."""
        return {}

    def _memo_entry(self, space: Subspace, layer: int) -> list:
        """``_step_memo``'s entry for ``layer`` on ``space``.  A space over
        another field or ambient can store the same rows, so the key names
        q and the ambient too.  A miss stores the extraction of
        ``extract_component``, which checks the layer and the space first,
        so a hit is a space that has passed that check."""
        basis = space.basis
        key = (layer, basis.q, space.ambient_dim, basis._data)
        return _memoized(self._step_memo, key, lambda: [self.extract_component(space, layer), None])

    def _step(self, working: Subspace, layer: int):
        """One attempt at ``layer`` on ``working``: (result, memo entry).

        The walk fills the entry's sum.  The outcome is always one
        ``lifted.subspace_decode`` call, whose own memo makes a repeat a
        dict hit (see the module docstring).
        """
        step = self._memo_entry(working, layer)
        outcome = lifted_mod.subspace_decode(self.layers[layer - 1], step[0])
        if isinstance(outcome, DecodeFailure):
            return LayerResult(layer, None, outcome.reason), step
        return LayerResult(layer, outcome, None), step


@dataclass(frozen=True)
class LayeredCodeword:
    """A codeword: its per-layer matrices and the sent space V."""

    component_matrices: tuple[MatrixFq, ...]
    V: Subspace

    @cached_property
    def components(self) -> tuple[Subspace, ...]:
        """Each layer's lift in the full ambient: V's basis rows, n_l per
        layer, in layer order, as encoding stacks them."""
        rows, q, ambient = iter(self.V.basis._data), self.V.q, self.V.ambient_dim
        return tuple(
            Subspace._unchecked(q, ambient, islice(rows, x.rows)) for x in self.component_matrices
        )


@dataclass(frozen=True)
class LayerResult:
    """Outcome of one component decode attempt: the decoded codeword matrix
    X_l (None on failure) or the failure reason (None on success).  The
    encoding is injective, so X_l fixes the message, and the lift
    <[I | X_l]> follows from it (``lifted.lift``)."""

    layer: int
    matrix: MatrixFq | None
    reason: str | None

    @property
    def status(self) -> str:
        return STATUS_FAIL if self.matrix is None else STATUS_OK


@dataclass
class LayerDecodeReport:
    """Per-layer outcomes plus SIC bookkeeping.

    ``accumulated`` holds the working space before any attempt and after
    every attempt (SIC only); ``attempt_layers[i]`` names the layer tried
    between ``accumulated[i]`` and ``accumulated[i+1]``.
    """

    algorithm: str
    layers: list[LayerResult]
    recombined: Subspace
    sweeps: int
    accumulated: list[Subspace]
    attempt_layers: list[int]

    @property
    def all_ok(self) -> bool:
        return all(r.status == STATUS_OK for r in self.layers)

    @property
    def decoded_layers(self) -> frozenset[int]:
        return frozenset(r.layer for r in self.layers if r.status == STATUS_OK)
