"""Layered subspace codes: superposition of lifted Gabidulin components.

The overall code stacks L lifted component codes with disjoint identity
blocks sharing one payload block of width m.  Components combine by
direct sum, and a codeword determines its components uniquely, so
decoding splits per layer:

* parallel decoding extracts each component space independently and
  hands it to the component decoder;
* successive-interference-cancellation decoding walks the layers (by
  default from the last to the first), adding each decoded component
  back into the working space before extracting the next, optionally
  sweeping again over failed layers until nothing new decodes.

A layer's coordinates (its identity columns, then the payload columns)
are fixed, so one cached column map serves encoding, embedding and
recomposing (``linalg.embed``) and extraction (``linalg.shorten``, one
elimination with the other columns in front).

Failed layers contribute the zero subspace to the recomposed estimate.

``LayeredCode.capability`` is the one statement of the guaranteed regime:
a received space U with d_S(V, U) <= capability, that is
2 d_S(V, U) < d_S, is decoded by every decoder, whatever the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .errors import InvariantError, ParameterError
from .field import ExtFieldElement, FieldParams
from .gabidulin import DecodeFailure, GabidulinCode
from .linalg import MatrixFq, Subspace, embed, row_space, shorten, subspace_sum

from . import lifted as lifted_mod

STATUS_OK = "ok"
STATUS_FAIL = "fail"


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
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Per layer, the full-ambient columns of the component coordinates.

        The layer's identity columns, then the payload columns; both runs
        increase, so a component basis placed there stays canonical.
        """
        return tuple(
            tuple(range(offset, offset + code.n))
            + tuple(range(self.total_length, self.ambient_dim))
            for offset, code in zip(self.offsets, self.layers)
        )

    def component_lifted(self, layer: int) -> lifted_mod.LiftedCode:
        self._check_layer(layer)
        return lifted_mod.LiftedCode(self.layers[layer - 1])

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

    def component_subspace(self, layer: int, matrix: MatrixFq) -> Subspace:
        """Row space of [0 | I_{n_l} | 0 | X_l] in the full ambient space."""
        self._check_layer(layer)
        code = self.layers[layer - 1]
        if matrix.rows != code.n or matrix.cols != self.params.m:
            raise ParameterError("component matrix has the wrong shape")
        return self.embed_component(layer, lifted_mod.lift(code, matrix))

    def random_messages(self, rng) -> list[list[ExtFieldElement]]:
        """Uniform messages: one ``rng.randbelow`` per symbol, layer by layer."""
        params = self.params
        return [
            list(map(params.from_index, rng.randbelow_many(params.size, code.k)))
            for code in self.layers
        ]

    def encode(self, messages: Sequence[Sequence[ExtFieldElement]]) -> "LayeredCodeword":
        if len(messages) != self.num_layers:
            raise ParameterError(f"need {self.num_layers} messages")
        matrices = tuple(
            code._codeword_matrix(code._indices(message))
            for code, message in zip(self.layers, messages)
        )
        components = tuple(
            self.component_subspace(layer, matrix) for layer, matrix in enumerate(matrices, 1)
        )
        # disjoint identity blocks in layer order: the stacked bases are already canonical
        basis = components[0].basis
        for comp in components[1:]:
            basis = basis.vstack(comp.basis)
        return LayeredCodeword(
            code=self,
            component_matrices=matrices,
            components=components,
            V=Subspace._unchecked(self.ambient_dim, basis),
        )

    # --- layer extraction and embedding ---

    def extract_component(self, received: Subspace, layer: int, strip: bool = True) -> Subspace:
        """Vectors of the received space supported only on layer's columns.

        ``shorten`` on the layer's columns: the result is the canonical basis
        in the component ambient n_l + m.  ``strip=False`` reinserts the
        known-zero columns.
        """
        self._check_layer(layer)
        if received.ambient_dim != self.ambient_dim:
            raise ParameterError("received space has the wrong ambient dimension")
        stripped = shorten(received, self._columns[layer - 1])
        return stripped if strip else self.embed_component(layer, stripped)

    def embed_component(self, layer: int, stripped: Subspace) -> Subspace:
        """Inverse of stripping: reinsert the known-zero columns."""
        self._check_layer(layer)
        if stripped.ambient_dim != self.layers[layer - 1].n + self.params.m:
            raise ParameterError("component space has the wrong ambient dimension")
        return embed(stripped, self._columns[layer - 1], self.ambient_dim)

    def recompose(self, components: Sequence[Subspace]) -> Subspace:
        """Direct-sum the per-layer estimates back into the full ambient."""
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

    def decode_alg1(self, received: Subspace) -> "LayerDecodeReport":
        """Decode every layer independently from the received space."""
        results = []
        for layer in range(1, self.num_layers + 1):
            extracted = self.extract_component(received, layer)
            results.append(self._attempt(layer, extracted))
        return self._build_report("alg1", results, sweeps=1, accumulated=[], attempts=[])

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
        layers are never revisited.
        """
        if max_sweeps < 1:
            raise ParameterError("max_sweeps must be at least 1")
        if order is None:
            order = list(range(self.num_layers, 0, -1))
        else:
            order = list(order)
            if sorted(order) != list(range(1, self.num_layers + 1)):
                raise ParameterError("order must be a permutation of the layers")

        working = received
        results: dict[int, LayerResult] = {}
        accumulated = [working]
        attempts: list[int] = []
        sweeps = 0
        while True:
            sweeps += 1
            decoded_this_sweep = 0
            for layer in order:
                prior = results.get(layer)
                if prior is not None and prior.status == STATUS_OK:
                    continue
                extracted = self.extract_component(working, layer)
                result = self._attempt(layer, extracted)
                results[layer] = result
                if result.status == STATUS_OK:
                    working = subspace_sum(
                        working, self.embed_component(layer, result.component)
                    )
                    decoded_this_sweep += 1
                accumulated.append(working)
                attempts.append(layer)
            if not iterative:
                break
            if decoded_this_sweep == 0 or all(
                r.status == STATUS_OK for r in results.values()
            ):
                break
            if sweeps == max_sweeps:
                break
        ordered = [results[layer] for layer in range(1, self.num_layers + 1)]
        return self._build_report(
            "alg2-iterative" if iterative else "alg2",
            ordered,
            sweeps=sweeps,
            accumulated=accumulated,
            attempts=attempts,
        )

    def _attempt(self, layer: int, extracted: Subspace) -> "LayerResult":
        outcome = lifted_mod.subspace_decode(self.component_lifted(layer), extracted)
        code = self.layers[layer - 1]
        if isinstance(outcome, DecodeFailure):
            return LayerResult(
                layer=layer,
                status=STATUS_FAIL,
                reason=outcome.reason,
                matrix=None,
                message=None,
                component=Subspace.zero(self.params.q, code.n + self.params.m),
            )
        return LayerResult(
            layer=layer,
            status=STATUS_OK,
            reason=None,
            matrix=outcome.matrix,
            message=outcome.message,
            component=lifted_mod.lift(code, outcome.matrix),
        )

    def _build_report(self, algorithm, results, sweeps, accumulated, attempts):
        recombined = self.recompose([r.component for r in results])
        return LayerDecodeReport(
            algorithm=algorithm,
            layers=list(results),
            recombined=recombined,
            sweeps=sweeps,
            accumulated=list(accumulated),
            attempt_layers=list(attempts),
        )


@dataclass(frozen=True)
class LayeredCodeword:
    """A codeword with its per-layer matrices and component spaces."""

    code: LayeredCode
    component_matrices: tuple[MatrixFq, ...]
    components: tuple[Subspace, ...]
    V: Subspace


@dataclass(frozen=True)
class LayerResult:
    """Outcome of one component decode attempt."""

    layer: int
    status: str
    reason: str | None
    matrix: MatrixFq | None
    message: tuple[ExtFieldElement, ...] | None
    component: Subspace  # in the component ambient; zero subspace on failure


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
    accumulated: list[Subspace] = dc_field(default_factory=list)
    attempt_layers: list[int] = dc_field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.status == STATUS_OK for r in self.layers)

    @property
    def decoded_layers(self) -> frozenset[int]:
        return frozenset(r.layer for r in self.layers if r.status == STATUS_OK)

    @property
    def stage_dims(self) -> list[int]:
        return [s.dim for s in self.accumulated]
