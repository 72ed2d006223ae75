"""Layered subspace codes for random linear network coding.

Construction by superposition of lifted Gabidulin codes, the operator
channel, parallel per-layer decoding, and successive interference
cancellation with an iterative variant.
"""

from .channel import ChannelOutcome, ChannelSpec, apply_exact, apply_matrix
from .errors import CapacityError, ConfigError, InvariantError, ParameterError
from .field import BaseElement, DEFAULT_MODULI, ExtFieldElement, FieldParams
from .gabidulin import (
    DecodeFailure,
    GabidulinCode,
    LinearizedPoly,
    RankCodeword,
)
from .layered import (
    LayerDecodeReport,
    LayerResult,
    LayeredCode,
    LayeredCodeword,
)
from .lifted import (
    brute_force_subspace_decode,
    lift,
    subspace_decode,
)
from .linalg import (
    MatrixFq,
    Subspace,
    coordinate_zero_subspace,
    dump_subspace,
    intersection,
    is_direct_sum,
    parse_subspace,
    rank_distance,
    row_space,
    subspace_distance,
    subspace_sum,
)
from .rng import SplitMix64, derive_seed

__all__ = [
    "BaseElement",
    "CapacityError",
    "ChannelOutcome",
    "ChannelSpec",
    "ConfigError",
    "DEFAULT_MODULI",
    "DecodeFailure",
    "ExtFieldElement",
    "FieldParams",
    "GabidulinCode",
    "InvariantError",
    "LayerDecodeReport",
    "LayerResult",
    "LayeredCode",
    "LayeredCodeword",
    "LinearizedPoly",
    "MatrixFq",
    "ParameterError",
    "RankCodeword",
    "SplitMix64",
    "Subspace",
    "apply_exact",
    "apply_matrix",
    "brute_force_subspace_decode",
    "coordinate_zero_subspace",
    "derive_seed",
    "dump_subspace",
    "intersection",
    "is_direct_sum",
    "lift",
    "parse_subspace",
    "rank_distance",
    "row_space",
    "subspace_decode",
    "subspace_distance",
    "subspace_sum",
]
