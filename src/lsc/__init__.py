"""Layered subspace codes for random linear network coding.

Construction by superposition of lifted Gabidulin codes, the operator
channel, parallel per-layer decoding, and successive interference
cancellation with an iterative variant.
"""

from .channel import ChannelOutcome, ChannelSpec, apply_exact, apply_matrix
from .errors import CapacityError, ConfigError, InvariantError, ParameterError
from .field import DEFAULT_MODULI, ExtFieldElement, FieldParams
from .gabidulin import DecodeFailure, GabidulinCode
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
    dump_subspace,
    intersection,
    parse_subspace,
    rank_distance,
    row_space,
    subspace_distance,
    subspace_sum,
)
from .rng import SplitMix64, derive_seed

__all__ = [
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
    "MatrixFq",
    "ParameterError",
    "SplitMix64",
    "Subspace",
    "apply_exact",
    "apply_matrix",
    "brute_force_subspace_decode",
    "derive_seed",
    "dump_subspace",
    "intersection",
    "lift",
    "parse_subspace",
    "rank_distance",
    "row_space",
    "subspace_decode",
    "subspace_distance",
    "subspace_sum",
]
