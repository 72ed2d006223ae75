"""Seeded workload definitions: each one turns (seed, unit) into config text.

The program under test only ever sees the text returned by
``config_text``; it is handed to ``lsc.config.parse_config``.  A run is a
sequence of units (unit 0, 1, 2, ...), each with its own ``[run] seed``
derived from the benchmark seed, so no two units of a run repeat the same
trials and no cross-call memoisation can make a later unit free.

This module imports nothing from ``lsc``: the set-up probe times
``import lsc`` itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# The seed at which each workload's unit-0 output is compared byte for
# byte (by sha256) with the value recorded at commit a4aa942.
DEFAULT_SEED = 1

# [verify] counts for the quick verify run.  The exhaustive Gabidulin
# oracle inside ``gabidulin_suite`` does not shrink with them.
# layered.iterative_dominance also fails when none of its trials sees a
# plain-SIC failure.  10-17 % of trials do, so with 20 trials that guard
# failed for 2 of 10 seeds; with 100 it fails with probability below
# 1e-4 (0.9^100 = 3e-5), for about 0.4 s more per run_verify.
_VERIFY_COUNTS = """
[verify]
random_checks = 200
trials_per_point = 20
extraction_trials = 200
dominance_trials = 100
enumeration_pairs = 10
"""


@dataclass(frozen=True)
class Workload:
    kind: str  # "simulate" (unit = one run_simulate) or "verify" (unit = one run_verify)
    template: str  # config text with a {seed} placeholder
    trace_units: int  # fixed unit count of the traced run, so counts repeat exactly
    min_units: int  # least unit count of an end-to-end run, whatever --seconds says
    default_sha256: str  # sha256 of unit 0's CSV / verify text at DEFAULT_SEED


WORKLOADS: dict[str, Workload] = {
    # configs/default.ini: the ROADMAP headline workload.  All three
    # decoders overlap; small F_16 products use the product table.
    "sim-default": Workload(
        kind="simulate",
        template="""[field]
q = 2
m = 4
modulus = 1,1,0,0,1

[code]
layers = 3:1, 4:1

[channel]
mode = exact
rho = 0,1,2
t = 0,1,2

[run]
algorithm = both
trials = 4
seed = {seed}
max_sweeps = 4
workers = 1
""",
        trace_units=8,
        min_units=1,
        default_sha256="5a8907e3d9fffbd554ece313cea9057320632ea14c5b074da4fae63359a0a1af",
    ),
    # F_4096 is above the product-table limit, so multiplication is
    # schoolbook; only alg1 runs; the grid spans both regimes.
    "sim-f4096": Workload(
        kind="simulate",
        template="""[field]
q = 2
m = 12

[code]
layers = 6:2, 6:2

[channel]
mode = exact
rho = 0,2,4
t = 0,2,4

[run]
algorithm = alg1
trials = 2
seed = {seed}
workers = 1
""",
        trace_units=8,
        min_units=1,
        default_sha256="9935170fbd40d392f79b2dab882ffa90baaaccc30a92b2ab3cefaee38eaf843f",
    ),
    # Odd q takes the generic rref path; matrix mode runs apply_matrix.
    # With 8 packets collected, cycles needing extra SIC sweeps make up
    # well over 5 % of cycles, so p95 lies inside the slow cycles; with 9,
    # p95 sat on the edge between fast and slow cycles and p95 / p50
    # ranged 1.15-1.52 between seeds (8 collected: 1.41-1.44).
    "sim-matrix-q3": Workload(
        kind="simulate",
        template="""[field]
q = 3
m = 4

[code]
layers = 3:1, 4:2

[channel]
mode = matrix
collected = 8
error_packets = 2

[run]
algorithm = alg2-iterative
trials = 50
seed = {seed}
max_sweeps = 4
workers = 1
""",
        trace_units=8,
        min_units=1,
        default_sha256="cf439f2bbe804be856ed2303dfa4c9e6c274f04b2bcefd71c9ab43d39652d4fa",
    ),
    # The only workload that reaches the brute-force oracle and the
    # property suites.
    "verify-quick": Workload(
        kind="verify",
        template="""[field]
q = 2
m = 4
modulus = 1,1,0,0,1

[code]
layers = 3:1, 4:1

[run]
seed = {seed}
workers = 1
""" + _VERIFY_COUNTS,
        trace_units=1,
        min_units=2,
        default_sha256="7913486d4966abe3bb627da09e0b6bd823f88c13c80c9c157906ae26bfbaef90",
    ),
}


def unit_seed(workload: str, seed: int, unit: int) -> int:
    """The ``[run] seed`` of one unit: a 32-bit digest of its coordinates."""
    digest = hashlib.sha256(f"{workload}/{seed}/{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def config_text(workload: str, seed: int, unit: int) -> str:
    return WORKLOADS[workload].template.format(seed=unit_seed(workload, seed, unit))
