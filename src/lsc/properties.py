"""Executable property suites backing `lsc verify`.

Each suite replays one of the library's documented invariants with seeded
randomness or exhaustive enumeration and reports check/violation counts.
PROPERTY_MANIFEST is the authoritative list of property ids; a meta-test
asserts that running the suites produces exactly these ids, so the
mapping between documented invariants and executed checks cannot drift.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from operator import xor

from .channel import ChannelSpec, apply_exact, apply_matrix, make_trial
from .field import FieldParams, coords_of, index_of
from .gabidulin import DecodeFailure, GabidulinCode
from .layered import ALGORITHMS, LayeredCode
from .lifted import brute_force_subspace_decode, lift, subspace_decode
from .linalg import (
    MatrixFq,
    intersection,
    random_subspace,
    random_subspace_of,
    rank_distance,
    subspace_distance,
    subspace_sum,
)
from .rng import SplitMix64, derive_seed

PROPERTY_MANIFEST: tuple[tuple[str, str], ...] = (
    ("field.axioms", "add/mul associativity, commutativity, distributivity on random triples"),
    ("field.frobenius_additive", "x -> x^q is additive and fixes F_q-linear combinations"),
    ("field.coords_bijection", "index <-> coords <-> stored row round trip over all elements (q=2, m<=8)"),
    ("subspace.metric_axioms", "subspace distance: symmetry, identity, triangle inequality"),
    ("subspace.dim_identity", "dim(V+U) + dim(V∩U) = dim V + dim U on random pairs"),
    ("subspace.nested_deficiency", "dim(A)-dim(A∩B) >= dim(A')-dim(A'∩B) for random A' ⊆ A"),
    ("subspace.enumeration_agreement", "sum/intersection agree with exhaustive membership"),
    ("gabidulin.encode_linearity", "encode(u+v) = encode(u) + encode(v)"),
    ("gabidulin.mrd_exhaustive", "pairwise rank distances achieve n-k+1 exactly"),
    ("gabidulin.bounded_radius_exhaustive", "all errors within floor((n-k)/2) decode back"),
    ("gabidulin.oracle_agreement", "bounded decoder agrees with brute force when both succeed"),
    ("lifted.distance_identity", "d_S(lift X, lift X') = 2 d_R(X, X') exhaustively"),
    ("lifted.guaranteed_decode", "subspace decode recovers V whenever 2(rho+t) < d_S"),
    ("lifted.oracle_consistency", "subspace decode never contradicts the unique-nearest oracle"),
    ("layered.extraction_bound", "d_S(V,U) >= d_S(V_l,U_l) plus the intersection identities"),
    ("layered.guaranteed_recovery", "guaranteed regime: both algorithms recover V on every layer"),
    ("layered.sic_chain_monotone", "SIC accumulated distances are non-increasing, ending at 0"),
    ("layered.component_direct_sum", "embedded components intersect pairwise trivially"),
    ("layered.component_bijection", "component tuples <-> overall codeword is a bijection"),
    ("layered.min_distance_match", "overall minimum distance equals the component minimum"),
    ("layered.iterative_dominance", "erasure-only: iterative SIC decodes a superset per trial"),
    ("channel.exact_contract", "exact channel: U = (V∩U) ⊕ E dimensions and d_S = rho + t"),
    ("channel.determinism", "identical seeds give identical channel outcomes"),
    ("channel.matrix_bounds", "matrix mode: rho <= dim V and t <= error packets"),
    ("harness.csv_deterministic", "simulate emits byte-identical CSV for identical configs"),
    ("harness.summary_consistency", "summary counts equal recounts of the emitted rows"),
)

# Default of each count a [verify] config section may override.
VERIFY_COUNTS: dict[str, int] = {
    "random_checks": 10_000,
    "trials_per_point": 1000,
    "extraction_trials": 10_000,
    "dominance_trials": 1000,
    "enumeration_pairs": 300,
}


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checks: int
    violations: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{mark} {self.name:34s} checks={self.checks} violations={self.violations}{extra}"


@dataclass
class VerifyContext:
    params: FieldParams
    code: LayeredCode
    seed: int = 1
    counts: dict[str, int] = dc_field(default_factory=dict)

    def count(self, name: str) -> int:
        return self.counts.get(name, VERIFY_COUNTS[name])

    def rng(self, *path: int) -> SplitMix64:
        return SplitMix64(derive_seed(self.seed, *path))


def _tiny_code() -> LayeredCode:
    return LayeredCode.standard(FieldParams.default(2, 2), [(2, 1), (2, 1)])


def guaranteed_grid(code: LayeredCode) -> tuple[tuple[int, int], ...]:
    """All (rho, t) with rho + t within the code's capability and the channel bounds."""
    cap = code.capability
    pairs = []
    for rho in range(0, min(cap, code.total_length) + 1):
        for t in range(0, min(cap - rho, code.params.m) + 1):
            pairs.append((rho, t))
    return tuple(pairs)


# --- finite field ---


def field_suite(ctx: VerifyContext) -> list[PropertyResult]:
    """The axioms on the index arithmetic the codes run (``FieldOps``), and
    the index <-> coordinates <-> stored row round trip (``linalg``'s bridge)."""
    ops, size = ctx.params.ops, ctx.params.size
    add, mul, frob = ops.add, ops.mul, ops.frob
    randbelow = ctx.rng(1).randbelow
    n = ctx.count("random_checks")
    violations = 0
    for _ in range(n):
        a, b, c = randbelow(size), randbelow(size), randbelow(size)
        if mul(mul(a, b), c) != mul(a, mul(b, c)) or mul(a, b) != mul(b, a):
            violations += 1
        elif add(add(a, b), c) != add(a, add(b, c)) or add(a, b) != add(b, a):
            violations += 1
        elif mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            violations += 1
    axioms = PropertyResult("field.axioms", n, violations)

    violations = 0
    for _ in range(n):
        a, b = randbelow(size), randbelow(size)
        if frob(add(a, b), 1) != add(frob(a, 1), frob(b, 1)):
            violations += 1
    additive = PropertyResult("field.frobenius_additive", n, violations)

    checks = violations = 0
    for m in range(1, 9):
        for idx in range(2**m):
            coords = coords_of(idx, 2, m)
            row = MatrixFq._from_indices(2, m, [idx])
            checks += 1
            if index_of(coords, 2) != idx:
                violations += 1
            elif row.entries != (coords,) or row._row_indices() != [idx]:
                violations += 1
    bij = PropertyResult("field.coords_bijection", checks, violations)
    return [axioms, additive, bij]


# --- subspace lattice ---


def subspace_suite(ctx: VerifyContext) -> list[PropertyResult]:
    q = ctx.params.q
    rng = ctx.rng(2)
    n = ctx.count("random_checks")
    metric_viol = dim_viol = 0
    for _ in range(n):
        ambient = rng.randint(1, 11)
        v = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        u = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        w = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        duv, dvw, duw = subspace_distance(u, v), subspace_distance(v, w), subspace_distance(u, w)
        if duv != subspace_distance(v, u) or duv < 0:
            metric_viol += 1
        elif (duv == 0) != (u == v):
            metric_viol += 1
        elif duw > duv + dvw:
            metric_viol += 1
        if subspace_sum(u, v).dim + intersection(u, v).dim != u.dim + v.dim:
            dim_viol += 1
    metric = PropertyResult("subspace.metric_axioms", n, metric_viol)
    dims = PropertyResult("subspace.dim_identity", n, dim_viol)

    pairs = ctx.count("enumeration_pairs")
    enum_viol = 0
    enum_rng = ctx.rng(3)
    for _ in range(pairs):
        ambient = enum_rng.randint(1, 10)
        v = random_subspace(2, ambient, enum_rng.randint(0, ambient), enum_rng)
        u = random_subspace(2, ambient, enum_rng.randint(0, ambient), enum_rng)
        # references from the enumerated vectors alone, with no elimination:
        # V∩U is the vectors both sets hold, and V+U is V's set closed under
        # adding each basis vector of U (at most dim U * |V+U| additions)
        v_vecs = set(v.vectors())
        if set(intersection(v, u).vectors()) != v_vecs & set(u.vectors()):
            enum_viol += 1
        closure = set(v_vecs)
        for b in u.basis.entries:
            closure |= {tuple(map(xor, vec, b)) for vec in closure}
        if set(subspace_sum(v, u).vectors()) != closure:
            enum_viol += 1
    enum = PropertyResult("subspace.enumeration_agreement", pairs, enum_viol)
    return [metric, dims, enum]


def nested_deficiency_suite(ctx: VerifyContext) -> list[PropertyResult]:
    q = ctx.params.q
    rng = ctx.rng(4)
    n = ctx.count("random_checks")
    violations = 0
    for _ in range(n):
        ambient = rng.randint(1, 11)
        a = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        b = random_subspace(q, ambient, rng.randint(0, ambient), rng)
        a_sub = random_subspace_of(a, rng.randint(0, a.dim), rng)
        lhs = a.dim - intersection(a, b).dim
        rhs = a_sub.dim - intersection(a_sub, b).dim
        if lhs < rhs:
            violations += 1
    return [PropertyResult("subspace.nested_deficiency", n, violations)]


# --- Gabidulin codes ---


def _desk_codes(params: FieldParams) -> list[GabidulinCode]:
    return [GabidulinCode.standard(params, n, 1) for n in (3, 4) if n <= params.m]


def gabidulin_suite(ctx: VerifyContext) -> list[PropertyResult]:
    params = FieldParams.default(2, 4)
    rng = ctx.rng(5)
    n_checks = ctx.count("random_checks") // 10
    lin_viol = 0
    code = GabidulinCode.standard(params, 4, 2)
    add = params.ops.add
    for _ in range(n_checks):
        u = [rng.randbelow(16) for _ in range(2)]
        v = [rng.randbelow(16) for _ in range(2)]
        s = list(map(add, u, v))
        if code.encode(s) != code.encode(u) + code.encode(v):
            lin_viol += 1
    linearity = PropertyResult("gabidulin.encode_linearity", n_checks, lin_viol)

    # one set of desk codes, so every oracle call on a code reads one codebook
    desks = _desk_codes(params)
    mrd_checks = mrd_viol = 0
    for desk in desks:
        words = [desk.encode(msg) for msg in desk.iter_messages()]
        dmin = None
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                mrd_checks += 1
                d = rank_distance(a, b)
                dmin = d if dmin is None else min(dmin, d)
        if dmin != desk.min_rank_distance:
            mrd_viol += 1
    mrd = PropertyResult("gabidulin.mrd_exhaustive", mrd_checks, mrd_viol)

    radius_checks = radius_viol = agree_checks = agree_viol = 0
    for desk in desks:
        radius = (desk.n - desk.k) // 2
        errors = _all_small_rank_errors(params, desk.n, radius)
        for msg in desk.iter_messages():
            word = desk.encode(msg)
            for err in errors:
                received = word + err
                radius_checks += 1
                decoded = desk.decode_bounded(received)
                if decoded != msg:
                    radius_viol += 1
                oracle = desk.brute_force_decode(received)
                agree_checks += 1
                if not isinstance(oracle, DecodeFailure) and decoded != oracle:
                    agree_viol += 1
    # beyond-radius probes: agreement still required whenever the bounded
    # decoder succeeds and the oracle has a unique nearest codeword
    desk = desks[0]
    for _ in range(ctx.count("random_checks") // 20):
        msg = (rng.randbelow(params.size),)
        word = desk.encode(msg)
        received = word + MatrixFq.random(2, desk.n, params.m, rng)
        decoded = desk.decode_bounded(received)
        oracle = desk.brute_force_decode(received)
        agree_checks += 1
        if (
            not isinstance(decoded, DecodeFailure)
            and not isinstance(oracle, DecodeFailure)
            and decoded != oracle
        ):
            agree_viol += 1
    radius_result = PropertyResult(
        "gabidulin.bounded_radius_exhaustive", radius_checks, radius_viol
    )
    agreement = PropertyResult("gabidulin.oracle_agreement", agree_checks, agree_viol)
    return [linearity, mrd, radius_result, agreement]


def _all_small_rank_errors(params: FieldParams, n: int, max_rank: int) -> list[MatrixFq]:
    """Every n x m matrix over F_q with rank <= max_rank (desk scale only)."""
    q, m = params.q, params.m
    out = [MatrixFq.zeros(q, n, m)]
    if max_rank == 0:
        return out
    if max_rank > 1:
        raise ValueError("enumeration helper only supports rank <= 1 sweeps")
    seen = set()
    for u in itertools.product(range(q), repeat=n):
        if not any(u):
            continue
        for v in itertools.product(range(q), repeat=m):
            if not any(v):
                continue
            entries = tuple(tuple((a * b) % q for b in v) for a in u)
            if entries not in seen:
                seen.add(entries)
                out.append(MatrixFq(q, n, m, entries))
    return out


# --- lifted codes ---


def lifted_suite(ctx: VerifyContext) -> list[PropertyResult]:
    params = FieldParams.default(2, 4)
    dist_checks = dist_viol = 0
    for desk in _desk_codes(params):
        pairs = [(lift(desk, word), word) for word in map(desk.encode, desk.iter_messages())]
        dmin = None
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                dist_checks += 1
                ds = subspace_distance(pairs[i][0], pairs[j][0])
                dr = rank_distance(pairs[i][1], pairs[j][1])
                if ds != 2 * dr:
                    dist_viol += 1
                dmin = ds if dmin is None else min(dmin, ds)
        if dmin != LayeredCode((desk,)).min_distance():
            dist_viol += 1
    identity = PropertyResult("lifted.distance_identity", dist_checks, dist_viol)

    desk = GabidulinCode.standard(params, 3, 1)
    single = LayeredCode((desk,))
    per_point = ctx.count("trials_per_point")
    dec_checks = dec_viol = oracle_checks = oracle_viol = 0
    for rho, t in guaranteed_grid(single):
        for trial in range(per_point):
            seed = derive_seed(ctx.seed, 6, rho, t, trial)
            word, outcome = make_trial(single, seed, ChannelSpec(rho=rho, t=t))
            sent = word.component_matrices[0]
            result = subspace_decode(desk, outcome.U)
            dec_checks += 1
            if result != sent:
                dec_viol += 1
            oracle = brute_force_subspace_decode(desk, outcome.U)
            oracle_checks += 1
            if oracle != sent:
                oracle_viol += 1
    guaranteed = PropertyResult("lifted.guaranteed_decode", dec_checks, dec_viol)

    # not make_trial, which draws the message first: these trials draw
    # their (rho, t) before the message, and the verify text pins that stream
    for trial in range(per_point):
        trial_rng = SplitMix64(derive_seed(ctx.seed, 7, trial))
        rho = trial_rng.randbelow(4)
        t = trial_rng.randbelow(4)
        msg = (trial_rng.randbelow(16),)
        v = lift(desk, desk.encode(msg))
        outcome = apply_exact(v, ChannelSpec(rho=rho, t=t), trial_rng)
        result = subspace_decode(desk, outcome.U)
        oracle = brute_force_subspace_decode(desk, outcome.U)
        oracle_checks += 1
        if not isinstance(result, DecodeFailure) and not isinstance(oracle, DecodeFailure):
            if result != oracle:
                oracle_viol += 1
        if (
            2 * subspace_distance(v, outcome.U) < single.min_distance()
            and not isinstance(oracle, DecodeFailure)
            and isinstance(result, DecodeFailure)
        ):
            oracle_viol += 1
    consistency = PropertyResult("lifted.oracle_consistency", oracle_checks, oracle_viol)
    return [identity, guaranteed, consistency]


# --- layered codes ---


def extraction_bound_suite(ctx: VerifyContext) -> list[PropertyResult]:
    code = ctx.code
    params = code.params
    n_trials = ctx.count("extraction_trials")
    rho_max = min(4, code.total_length)
    t_max = min(4, params.m)
    grid = [(r, t) for r in range(rho_max + 1) for t in range(t_max + 1)]
    violations = 0
    for trial in range(n_trials):
        rho, t = grid[trial % len(grid)]
        word, outcome = make_trial(
            code, derive_seed(ctx.seed, 8, trial), ChannelSpec(rho=rho, t=t)
        )
        ds = subspace_distance(word.V, outcome.U)
        for layer in range(1, code.num_layers + 1):
            u_l = code.embed_component(layer, code.extract_component(outcome.U, layer))
            v_l = word.components[layer - 1]
            if subspace_distance(v_l, u_l) > ds:
                violations += 1
            if intersection(v_l, outcome.U) != intersection(v_l, u_l):
                violations += 1
            if intersection(u_l, word.V) != intersection(u_l, v_l):
                violations += 1
    return [PropertyResult("layered.extraction_bound", n_trials, violations)]


def guaranteed_recovery_suite(ctx: VerifyContext) -> list[PropertyResult]:
    code = ctx.code
    per_point = ctx.count("trials_per_point")
    grid = guaranteed_grid(code)
    checks = c3_viol = t4_viol = 0
    for rho, t in grid:
        for trial in range(per_point):
            word, outcome = make_trial(
                code, derive_seed(ctx.seed, 9, rho, t, trial), ChannelSpec(rho=rho, t=t)
            )
            checks += 1
            for algorithm in ALGORITHMS:
                report = code.decode(outcome.U, algorithm)
                if not report.all_ok or report.recombined != word.V:
                    c3_viol += 1
                if not report.accumulated:  # parallel decoding has no SIC chain
                    continue
                chain = [subspace_distance(word.V, s) for s in report.accumulated]
                chain.append(subspace_distance(word.V, report.recombined))
                if any(a < b for a, b in zip(chain, chain[1:])):
                    t4_viol += 1
                if report.all_ok and chain[-1] != 0:
                    t4_viol += 1
    return [
        PropertyResult("layered.guaranteed_recovery", checks, c3_viol),
        PropertyResult("layered.sic_chain_monotone", checks, t4_viol),
    ]


def structure_suite(ctx: VerifyContext) -> list[PropertyResult]:
    code = ctx.code
    rng = ctx.rng(10)
    n_random = ctx.count("random_checks") // 20
    ds_checks = ds_viol = 0
    for _ in range(n_random):
        word = code.random_codeword(rng)
        for i in range(code.num_layers):
            for j in range(i + 1, code.num_layers):
                ds_checks += 1
                if intersection(word.components[i], word.components[j]).dim != 0:
                    ds_viol += 1
    direct = PropertyResult("layered.component_direct_sum", ds_checks, ds_viol)

    tiny = _tiny_code()
    tiny_words = []
    size = tiny.params.size
    p2_checks = p2_viol = 0
    for idx1 in range(size):
        for idx2 in range(size):
            word = tiny.encode([[idx1], [idx2]])
            tiny_words.append(word)
            stripped = [
                lift(tiny.layers[layer], word.component_matrices[layer])
                for layer in range(2)
            ]
            p2_checks += 1
            if tiny.recompose(stripped) != word.V:
                p2_viol += 1
            for layer in (1, 2):
                if (
                    tiny.extract_component(word.V, layer)
                    != stripped[layer - 1]
                ):
                    p2_viol += 1
    overall = {w.V for w in tiny_words}
    p2_checks += 1
    if len(overall) != size * size:
        p2_viol += 1
    roundtrip = PropertyResult("layered.component_bijection", p2_checks, p2_viol)

    p3_checks = p3_viol = 0
    dmin = None
    words = [w.V for w in tiny_words]
    for i, a in enumerate(words):
        for b in words:
            if a == b:
                continue
            p3_checks += 1
            d = subspace_distance(a, b)
            dmin = d if dmin is None else min(dmin, d)
    if dmin != tiny.min_distance():
        p3_viol += 1
    if ctx.code.min_distance() != min(
        2 * layer.min_rank_distance for layer in ctx.code.layers
    ):
        p3_viol += 1
    p3 = PropertyResult("layered.min_distance_match", p3_checks, p3_viol)
    return [direct, roundtrip, p3]


def dominance_suite(ctx: VerifyContext) -> list[PropertyResult]:
    code = ctx.code
    n_trials = ctx.count("dominance_trials")
    rho_values = [r for r in (code.capability + 1, code.capability + 2) if r <= code.total_length]
    violations = 0
    observed_failures = 0
    # past n_trials, draw on until plain SIC fails once, so that a small
    # count does not miss the failures the guard below expects
    trial = 0
    while trial < n_trials or (observed_failures == 0 and trial < 10 * n_trials):
        rho = rho_values[trial % len(rho_values)]
        word, outcome = make_trial(
            code, derive_seed(ctx.seed, 11, trial), ChannelSpec(rho=rho, t=0)
        )
        plain = code.decode_alg2(outcome.U)
        iterative = code.decode_alg2(outcome.U, iterative=True)
        if not plain.decoded_layers <= iterative.decoded_layers:
            violations += 1
        if not plain.all_ok:
            observed_failures += 1
        trial += 1
    detail = f"failure trials observed: {observed_failures}"
    if observed_failures == 0:
        violations += 1
        detail += " (expected some non-iterative failures at these erasure counts)"
    return [PropertyResult("layered.iterative_dominance", trial, violations, detail)]


# --- operator channel ---


def channel_suite(ctx: VerifyContext) -> list[PropertyResult]:
    code = ctx.code
    params = code.params
    n_trials = ctx.count("random_checks")
    contract_viol = 0
    for trial in range(n_trials):
        # rho and t are drawn between encode and channel, so no make_trial here
        rng = ctx.rng(12, trial)
        word = code.random_codeword(rng)
        rho = rng.randbelow(min(4, code.total_length) + 1)
        t = rng.randbelow(min(4, params.m) + 1)
        outcome = apply_exact(word.V, ChannelSpec(rho=rho, t=t), rng)
        inter = intersection(word.V, outcome.U)
        if outcome.realized_rho != rho or outcome.realized_t != t:
            contract_viol += 1
        elif inter.dim != word.V.dim - rho:
            contract_viol += 1
        elif outcome.U.dim != inter.dim + t:
            contract_viol += 1
        elif subspace_distance(word.V, outcome.U) != rho + t:
            contract_viol += 1
    contract = PropertyResult("channel.exact_contract", n_trials, contract_viol)

    det_checks = det_viol = 0
    word = code.random_codeword(ctx.rng(13))
    for trial in range(50):
        spec = ChannelSpec(rho=trial % 3, t=trial % 2)
        first = apply_exact(word.V, spec, ctx.rng(14, trial))
        second = apply_exact(word.V, spec, ctx.rng(14, trial))
        det_checks += 1
        if first.U != second.U:
            det_viol += 1
    determinism = PropertyResult("channel.determinism", det_checks, det_viol)

    bounds_checks = bounds_viol = 0
    for trial in range(ctx.count("random_checks") // 10):
        rng = ctx.rng(15, trial)
        word = code.random_codeword(rng)
        collected = rng.randbelow(code.total_length + 3)
        errors = rng.randbelow(3)
        outcome = apply_matrix(word.V, collected, errors, rng)
        bounds_checks += 1
        if outcome.realized_rho > word.V.dim or outcome.realized_t > errors:
            bounds_viol += 1
    bounds = PropertyResult("channel.matrix_bounds", bounds_checks, bounds_viol)
    return [contract, determinism, bounds]


SUITES = (
    field_suite,
    subspace_suite,
    nested_deficiency_suite,
    gabidulin_suite,
    lifted_suite,
    extraction_bound_suite,
    guaranteed_recovery_suite,
    structure_suite,
    dominance_suite,
    channel_suite,
)
