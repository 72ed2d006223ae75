"""Acceptance gate: one test per criterion, full counts, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` for the timing/detail prints).
"""

import time

import pytest

from lsc.config import parse_config
from lsc.harness import run_search_beyond, run_simulate
from lsc.linalg import subspace_distance
from lsc.properties import (
    VerifyContext,
    channel_suite,
    guaranteed_recovery_suite,
    dominance_suite,
    gabidulin_suite,
    nested_deficiency_suite,
    lifted_suite,
    structure_suite,
    extraction_bound_suite,
)

SEED = 20240801


def _report(criterion: str, result, extra: str = "") -> None:
    status = "PASS" if result.violations == 0 else "FAIL"
    print(
        f"ACCEPTANCE {criterion}: {status} "
        f"[{result.name} checks={result.checks} violations={result.violations}] {extra}"
    )


@pytest.fixture(scope="module")
def ctx(example_code, fp24):
    return VerifyContext(params=fp24, code=example_code, seed=SEED, counts={})


@pytest.fixture(scope="module")
def guaranteed_regime_results(ctx):
    """Runs criterion 1's 1000-trial sweep once; criteria 1 and 3 share it."""
    start = time.time()
    results = {r.name: r for r in guaranteed_recovery_suite(ctx)}
    results["elapsed"] = time.time() - start
    return results


def test_criterion_01_guaranteed_regime_decoding(guaranteed_regime_results):
    result = guaranteed_regime_results["layered.guaranteed_recovery"]
    elapsed = guaranteed_regime_results["elapsed"]
    _report("1", result, f"(6 grid points x 1000 trials x 3 algorithms, {elapsed:.0f}s)")
    assert result.checks == 6 * 1000  # every (rho, t) with 2(rho+t) < 6
    assert result.violations == 0  # tolerance: zero failures


def test_criterion_02_extraction_distance_bound(ctx):
    ctx.counts["extraction_trials"] = 10_000
    result = extraction_bound_suite(ctx)[0]
    _report("2", result)
    assert result.checks == 10_000
    assert result.violations == 0


def test_criterion_03_sic_monotone_chain(guaranteed_regime_results):
    result = guaranteed_regime_results["layered.sic_chain_monotone"]
    _report("3", result)
    assert result.checks == 6 * 1000
    assert result.violations == 0


def test_criterion_04_nested_deficiency(ctx):
    ctx.counts["random_checks"] = 10_000
    result = nested_deficiency_suite(ctx)[0]
    _report("4", result)
    assert result.checks == 10_000
    assert result.violations == 0


def test_criterion_05_distance_bookkeeping(ctx, tiny_code):
    assert ctx.code.min_distance() == 6
    result = {r.name: r for r in structure_suite(ctx)}["layered.min_distance_match"]
    _report("5", result, "(min_distance = 6; tiny-code 256-pair enumeration)")
    assert result.violations == 0
    # equality, not just a bound: the tiny-code minimum is achieved
    params = tiny_code.params
    words = [
        tiny_code.encode([[i], [j]]).V
        for i in range(params.size)
        for j in range(params.size)
    ]
    distances = [
        subspace_distance(a, b) for a in words for b in words if a != b
    ]
    assert min(distances) == tiny_code.min_distance() == 4


def test_criterion_06_beyond_capability_patterns():
    cfg = parse_config(
        """\
[channel]
rho = 2
t = 1,2

[run]
seed = 20240801

[search]
budget = 1000000
targets = alg1-beyond, alg2-rescues
alg1-beyond.ds = 4
alg1-beyond.layer_ds = 2,2
alg2-rescues.ds = 3
alg2-rescues.layer_ds = 3,2
alg2-rescues.retry_ds = 2
""",
        "acceptance-search.ini",
    )
    result = run_search_beyond(cfg)
    found_a = result.found.get("alg1-beyond")
    found_c = result.found.get("alg2-rescues")
    ok = not result.missing
    print(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} "
        f"[search trials used: {result.trials_used}]"
    )
    assert not result.missing
    assert 2 * found_a.ds_vu > 6  # beyond the overall capability
    assert found_a.ds_vu == 4 and found_a.layer_ds == (2, 2)
    assert all(s == "ok" for s in found_a.alg1_status)
    assert found_c.ds_vu == 3 and found_c.layer_ds == (3, 2)
    assert found_c.alg1_status == ("fail", "ok")
    assert all(s == "ok" for s in found_c.alg2_status)
    assert found_c.retry_ds == ((1, 2),)


def test_criterion_07_decoder_oracle_equivalence(ctx):
    ctx.counts["trials_per_point"] = 1000
    gab = {r.name: r for r in gabidulin_suite(ctx)}
    lifted = {r.name: r for r in lifted_suite(ctx)}
    exhaustive = gab["gabidulin.bounded_radius_exhaustive"]
    agreement = gab["gabidulin.oracle_agreement"]
    guaranteed = lifted["lifted.guaranteed_decode"]
    consistency = lifted["lifted.oracle_consistency"]
    _report("7", exhaustive, "(exhaustive error sweep)")
    _report("7", agreement, "(rank-metric oracle agreement)")
    _report("7", guaranteed, "(>= 1000 channel outcomes per (rho, t))")
    _report("7", consistency, "(subspace oracle consistency)")
    assert exhaustive.violations == 0
    assert agreement.violations == 0
    assert guaranteed.checks >= 6 * 1000
    assert guaranteed.violations == 0
    assert consistency.violations == 0


def test_criterion_08_channel_contract_and_csv_determinism(ctx):
    ctx.counts["random_checks"] = 10_000
    results = {r.name: r for r in channel_suite(ctx)}
    contract = results["channel.exact_contract"]
    _report("8", contract)
    assert contract.checks == 10_000
    assert contract.violations == 0
    assert results["channel.determinism"].violations == 0
    cfg = parse_config(
        "[channel]\nrho = 0,1\nt = 0,1\n\n[run]\ntrials = 25\nseed = 20240801\n",
        "acceptance-sim.ini",
    )
    first = run_simulate(cfg)
    second = run_simulate(cfg)
    identical = first.csv_text == second.csv_text
    print(f"ACCEPTANCE 8 CSV: {'PASS' if identical else 'FAIL'} (byte-identical rerun)")
    assert identical


def test_criterion_09_iterative_dominance(ctx):
    ctx.counts["dominance_trials"] = 1000
    result = dominance_suite(ctx)[0]
    _report("9", result, f"({result.detail})")
    assert result.checks == 1000
    assert result.violations == 0
