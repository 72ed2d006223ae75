"""Harness drivers: CSV stability, worker independence, verify manifest."""

import hashlib
import io
import pathlib

import pytest

from lsc.config import parse_config
from lsc.errors import ConfigError
from lsc.gabidulin import DecodeFailure
from lsc.harness import (
    CSV_COLUMNS,
    run_scenario,
    run_search_beyond,
    run_simulate,
    run_verify,
)
from lsc.properties import PROPERTY_MANIFEST, PropertyResult, SUITES, VerifyContext

GOLDEN = pathlib.Path(__file__).parent / "golden" / "simulate_tiny.csv"

TINY_SIM = """\
[field]
q = 2
m = 4

[code]
layers = 3:1, 4:1

[channel]
rho = 0,1
t = 0,1

[run]
algorithm = both
trials = 4
seed = 321
"""

QUICK_VERIFY = """\
[run]
seed = 5

[verify]
random_checks = 200
trials_per_point = 20
extraction_trials = 150
dominance_trials = 40
enumeration_pairs = 15
"""


def test_simulate_counts_and_columns():
    cfg = parse_config(TINY_SIM, "tiny.ini")
    result = run_simulate(cfg)
    lines = result.csv_text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4 * 4 * 3  # grid x trials x algorithms
    assert result.guaranteed_failures == 0
    assert all(row.guaranteed for row in result.summary)


def test_simulate_csv_matches_golden():
    cfg = parse_config(TINY_SIM, "tiny.ini")
    result = run_simulate(cfg)
    assert result.csv_text == GOLDEN.read_text()


def test_simulate_zero_trials_emits_header_only():
    cfg = parse_config(TINY_SIM.replace("trials = 4", "trials = 0"), "tiny.ini")
    result = run_simulate(cfg)
    assert result.csv_text == ",".join(CSV_COLUMNS) + "\n"
    assert result.summary == [] and result.guaranteed_failures == 0


def test_simulate_deterministic_and_worker_independent():
    cfg = parse_config(TINY_SIM, "tiny.ini")
    first = run_simulate(cfg)
    second = run_simulate(cfg)
    assert first.csv_text == second.csv_text
    cfg.workers = 2
    parallel = run_simulate(cfg)
    assert parallel.csv_text == first.csv_text


def test_summary_is_recounted_from_rows():
    cfg = parse_config(TINY_SIM, "tiny.ini")
    result = run_simulate(cfg)
    recount = {}
    for line in result.csv_text.strip().splitlines()[1:]:
        cells = line.split(",")
        key = (int(cells[3]), int(cells[4]), cells[2])
        got = recount.setdefault(key, [0, 0])
        got[0] += 1
        got[1] += int(cells[11])
    for row in result.summary:
        trials, successes = recount[(row.rho, row.t, row.algorithm)]
        assert trials == row.trials and successes == row.successes


def test_trial_seeds_do_not_depend_on_grid_enumeration():
    cfg = parse_config(TINY_SIM, "tiny.ini")
    base = {
        (r.rho_requested, r.t_requested, r.trial): r.seed
        for r in run_simulate(cfg).records
    }
    cfg2 = parse_config(TINY_SIM.replace("rho = 0,1", "rho = 1"), "tiny2.ini")
    for record in run_simulate(cfg2).records:
        key = (record.rho_requested, record.t_requested, record.trial)
        assert base[key] == record.seed


def test_verify_quick_counts_all_green():
    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    out = io.StringIO()
    assert run_verify(cfg, out=out)
    text = out.getvalue()
    for name, _ in PROPERTY_MANIFEST:
        assert name in text
    assert "all properties hold" in text


def test_manifest_matches_executed_suites():
    """Meta-test: the documented property ids equal the executed ones."""
    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    ctx = VerifyContext(
        params=cfg.field_params(),
        code=cfg.build_code(),
        seed=cfg.seed,
        counts=dict(cfg.verify_counts),
    )
    produced = []
    for suite in SUITES:
        for result in suite(ctx):
            assert isinstance(result, PropertyResult)
            produced.append(result.name)
    manifest_names = [name for name, _ in PROPERTY_MANIFEST]
    harness_only = {"harness.csv_deterministic", "harness.summary_consistency"}
    assert set(manifest_names) - set(produced) == harness_only
    assert set(produced) <= set(manifest_names)
    assert len(produced) == len(set(produced))


def test_fault_injection_separates_suites(monkeypatch):
    """A corrupted component decoder breaks the decoding guarantee suite but
    leaves the pure distance bookkeeping suite green."""
    import lsc.lifted as lifted_mod
    from lsc.properties import guaranteed_recovery_suite, extraction_bound_suite

    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    ctx = VerifyContext(
        params=cfg.field_params(),
        code=cfg.build_code(),
        seed=cfg.seed,
        counts={"extraction_trials": 60, "trials_per_point": 5},
    )
    monkeypatch.setattr(
        lifted_mod,
        "subspace_decode",
        lambda code, received: DecodeFailure("radius-exceeded", "fault injection"),
    )
    recovery = {r.name: r for r in guaranteed_recovery_suite(ctx)}
    assert recovery["layered.guaranteed_recovery"].violations > 0
    extraction = extraction_bound_suite(ctx)[0]
    assert extraction.violations == 0


def test_search_finds_patterns_and_respects_profiles():
    text = """\
[channel]
rho = 2
t = 1,2

[run]
seed = 777

[search]
budget = 20000
targets = alg1-beyond, alg2-rescues, alg1-only
alg1-beyond.ds = 4
alg1-beyond.layer_ds = 2,2
alg2-rescues.ds = 3
alg2-rescues.layer_ds = 3,2
alg2-rescues.retry_ds = 2
"""
    cfg = parse_config(text, "search.ini")
    result = run_search_beyond(cfg)
    assert not result.missing
    beyond = result.found["alg1-beyond"]
    assert beyond.ds_vu == 4 and beyond.layer_ds == (2, 2)
    assert all(s == "ok" for s in beyond.alg1_status)
    rescue = result.found["alg2-rescues"]
    assert rescue.ds_vu == 3 and rescue.layer_ds == (3, 2)
    assert rescue.alg1_status[0] == "fail" and all(s == "ok" for s in rescue.alg2_status)
    assert rescue.retry_ds == ((1, 2),)
    only = result.found["alg1-only"]
    assert all(s == "ok" for s in only.alg1_status)
    assert "fail" in only.alg2_status
    dump = beyond.dump()
    assert dump.startswith("# instance alg1-beyond\n")
    assert "V\nambient 11\n" in dump and "U\nambient 11\n" in dump


def test_search_not_found_reports_missing():
    text = """\
[channel]
rho = 2
t = 2

[run]
seed = 1

[search]
budget = 200
targets = alg1-beyond
alg1-beyond.ds = 5
"""
    cfg = parse_config(text, "search.ini")
    result = run_search_beyond(cfg)
    assert result.missing == ("alg1-beyond",)
    assert result.trials_used == 200


def test_search_requires_beyond_grid():
    cfg = parse_config("[channel]\nrho = 0\nt = 0\n", "s.ini")
    with pytest.raises(ConfigError):
        run_search_beyond(cfg)


def test_scenario_multicast_sweep():
    text = """\
[channel]
rho = 1
t = 1

[run]
algorithm = alg2
trials = 15
seed = 6

[scenario]
mode = multicast
"""
    cfg = parse_config(text, "scen.ini")
    result = run_scenario(cfg)
    lines = result.csv_text.strip().splitlines()
    assert lines[0] == "layer_count,rate_symbols,algorithm,trials,successes"
    assert lines[1].startswith("1,4,alg2,15,")
    assert lines[2].startswith("2,8,alg2,15,")


def test_scenario_multicast_zero_noise_full_rate():
    text = """\
[channel]
rho = 0
t = 0

[run]
algorithm = alg1
trials = 10
seed = 3

[scenario]
mode = multicast
"""
    cfg = parse_config(text, "scen.ini")
    result = run_scenario(cfg)
    rows = [line.split(",") for line in result.csv_text.strip().splitlines()[1:]]
    # rate accumulates k_l * m per layer and the noiseless channel never fails
    assert [(r[0], r[1], r[4]) for r in rows] == [("1", "4", "10"), ("2", "8", "10")]


PINNED_SCENARIO = """\
[field]
q = 2
m = 4

[code]
layers = 3:1, 4:1

[channel]
rho = 2
t = 1

[run]
algorithm = {algorithm}
trials = 6
seed = 4242
max_sweeps = 4
workers = {workers}

[scenario]
mode = {mode}
unicast_layer = 1
"""


@pytest.mark.parametrize(
    "mode, algorithm, csv_sha256, summary_sha256",
    [
        (
            "multicast",
            "both",
            "6847b9937b171eb2ab9b6ed008206cd83d5a7d26a71f7a02d02b5a44a0e77c90",
            "6e7c7a8e6926832d1bdb6528a129f77f5987a641c4f2a1c13dce3f1d568addba",
        ),
        (
            "unicast",
            "alg1",
            "f4073c2194d699e9fb1294760a3636f38e1dbb675120a4a7c935ba6f7a42d8aa",
            "e557ea0ecdf5cba48faae7fd1cfdbc57df0363f6bbd1aae7da31345684302083",
        ),
        (
            "multi-source",
            "both",
            "13971af7eff4e6c4b7674ae7b301996dc89ab6fbcdf9615485cca9459f5b9104",
            "82805ec18ba3f990290e08e36c1ad7e3329c5db442e9b0efeba9a4d1d91da5b8",
        ),
    ],
)
def test_scenario_output_bytes_pinned(mode, algorithm, csv_sha256, summary_sha256):
    """Scenario CSV and summary bytes are pinned, so trial construction,
    seeds and row order cannot drift.  The point lies beyond the
    guaranteed regime, so the algorithms disagree and the row order shows
    in the counts.  Two workers must give the same bytes as one."""
    for workers in (1, 2):
        text = PINNED_SCENARIO.format(mode=mode, algorithm=algorithm, workers=workers)
        result = run_scenario(parse_config(text, "pinned.ini"))
        assert hashlib.sha256(result.csv_text.encode()).hexdigest() == csv_sha256
        summary = "\n".join(result.summary_lines)
        assert hashlib.sha256(summary.encode()).hexdigest() == summary_sha256


def test_scenario_requires_single_grid_point():
    cfg = parse_config("[scenario]\nmode = multicast\n", "scen.ini")
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_unicast_equals_alg1_marginal():
    base = """\
[channel]
rho = 2
t = 1

[run]
algorithm = alg1
trials = 60
seed = 31337
"""
    sim_cfg = parse_config(base, "sim.ini")
    sim = run_simulate(sim_cfg)
    marginals = {
        1: [r.layer_status[0] == "ok" for r in sim.records],
        2: [r.layer_status[1] == "ok" for r in sim.records],
    }
    for layer in (1, 2):
        uni_cfg = parse_config(
            base + f"\n[scenario]\nmode = unicast\nunicast_layer = {layer}\n",
            "uni.ini",
        )
        result = run_scenario(uni_cfg)
        outcomes = [
            line.split(",")[5] == "1"
            for line in result.csv_text.strip().splitlines()[1:]
        ]
        assert outcomes == marginals[layer]


def test_scenario_multi_source_reports_layers():
    text = """\
[channel]
rho = 2
t = 1

[run]
algorithm = alg1
trials = 25
seed = 9

[scenario]
mode = multi-source
"""
    cfg = parse_config(text, "ms.ini")
    result = run_scenario(cfg)
    assert any("layer 1" in line for line in result.summary_lines)
    assert any("layer 2" in line for line in result.summary_lines)


def test_unequal_protection_layers_differ():
    """Layers with different distances see different failure rates."""
    text = """\
[code]
layers = 3:1, 4:3

[channel]
rho = 1
t = 1

[run]
algorithm = alg1
trials = 120
seed = 13
"""
    cfg = parse_config(text, "uep.ini")
    code = cfg.build_code()
    assert [2 * l.min_rank_distance for l in code.layers] == [6, 4]
    result = run_simulate(cfg)
    layer1_ok = sum(1 for r in result.records if r.layer_status[0] == "ok")
    layer2_ok = sum(1 for r in result.records if r.layer_status[1] == "ok")
    assert layer1_ok == len(result.records)  # distance 6 covers rho + t = 2
    assert layer2_ok < layer1_ok  # distance 4 does not
