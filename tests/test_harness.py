"""Harness drivers: CSV stability, worker independence, verify manifest."""

import dataclasses
import hashlib
import io
import pathlib
import pickle

import pytest

from lsc.channel import ChannelSpec, make_trial
from lsc.config import load_config, parse_config
from lsc.errors import ConfigError, InvariantError, ParameterError
from lsc.field import FieldParams
from lsc.gabidulin import DecodeFailure
from lsc.harness import (
    CSV_COLUMNS,
    TrialRecord,
    _layer_distances,
    run_scenario,
    run_search_beyond,
    run_simulate,
    run_trial,
    run_verify,
)
from lsc.layered import ALGORITHMS, STATUS_OK, LayeredCode
from lsc.lifted import lift
from lsc.linalg import MatrixFq, Subspace, row_space, subspace_distance
from lsc.properties import (
    PROPERTY_MANIFEST,
    PropertyResult,
    SUITES,
    VerifyContext,
    dominance_suite,
)
from lsc.rng import derive_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "simulate_tiny.csv"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

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


def test_csv_cells_follow_the_record_fields():
    """The columns are ``TrialRecord``'s fields, and ``csv_row`` renders a
    record with a distinct value in every field in that order."""
    record = TrialRecord(
        trial=101, seed=102, algorithm="alg2", rho_requested=103, t_requested=104,
        rho_realized=105, t_realized=106, dim_u=107, ds_vu=108, layer_ds=(109, 110),
        layer_status=("ok", "fail"), success=True, sweeps=111, ds_chain=(112, 113),
    )
    cells = {
        "trial": "101", "seed": "102", "algorithm": "alg2", "rho_requested": "103",
        "t_requested": "104", "rho_realized": "105", "t_realized": "106", "dim_u": "107",
        "ds_vu": "108", "layer_ds": "109|110", "layer_status": "ok|fail", "success": "1",
        "sweeps": "111", "ds_chain": "112|113",
    }
    assert CSV_COLUMNS == tuple(cells)
    assert record.csv_row() == tuple(cells[name] for name in CSV_COLUMNS)
    assert GOLDEN.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


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


def test_summary_regime_on_a_grid_across_the_capability():
    text = TINY_SIM.replace("rho = 0,1", "rho = 0,1,2").replace("algorithm = both", "algorithm = alg1")
    result = run_simulate(parse_config(text, "tiny.ini"))
    assert [(row.rho, row.t, row.guaranteed) for row in result.summary] == [
        (0, 0, True),
        (0, 1, True),
        (1, 0, True),
        (1, 1, True),
        (2, 0, True),
        (2, 1, False),
    ]
    # the rows come in (rho, t, algorithm) order, whatever order the grid lists
    text = TINY_SIM.replace("rho = 0,1", "rho = 2,0").replace("trials = 4", "trials = 1")
    result = run_simulate(parse_config(text, "tiny.ini"))
    keys = [(row.rho, row.t, row.algorithm) for row in result.summary]
    assert keys == [(rho, t, alg) for rho in (0, 2) for t in (0, 1) for alg in sorted(ALGORITHMS)]
    # the matrix channel has one point, (None, None), and its rows follow the algorithm
    text = MATRIX_Q3.replace("trials = 12", "trials = 1")
    result = run_simulate(parse_config(text, "q3.ini"))
    assert [(row.rho, row.t, row.algorithm) for row in result.summary] == [
        (None, None, "alg1"),
        (None, None, "alg2"),
        (None, None, "alg2-iterative"),
    ]


def test_workers_start_no_more_processes_than_jobs_or_cpus(monkeypatch):
    """A fake pool records the process count and runs the map serially."""
    import multiprocessing
    import os

    from lsc import harness

    started = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            started.append(chunksize)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(harness, "_WORKER_SHARED", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = parse_config(TINY_SIM.replace("trials = 4", "trials = 8").replace("both", "alg1"), "tiny.ini")
    serial = run_simulate(cfg).csv_text
    assert started == []
    cfg.workers = 100_000
    assert run_simulate(cfg).csv_text == serial
    assert started == [2, 32 // (2 * 8)]  # 32 jobs on the 2 usable CPUs

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._usable_cpus() == 3


def test_spawned_workers_write_the_serial_csv(monkeypatch):
    """Under the spawn start method each worker unpickles the code it is
    handed, and the CSV is still the one-process CSV."""
    import multiprocessing

    from lsc import harness

    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = parse_config(TINY_SIM, "tiny.ini")
    serial = run_simulate(cfg).csv_text
    cfg.workers = 2
    assert run_simulate(cfg).csv_text == serial


def test_a_pickled_code_decodes_as_the_original():
    """What a spawned worker receives: a default.ini code, its memos warmed,
    through pickle, gives the records the original gives."""
    cfg = load_config(str(CONFIGS / "default.ini"))
    code = cfg.build_code()
    run_trial(code, cfg.seed, 0, 2, 1, ALGORITHMS, cfg.max_sweeps)
    clone = pickle.loads(pickle.dumps(code))
    for trial in range(6):
        job = (cfg.seed, trial, trial % 3, 2 - trial % 3, ALGORITHMS, cfg.max_sweeps)
        assert run_trial(clone, *job) == run_trial(code, *job)


def test_matrix_trial_defaults_to_zero_collected_packets():
    code = parse_config(TINY_SIM, "tiny.ini").build_code()
    args = (code, 5, 2, None, None, ALGORITHMS, 4, "matrix")
    records = run_trial(*args)
    assert records == run_trial(*args, collected=0)
    assert {record.dim_u for record in records} == {0}


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


def test_verify_runs_its_suites_in_suites_order(monkeypatch):
    """At one worker the suites start in the order of ``SUITES`` (longest
    first), then the harness suite: the order a pool starts them in."""
    from lsc import harness

    started = []
    timed_suite = harness._timed_suite

    def spy(ctx, suite):
        started.append(suite)
        return timed_suite(ctx, suite)

    monkeypatch.setattr(harness, "_timed_suite", spy)
    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    cfg.workers = 1
    assert run_verify(cfg, out=io.StringIO())
    assert started == [*SUITES, harness._harness_suite]


def test_verify_text_is_the_same_on_a_worker_pool(monkeypatch):
    """The suites run longest first on two processes; the text is the
    one-process text, and each suite's seconds and the total go to the
    ``seconds`` stream, one line each."""
    from lsc import harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    texts = []
    for workers in (1, 2):
        cfg.workers = workers
        out, seconds = io.StringIO(), io.StringIO()
        assert run_verify(cfg, out=out, seconds=seconds)
        texts.append(out.getvalue())
        labels = [line.split(":")[0] for line in seconds.getvalue().splitlines()]
        assert labels == [harness._suite_label(s) for s in SUITES] + ["harness", "total"]
    assert texts[0] == texts[1]


def _raising_suite(ctx):
    raise InvariantError("suite fault injection")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_suite_that_raises_ends_verify(monkeypatch, workers):
    """A suite's exception ends the run, with nothing written, at one
    worker and on a pool."""
    from lsc import harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "SUITES", SUITES + (_raising_suite,))
    cfg = parse_config(QUICK_VERIFY, "verify.ini")
    cfg.workers = workers
    out = io.StringIO()
    with pytest.raises(InvariantError, match="suite fault injection"):
        run_verify(cfg, out=out)
    assert out.getvalue() == ""


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


@pytest.mark.parametrize("operation", ["subspace_sum", "intersection"])
def test_enumeration_references_catch_a_dropped_basis_row(monkeypatch, fp24, operation):
    """subspace.enumeration_agreement flags a sum or an intersection that
    lost the last row of its basis."""
    import lsc.properties as properties

    ctx = VerifyContext(
        params=fp24, code=None, seed=5, counts={"random_checks": 20, "enumeration_pairs": 40}
    )
    clean = {r.name: r for r in properties.subspace_suite(ctx)}
    assert clean["subspace.enumeration_agreement"].violations == 0
    correct = getattr(properties, operation)

    def drop_last_row(v, u):
        out = correct(v, u)
        rows = out.basis.entries[:-1]
        return row_space(MatrixFq(2, len(rows), out.ambient_dim, rows), out.ambient_dim)

    monkeypatch.setattr(properties, operation, drop_last_row)
    faulty = {r.name: r for r in properties.subspace_suite(ctx)}
    assert faulty["subspace.enumeration_agreement"].violations > 0


def test_coords_bijection_catches_a_broken_row_bridge(monkeypatch, fp24):
    """field.coords_bijection checks the rows the codes store, not only the
    index <-> coordinates round trip: a bridge that swaps the rows of two
    elements of F_4 (and its inverse map to match) is flagged on both."""
    import lsc.linalg as linalg
    import lsc.properties as properties

    ctx = VerifyContext(params=fp24, code=None, seed=5, counts={"random_checks": 20})
    clean = {r.name: r for r in properties.field_suite(ctx)}["field.coords_bijection"]
    assert (clean.checks, clean.violations) == (510, 0)
    correct = linalg._index_rows

    def swapped(q, m):
        rows, back = correct(q, m)
        if m != 2:
            return rows, back
        rows = [rows[0], rows[2], rows[1], rows[3]]
        return rows, {v: i for i, v in enumerate(rows)}

    monkeypatch.setattr(linalg, "_index_rows", swapped)
    faulty = {r.name: r for r in properties.field_suite(ctx)}["field.coords_bijection"]
    assert faulty.violations == 2


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


MATRIX_Q3 = """\
[field]
q = 3
m = 4

[code]
layers = 3:1, 4:2

[channel]
mode = matrix
collected = 8
error_packets = 2

[run]
algorithm = both
trials = 12
seed = 77
max_sweeps = 4
"""


def test_unchecked_results_pass_the_checked_constructors(monkeypatch):
    """Route every unchecked construction through the checked constructors.

    The canonical-form and range checks that results skip must all hold,
    and the output bytes must not change."""
    matrix_q3 = run_simulate(parse_config(MATRIX_Q3, "q3.ini")).csv_text
    unchecked = MatrixFq._unchecked

    def checked_matrix(cls, q, rows, cols, data):
        return MatrixFq(q, rows, cols, unchecked(q, rows, cols, data).entries)

    def checked_space(cls, q, n, rows):
        rows = tuple(rows)
        return Subspace(n, MatrixFq._unchecked(q, len(rows), n, rows))

    monkeypatch.setattr(MatrixFq, "_unchecked", classmethod(checked_matrix))
    monkeypatch.setattr(Subspace, "_unchecked", classmethod(checked_space))
    with pytest.raises(ParameterError):
        Subspace._unchecked(2, 3, (0,))

    assert run_simulate(parse_config(TINY_SIM, "tiny.ini")).csv_text == GOLDEN.read_text()
    assert run_simulate(parse_config(MATRIX_Q3, "q3.ini")).csv_text == matrix_q3
    text = PINNED_SCENARIO.format(mode="multicast", algorithm="both", workers=1)
    result = run_scenario(parse_config(text, "pinned.ini"))
    assert hashlib.sha256(result.csv_text.encode()).hexdigest() == (
        "6847b9937b171eb2ab9b6ed008206cd83d5a7d26a71f7a02d02b5a44a0e77c90"
    )


def test_matrix_channel_without_error_packets_is_pinned():
    """With no error packets the matrix channel draws no Z and no D, and
    [A | D] is A: the CSV of a q = 3 run, with erasures and failures in it,
    keeps the bytes it had when both were still built (sha256 measured at
    cdff7ec)."""
    text = MATRIX_Q3.replace("collected = 8", "collected = 6").replace(
        "error_packets = 2", "error_packets = 0"
    ).replace("trials = 12", "trials = 40")
    result = run_simulate(parse_config(text, "q3.ini"))
    assert hashlib.sha256(result.csv_text.encode()).hexdigest() == (
        "1a59696a84f47a586fd508a6c57996f2bbb57ba09d60baebf8b24cd9f8876b7e"
    )
    assert not all(record.success for record in result.records)


@pytest.mark.parametrize("seed", [2166945172, 2441639866])
def test_iterative_dominance_guard_at_small_counts(seed):
    """With 20 trials no plain-SIC failure shows at these seeds; the suite
    draws further trials until one does instead of reporting a violation."""
    cfg = load_config(str(pathlib.Path(__file__).parent.parent / "configs" / "default.ini"))
    ctx = VerifyContext(
        params=cfg.field_params(),
        code=cfg.build_code(),
        seed=seed,
        counts={"dominance_trials": 20},
    )
    (result,) = dominance_suite(ctx)
    assert result.passed, result.line()
    assert 20 < result.checks <= 200


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


def test_scenario_multi_source_csv_is_the_simulate_csv():
    """A multi-source scenario runs simulate's trials at its one point, so
    the two CSVs are byte-identical (docs/formats.md)."""
    text = """\
[channel]
rho = 2
t = 1

[run]
algorithm = both
trials = 50
seed = 9

[scenario]
mode = multi-source
"""
    scenario = run_scenario(parse_config(text, "ms.ini"))
    simulate = run_simulate(parse_config(text, "ms.ini"))
    assert len(scenario.records) == 50 * len(ALGORITHMS)
    assert scenario.csv_text == simulate.csv_text
    assert scenario.guaranteed_failures == simulate.guaranteed_failures == 0


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


def _full_ambient_distance(code, component, space, layer):
    """d_S between a layer's component V_l in the full ambient and the
    unstripped extraction of ``space`` at that layer."""
    return subspace_distance(component, code.embed_component(layer, code.extract_component(space, layer)))


@pytest.mark.parametrize("q, m, shape", [(2, 4, [(3, 1), (4, 1)]), (3, 4, [(3, 1), (4, 2)])])
def test_layer_distances_in_the_component_ambient_match_the_full_ambient(q, m, shape):
    """d_S(V_l, U_l) read in the component ambient equals the distance
    between V_l and the unstripped extraction in the full ambient, on the
    received space and on every SIC working space."""
    code = LayeredCode.standard(FieldParams.default(q, m), shape)

    def full_ambient(word, space):
        return tuple(
            _full_ambient_distance(code, component, space, layer)
            for layer, component in enumerate(word.components, start=1)
        )

    for trial in range(60):
        seed = derive_seed(17, q, trial)
        if trial % 3:
            spec = ChannelSpec(rho=trial % 4, t=(trial // 4) % 4)
            word, outcome = make_trial(code, seed, spec)
        else:
            word, outcome = make_trial(code, seed, collected=6, error_packets=trial // 3 % 3)
        assert _layer_distances(code, word, outcome.U) == full_ambient(word, outcome.U)
        for space in code.decode_alg2(outcome.U, iterative=True).accumulated[1:]:
            got = tuple(
                code.layer_distance(matrix, space, layer)
                for layer, matrix in enumerate(word.component_matrices, start=1)
            )
            assert got == full_ambient(word, space)


def _attempt_code(name):
    """The code of ``configs/<name>.ini``, or "q3": the q = 3 code of the
    sim-matrix-q3 benchmark workload."""
    if name == "q3":
        return LayeredCode.standard(FieldParams.default(3, 4), [(3, 1), (4, 2)])
    return load_config(str(CONFIGS / f"{name}.ini")).build_code()


# unequal_protection's layers differ in k; three_layers' middle layer has
# identity columns on both sides
@pytest.mark.parametrize("name", ["default", "unequal_protection", "three_layers", "q3"])
def test_layer_distance_is_measured_on_every_attempts_extraction(monkeypatch, name):
    """At every attempt of every decoder, ``layer_distance(X_l, working, l)``
    is d_S(lift(X_l), extraction) in the component ambient, computed on a
    code with no step memo, and equals the full-ambient distance.  On an
    alg1 trial the layer distances and the decode extract each layer of
    the received space once: L ``extract_component`` calls in all."""
    code = _attempt_code(name)
    fresh = LayeredCode(code.layers)
    extract = LayeredCode.extract_component
    calls = []

    def counted(self, received, layer):
        if self is counting:
            calls.append(layer)
        return extract(self, received, layer)

    monkeypatch.setattr(LayeredCode, "extract_component", counted)
    for trial in range(40):
        seed = derive_seed(29, code.params.q, trial)
        if trial % 2:
            word, outcome = make_trial(code, seed, ChannelSpec(rho=trial % 4, t=trial // 4 % 4))
        else:
            word, outcome = make_trial(code, seed, collected=5 + trial % 4, error_packets=trial // 2 % 3)
        counting = LayeredCode(code.layers)
        calls.clear()
        _layer_distances(counting, word, outcome.U)
        counting.decode(outcome.U, "alg1")
        assert sorted(calls) == list(range(1, code.num_layers + 1))

        attempts = [(outcome.U, layer) for layer in range(1, code.num_layers + 1)]
        for algorithm in ALGORITHMS[1:]:
            report = code.decode(outcome.U, algorithm, 4)
            attempts += zip(report.accumulated, report.attempt_layers)
        for space, layer in attempts:
            matrix = word.component_matrices[layer - 1]
            got = code.layer_distance(matrix, space, layer)
            inner = code.layers[layer - 1]
            assert got == subspace_distance(lift(inner, matrix), fresh.extract_component(space, layer))
            assert got == _full_ambient_distance(code, word.components[layer - 1], space, layer)
    assert "_step_memo" not in vars(fresh)


@pytest.mark.parametrize("q, m, shape", [(2, 4, [(3, 1), (4, 1)]), (3, 4, [(3, 1), (4, 2)])])
def test_ds_chain_and_layer_ds_match_the_full_distances(q, m, shape):
    """Every record's ``layer_ds`` and ``ds_chain`` equal the distances
    computed in full: d_S(V_l, unstripped extraction of U) per layer, and
    d_S(V, .) of every SIC working space and of the recombined estimate.

    Both channels, all three decoders, inside and beyond the capability.
    The grids reach far enough past the radius that SIC miscorrects
    layers (at seed 23: 96 on the q = 2 code, 194 on the q = 3 code), so
    the chain's real-distance branch is covered too.
    """
    code = LayeredCode.standard(FieldParams.default(q, m), shape)
    grid = [(rho, t) for rho in range(5) for t in range(5)]
    inside = beyond = miscorrected = 0
    for trial in range(200):
        rho, t = grid[trial % len(grid)]
        collected, errors = 5 + trial % 5, trial % 4
        exact = run_trial(code, 23, trial, rho, t, ALGORITHMS, 4)
        matrix = run_trial(code, 23, trial, None, None, ALGORITHMS, 4, "matrix", collected, errors)
        trials = (
            (exact, make_trial(code, exact[0].seed, ChannelSpec(rho=rho, t=t))),
            (matrix, make_trial(code, matrix[0].seed, collected=collected, error_packets=errors)),
        )
        for records, (word, outcome) in trials:
            assert [r.algorithm for r in records] == list(ALGORITHMS)
            layer_ds = tuple(
                subspace_distance(
                    component,
                    code.embed_component(layer, code.extract_component(outcome.U, layer)),
                )
                for layer, component in enumerate(word.components, start=1)
            )
            for record in records:
                report = code.decode(outcome.U, record.algorithm, 4)
                chain = ()
                if report.accumulated:
                    chain = tuple(subspace_distance(word.V, s) for s in report.accumulated) + (
                        subspace_distance(word.V, report.recombined),
                    )
                    miscorrected += sum(
                        r.status == STATUS_OK and r.matrix != word.component_matrices[r.layer - 1]
                        for r in report.layers
                    )
                assert record.layer_ds == layer_ds
                assert record.ds_chain == chain
                if record.ds_vu <= code.capability:
                    inside += 1
                else:
                    beyond += 1
    assert inside and beyond and miscorrected


@pytest.mark.parametrize("name", ["default", "unequal_protection", "three_layers", "q3"])
def test_records_without_erasures_depend_only_on_the_code_and_t(name):
    """At rho = 0, U contains V, so every layer's extraction lies at
    distance exactly t from its sent lift and at least t from every other:
    each record, less its trial and seed, is fixed by (code, t) whatever
    insertions the channel drew (``apply_exact``'s docstring)."""
    code = _attempt_code(name)
    for t in range(code.ambient_dim - code.total_length + 1):
        seen = {
            tuple(
                dataclasses.replace(record, trial=0, seed=0)
                for record in run_trial(code, 31, trial, 0, t, ALGORITHMS, 4)
            )
            for trial in range(60)
        }
        assert len(seen) == 1, (t, seen)
