"""CLI end-to-end: verbs, flags, exit codes."""

import dataclasses
import pathlib
import subprocess
import sys

import pytest

from lsc import cli, harness
from lsc.channel import make_trial
from lsc.config import load_config
from lsc.linalg import dump_subspace

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "lsc", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_dump_code(tmp_path):
    proc = run_cli("dump-code", "--config", str(CONFIGS / "default.ini"))
    assert proc.returncode == 0
    assert "overall minimum subspace distance: 6" in proc.stdout
    proc = run_cli("dump-code", "--config", str(CONFIGS / "default.ini"), "--dump")
    assert "zero-message codeword" in proc.stdout
    assert "ambient 11" in proc.stdout


def test_simulate_exit_zero_and_csv(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli(
        "simulate",
        "--config",
        str(CONFIGS / "default.ini"),
        "--trials",
        "5",
        "--out",
        str(out),
    )
    assert proc.returncode == 0
    assert "guaranteed-regime failures: 0" in proc.stdout
    header = out.read_text().splitlines()[0]
    assert header.startswith("trial,seed,algorithm")


def test_simulate_workers_flag_matches_serial(tmp_path):
    base = [
        "simulate",
        "--config",
        str(CONFIGS / "default.ini"),
        "--trials",
        "4",
    ]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(*base, "--out", str(serial)).returncode == 0
    assert run_cli(*base, "--workers", "2", "--out", str(parallel)).returncode == 0
    assert serial.read_text() == parallel.read_text()


def test_seed_override_changes_rows(tmp_path):
    args = [
        "simulate",
        "--config",
        str(CONFIGS / "default.ini"),
        "--trials",
        "3",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--seed", "99", "--out", str(b))
    assert a.read_text() != b.read_text()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[field]\nq = 6\n")
    proc = run_cli("simulate", "--config", str(bad))
    assert proc.returncode == 2
    assert "bad.ini:2" in proc.stderr
    proc = run_cli("simulate", "--config", str(tmp_path / "missing.ini"))
    assert proc.returncode == 2
    # an irreducible modulus, but F_(2^17) is above the 2^16-element bound
    big = tmp_path / "big.ini"
    modulus = ",".join(str(int(i in (0, 3, 17))) for i in range(18))  # x^17 + x^3 + 1
    big.write_text(f"[field]\nq = 2\nm = 17\nmodulus = {modulus}\n")
    proc = run_cli("simulate", "--config", str(big))
    assert proc.returncode == 2
    assert "big.ini:4" in proc.stderr and "2^16" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_search_beyond_exit_codes(tmp_path):
    out = tmp_path / "instances.txt"
    proc = run_cli(
        "search-beyond", "--config", str(CONFIGS / "search.ini"), "--out", str(out)
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert "# instance alg1-beyond" in text
    assert "# instance alg2-rescues" in text
    # impossible profile: bounded budget, distinguishable "not found" exit
    impossible = tmp_path / "impossible.ini"
    impossible.write_text(
        "[channel]\nrho = 2\nt = 2\n\n[run]\nseed = 1\n\n"
        "[search]\nbudget = 150\ntargets = alg1-beyond\nalg1-beyond.ds = 5\n"
    )
    proc = run_cli("search-beyond", "--config", str(impossible), "--out", str(out))
    assert proc.returncode == 3
    assert "not found" in proc.stderr


def test_dump_guaranteed_failures_rederives_the_trial(monkeypatch, capsys):
    # guaranteed-regime failures never occur, so feed the dump a synthetic one
    cfg = load_config(str(CONFIGS / "default.ini"))
    built = []

    def recording_make_trial(*args, **kwargs):
        built.append(make_trial(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "make_trial", recording_make_trial)
    (record,) = harness.run_trial(cfg.build_code(), cfg.seed, 3, 1, 1, ("alg1",), cfg.max_sweeps)
    ((word, outcome),) = built
    assert record.success
    failed = dataclasses.replace(record, success=False)
    result = harness.SimulateResult([record, failed, failed], "", [], 1)
    cli._dump_guaranteed_failures(cfg, result)
    assert capsys.readouterr().out == (
        "# failed trial 3 rho 1 t 1\n"
        f"V\n{dump_subspace(word.V)}U\n{dump_subspace(outcome.U)}"
    )


def test_verify_quick(tmp_path):
    quick = tmp_path / "quick.ini"
    quick.write_text(
        "[run]\nseed = 5\n\n[verify]\nrandom_checks = 150\ntrials_per_point = 10\n"
        "extraction_trials = 80\ndominance_trials = 30\nenumeration_pairs = 10\n"
    )
    proc = run_cli("verify", "--config", str(quick))
    assert proc.returncode == 0
    assert "all properties hold" in proc.stdout


def test_scenario_verb(tmp_path):
    scen = tmp_path / "scen.ini"
    scen.write_text(
        "[channel]\nrho = 1\nt = 1\n\n[run]\nalgorithm = alg1\ntrials = 10\nseed = 2\n\n"
        "[scenario]\nmode = unicast\nunicast_layer = 1\n"
    )
    out = tmp_path / "u.csv"
    proc = run_cli("scenario", "--config", str(scen), "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("trial,seed,rho_requested")
