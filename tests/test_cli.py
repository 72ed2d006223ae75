"""CLI end-to-end: verbs, flags, exit codes."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from lsc import cli, harness
from lsc import lifted as lifted_mod
from lsc.channel import make_trial
from lsc.config import ExperimentConfig, load_config, parse_config
from lsc.errors import ConfigError
from lsc.gabidulin import DecodeFailure
from lsc.linalg import dump_subspace

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

# the default code on the matrix channel: at this seed, four of the six
# trials land within the capability 2, and two beyond it
MATRIX_SIM = """\
[field]
q = 2
m = 4

[code]
layers = 3:1, 4:1

[channel]
mode = matrix
collected = 8
error_packets = 1

[run]
algorithm = alg1
trials = 6
seed = 6
"""


def _fail_every_decode(monkeypatch):
    monkeypatch.setattr(
        lifted_mod,
        "subspace_decode",
        lambda code, received: DecodeFailure("radius-exceeded", "fault injection"),
    )


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "lsc", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("verb", ["simulate", "dump-code"])
@pytest.mark.parametrize(
    "modulus, line", [("", 2), ("modulus = 1, 1, 0, 0, 1\n", 3)], ids=["default", "modulus"]
)
def test_a_huge_prime_q_is_refused_for_its_size(tmp_path, verb, modulus, line):
    """q = 2^61 - 1 is prime but no field of it fits: it is refused for its
    size before any prime test, at the modulus line if the file sets one,
    else the q line.  The timeout turns a hang into a failure."""
    config = tmp_path / "big.ini"
    config.write_text(f"[field]\nq = 2305843009213693951\n{modulus}")
    proc = run_cli(verb, "--config", str(config), timeout=60)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert (
        f"config error: {config}:{line}: q^m = 2305843009213693951^4 elements is too many; "
        "at most 2^16 = 65536 are supported"
    ) in proc.stderr


# every (verb, flag) pair the verb would ignore; the other 14 pairs are honoured
IGNORED_FLAGS = [
    ("verify", "--trials"),
    ("verify", "--out"),
    ("verify", "--dump"),
    ("search-beyond", "--trials"),
    ("search-beyond", "--workers"),
    ("search-beyond", "--dump"),
    ("scenario", "--dump"),
    ("dump-code", "--seed"),
    ("dump-code", "--trials"),
    ("dump-code", "--workers"),
    ("dump-code", "--out"),
]
# each flag's arguments on the command line, and the value they parse to
# a [run] flag's value stays text until its key's parser reads it (config.override)
FLAG_VALUES = {
    "--seed": (["3"], "3"),
    "--trials": (["2"], "2"),
    "--workers": (["1"], "1"),
    "--out": (["x.out"], "x.out"),
    "--dump": ([], True),
}


@pytest.mark.parametrize("verb, flag", IGNORED_FLAGS)
def test_an_ignored_flag_is_a_usage_error(verb, flag):
    proc = run_cli(verb, "--config", str(CONFIGS / "default.ini"), flag, *FLAG_VALUES[flag][0])
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_every_honoured_flag_parses():
    parser = cli._build_parser()
    verbs = ("simulate", "verify", "search-beyond", "scenario", "dump-code")
    honoured = [
        (verb, flag) for verb in verbs for flag in FLAG_VALUES if (verb, flag) not in IGNORED_FLAGS
    ]
    assert len(honoured) == 14
    for verb, flag in honoured:
        argv, value = FLAG_VALUES[flag]
        assert getattr(parser.parse_args([verb, "--config", "x.ini", flag, *argv]), flag[2:]) == value


def test_dump_code(tmp_path):
    proc = run_cli("dump-code", "--config", str(CONFIGS / "default.ini"))
    assert proc.returncode == 0
    assert "overall minimum subspace distance: 6" in proc.stdout
    proc = run_cli("dump-code", "--config", str(CONFIGS / "default.ini"), "--dump")
    assert "zero-message codeword" in proc.stdout
    assert "ambient 11" in proc.stdout


# sha256 of the whole ``dump-code --dump`` text; CI checks the same pins
DUMP_CODE_SHA256 = {
    "default.ini": "1e824be95ff63c61965c79ad7c3cbc5599dbb340975d2405badee3ba1310e4bb",
    "unequal_protection.ini": "ba98161fc667f88a5f7406fc0f6ff9d25148663717eaf49b8e7deeb8912860f4",
    # the middle layer's component, read off V, has identity columns on both sides
    "three_layers.ini": "b47089183786874ba65c32ed68aeb179595f907a46d30cd5baf6098b39a268ad",
    # the odd-q lift
    "q3.ini": "76eb2dd3a5acf385eb4001ceae91c792e1c7d40660671b1b41ae7d226de7582b",
}


@pytest.mark.parametrize("name", sorted(DUMP_CODE_SHA256))
def test_dump_code_text_is_pinned(capsys, name):
    """The code summary and the zero-message codeword, encoded from the
    all-zero index lists, byte for byte."""
    assert cli.main(["dump-code", "--config", str(CONFIGS / name), "--dump"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_CODE_SHA256[name]

@pytest.mark.parametrize(
    "verb, extra",
    [("dump-code", ()), ("simulate", ("--trials", "1", "--out"))],
)
def test_a_closed_stdout_is_its_own_exit_code(tmp_path, verb, extra):
    """A reader that is gone before the first write (``| head``) gives exit 4
    and no traceback; simulate --out still writes its CSV."""
    if extra:
        extra += (str(tmp_path / "rows.csv"),)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lsc", verb, "--config", str(CONFIGS / "default.ini"), *extra],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=600,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 4
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr
    if verb == "simulate":
        assert (tmp_path / "rows.csv").read_text().startswith("trial,seed,algorithm")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "verb, extra, target",
    [
        ("dump-code", ("--dump",), "write error: stdout"),
        ("simulate", ("--trials", "1", "--out", "/dev/full"), "config error: --out: /dev/full"),
    ],
    ids=["stdout", "out"],
)
def test_a_failed_write_is_one_line_and_exit_2(verb, extra, target, unbuffered):
    """A write or close that fails on a full device, to stdout or to
    ``--out``, is exit 2 with one stderr line naming the target and the
    reason, and no traceback, whether stdout is buffered or not."""
    stdout = "/dev/full" if "stdout" in target else os.devnull
    with open(stdout, "w") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "lsc", verb, "--config", str(CONFIGS / "default.ini"), *extra],
            stdout=sink,
            stderr=subprocess.PIPE,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == cli.EXIT_CONFIG == 2
    assert proc.stderr.splitlines() == [f"{target}: No space left on device"]


@pytest.mark.parametrize(
    "verb, config",
    [("simulate", "default.ini"), ("scenario", "unequal_protection.ini"), ("search-beyond", "search.ini")],
)
def test_an_unwritable_out_stops_before_any_trial(monkeypatch, capsys, tmp_path, verb, config):
    """An ``--out`` path that cannot be opened (a missing directory, or a
    directory) is exit 2 with ``--out: <path>: <reason>`` and no traceback,
    before any trial runs."""

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before --out was opened")

    monkeypatch.setattr(harness, "make_trial", no_trial)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main([verb, "--config", str(CONFIGS / config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out: {out}: " in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


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
    # not UTF-8: a UTF-16 byte-order mark, and a Latin-1 byte on line 3
    utf16 = tmp_path / "utf16.ini"
    utf16.write_bytes("[run]\nseed = 1\n".encode("utf-16"))
    assert utf16.read_bytes()[:2] == b"\xff\xfe"
    proc = run_cli("simulate", "--config", str(utf16))
    assert proc.returncode == 2
    assert "utf16.ini:1" in proc.stderr and "UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
    latin = tmp_path / "latin.ini"
    latin.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="latin.ini:3: not UTF-8"):
        load_config(str(latin))


def test_negative_seed_override_rejected(capsys):
    args = ["simulate", "--config", str(CONFIGS / "default.ini"), "--trials", "1"]
    assert cli.main([*args, "--seed", "-1"]) == 2
    assert "--seed: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("seed", -1), ("seed", 2**64), ("trials", -1), ("workers", 0), ("seed", "1_0")],
)
def test_flag_bounds_are_the_config_keys(flag, value):
    """A [run] flag is checked by its key's parser: its message is the one
    the config line gives, at the flag in place of file:line."""
    with pytest.raises(ConfigError) as refused:
        parse_config(f"[run]\n{flag} = {value}\n", "run.ini")
    message = str(refused.value).replace("run.ini:2", f"--{flag}")
    proc = run_cli("simulate", "--config", str(CONFIGS / "default.ini"), f"--{flag}", str(value))
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {message}\n"
    assert proc.stdout == ""


def test_forced_failure_dump_bytes_are_pinned(monkeypatch, capsys):
    """``simulate --dump`` with every decode made to fail: the CSV, then each
    failed guaranteed-regime trial's header and V/U block (sha256 measured
    at 8b1062c)."""
    _fail_every_decode(monkeypatch)
    args = ["simulate", "--config", str(CONFIGS / "default.ini"), "--trials", "3", "--dump"]
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    assert out.count("# failed trial") == 18
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "936688a84f5eed1f4c82885abc6f2a053c866790df0024749cb02a6a45ada30e"
    )


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


def test_search_beyond_builds_its_code_once(tmp_path, monkeypatch, capsys):
    """One ``lsc search-beyond`` builds one ``LayeredCode``: the verb check's
    code is the one the search runs on.  The instances are ROADMAP's pinned
    search.txt."""
    built = []
    build_code = ExperimentConfig.build_code

    def counted(cfg):
        built.append(cfg)
        return build_code(cfg)

    monkeypatch.setattr(ExperimentConfig, "build_code", counted)
    out = tmp_path / "search.txt"
    assert cli.main(["search-beyond", "--config", str(CONFIGS / "search.ini"), "--out", str(out)]) == 0
    assert len(built) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "42a2dfb580a7714e359b448fc5b4ed28da6acf861da18cce39f1f329f6a2e518"
    )
    capsys.readouterr()


def test_dump_guaranteed_failures_rederives_the_trial(monkeypatch):
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
    assert harness.dump_guaranteed_failures(cfg, [record, failed, failed]) == (
        "# failed trial 3 rho 1 t 1\n"
        f"V\n{dump_subspace(word.V)}U\n{dump_subspace(outcome.U)}"
    )
    assert len(built) == 2 and built[1] == built[0]


def test_matrix_channel_failures_within_capability_are_gated(monkeypatch, tmp_path, capsys):
    _fail_every_decode(monkeypatch)
    result = harness.run_simulate(parse_config(MATRIX_SIM, "matrix.ini"))
    inside = [r for r in result.records if r.ds_vu <= 2]
    assert 0 < len(inside) < len(result.records)
    assert not any(r.success for r in result.records)
    assert result.guaranteed_failures == len(inside)
    config = tmp_path / "matrix.ini"
    config.write_text(MATRIX_SIM)
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "rows.csv")]
    assert cli.main(args) == 1
    assert f"guaranteed-regime failures: {len(inside)}" in capsys.readouterr().out


def test_dump_prints_the_failed_matrix_channel_trials(monkeypatch, tmp_path, capsys):
    _fail_every_decode(monkeypatch)
    built = {}

    def recording_make_trial(code, seed, *args, **kwargs):
        built[seed] = make_trial(code, seed, *args, **kwargs)
        return built[seed]

    monkeypatch.setattr(harness, "make_trial", recording_make_trial)
    config = tmp_path / "matrix.ini"
    config.write_text(MATRIX_SIM)
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "rows.csv"), "--dump"]
    assert cli.main(args) == 1
    expected = ""
    for record in harness.run_simulate(parse_config(MATRIX_SIM, "matrix.ini")).records:
        if record.ds_vu > 2:
            continue
        word, outcome = built[record.seed]
        expected += (
            f"# failed trial {record.trial} rho {record.rho_realized} t {record.t_realized}\n"
            f"V\n{dump_subspace(word.V)}U\n{dump_subspace(outcome.U)}"
        )
    assert expected
    out = capsys.readouterr().out
    assert out[out.index("# failed trial"):] == expected


def test_multi_source_scenario_failures_within_capability_are_gated(
    monkeypatch, tmp_path, capsys
):
    """A multi-source scenario runs simulate's records, so it applies the
    same gate: a failed record within the capability exits 1."""
    config = tmp_path / "ms.ini"
    config.write_text(
        "[channel]\nrho = 1\nt = 1\n\n[run]\nalgorithm = both\ntrials = 4\nseed = 3\n\n"
        "[scenario]\nmode = multi-source\n"
    )
    args = ["scenario", "--config", str(config), "--out", str(tmp_path / "ms.csv")]
    assert cli.main(args) == 0
    assert "guaranteed-regime failures" not in capsys.readouterr().out
    _fail_every_decode(monkeypatch)
    assert cli.main(args) == 1
    # every record lies at ds_vu = rho + t = 2, within the capability 2
    assert "guaranteed-regime failures: 12\n" in capsys.readouterr().out


# one grid point; at rho = 2 it lies beyond the capability 2, so the
# algorithms disagree, and at rho = 1 within it
CONSOLE_CONFIG = """\
[code]
layers = 3:1, 4:1

[channel]
rho = {rho}
t = 1

[run]
algorithm = both
trials = 4
seed = 4242

[scenario]
mode = {mode}
"""

# (verb, mode, rho, every decode failing) -> with and without --out: the
# exit code and the sha256 of stdout and of stderr (measured at 1d76ee9)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
CONSOLE_BYTES = {
    ("simulate", "multicast", 2, False): (
        (0, "83c402af1285a1a5cc7cbc499c9d79d840397ac06fc0792f21a8d9aa346deaff",
         "3b87062ffe56b70578516202c3f51a9b8a8d72e0bc72c7469cbdf192a4bc7841"),
        (0, "3b87062ffe56b70578516202c3f51a9b8a8d72e0bc72c7469cbdf192a4bc7841", EMPTY),
    ),
    ("scenario", "multicast", 2, False): (
        (0, "269ac089312cce99e5861da0355b2f4d9eeac911a720e48686a0fc11752d0ea7",
         "5144e1b364f10a8f09754c904a78243aefcd5c9831a256030ae58cfd64331dc5"),
        (0, "5144e1b364f10a8f09754c904a78243aefcd5c9831a256030ae58cfd64331dc5", EMPTY),
    ),
    ("scenario", "multi-source", 2, False): (
        (0, "83c402af1285a1a5cc7cbc499c9d79d840397ac06fc0792f21a8d9aa346deaff",
         "611cf1d366d95c791c592920cacb39758ce0f48e3f60c2f3c95030f099a76d7d"),
        (0, "611cf1d366d95c791c592920cacb39758ce0f48e3f60c2f3c95030f099a76d7d", EMPTY),
    ),
    ("scenario", "unicast", 2, False): (
        (0, "c72c2dcb9148f94c7ffdbf301cd133671537e4965879ed5815a143da3321efff",
         "afa8c53c0df09a3f119c64778b39e78cc1bd6cb9e7d114f04561d840e17e7a15"),
        (0, "afa8c53c0df09a3f119c64778b39e78cc1bd6cb9e7d114f04561d840e17e7a15", EMPTY),
    ),
    ("scenario", "multi-source", 1, True): (
        (1, "05b4e274341199eee539d1f7d6d227bb15a88b85198d4a56d534bf241cfdc19e",
         "e131a3d01772604d95b4fe42538fbf65a22865b5903f0b51cba6d4668bea1495"),
        (1, "e131a3d01772604d95b4fe42538fbf65a22865b5903f0b51cba6d4668bea1495", EMPTY),
    ),
}


@pytest.mark.parametrize(
    "verb, mode, rho, failing",
    list(CONSOLE_BYTES),
    ids=["simulate", "multicast", "multi-source", "unicast", "multi-source-failing"],
)
def test_console_bytes_are_pinned(monkeypatch, tmp_path, capsys, verb, mode, rho, failing):
    """What ``simulate`` and ``scenario`` write to each stream: the CSV to
    stdout, or to ``--out``, where it is the stdout of the run without it;
    the summary to stderr, or to stdout with ``--out``.  With every decode
    failing, the guaranteed-regime failures line comes once, last on the
    summary's stream, and the exit code is 1."""
    if failing:
        _fail_every_decode(monkeypatch)
    config = tmp_path / "console.ini"
    config.write_text(CONSOLE_CONFIG.format(rho=rho, mode=mode))
    out = tmp_path / "out.csv"
    runs = []
    for extra in ([], ["--out", str(out)]):
        code = cli.main([verb, "--config", str(config), *extra])
        runs.append((code, *capsys.readouterr()))
    got = tuple(
        (code, *(hashlib.sha256(text.encode()).hexdigest() for text in streams))
        for code, *streams in runs
    )
    assert got == CONSOLE_BYTES[verb, mode, rho, failing]
    (_, csv, summary), _ = runs
    assert out.read_text() == csv
    if failing:
        line = "guaranteed-regime failures: 12\n"
        assert summary.endswith(line) and summary.count(line) == 1
        assert "guaranteed-regime" not in csv


# F_121 = F_11[x]/(x^2 + 1): dump entries could need two digits
Q11_CONFIG = """\
[field]
q = 11
m = 2
modulus = 1,0,1

[code]
layers = 1:1, 2:1

[channel]
rho = 1
t = 1

[run]
trials = 2
"""


def test_dumping_verbs_need_q_at_most_10(tmp_path, capsys):
    """search-beyond and simulate --dump stop before any trial when q > 10,
    at the [field] q line; the verbs that write no such dump still run."""
    config = tmp_path / "q11.ini"
    config.write_text(Q11_CONFIG)
    out = tmp_path / "out.txt"
    for args in (["search-beyond"], ["simulate", "--dump"]):
        assert cli.main([*args, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "q11.ini:2: subspace dumps need q <= 10, got 11" in err
        assert "Traceback" not in err
        assert not out.exists()
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text().startswith("trial,seed,algorithm")
    assert cli.main(["dump-code", "--config", str(config), "--dump"]) == 0
    assert "zero-message codeword\nambient 5\n" in capsys.readouterr().out


def test_verify_quick(tmp_path):
    quick = tmp_path / "quick.ini"
    quick.write_text(
        "[run]\nseed = 5\n\n[verify]\nrandom_checks = 150\ntrials_per_point = 10\n"
        "extraction_trials = 80\ndominance_trials = 30\nenumeration_pairs = 10\n"
    )
    proc = run_cli("verify", "--config", str(quick))
    assert proc.returncode == 0
    assert "all properties hold" in proc.stdout
    # the eleven suites' seconds, then the total, on stderr only
    lines = proc.stderr.splitlines()
    assert len(lines) == 12 and lines[-1].startswith("total: ")
    assert all(line.endswith(" s") for line in lines)


@pytest.mark.parametrize(
    "field, layers",
    [
        pytest.param("q = 2\nm = 1\n", "1:1", id="f2-n1"),
        pytest.param("q = 17\nm = 2\nmodulus = 3,0,1\n", "1:1, 1:1", id="f17sq-n2"),
    ],
)
def test_verify_holds_on_a_one_symbol_code(tmp_path, capsys, field, layers):
    """Layers of one symbol each.  N = 1 (one layer 1:1 over F_2): every
    suite's channel draws fit dim V = 1.  Two layers 1:1 over F_{17^2}:
    the only verify on a field of two-byte packed entries, so every suite's
    intersections, sums and extractions reduce field by field.  Either way
    verify exits 0 with every property holding and no traceback."""
    config = tmp_path / "one-symbol.ini"
    config.write_text(
        f"[field]\n{field}\n[code]\nlayers = {layers}\n\n[channel]\nrho = 0, 1\nt = 0, 1\n\n"
        "[run]\nseed = 5\n\n"
        "[verify]\nrandom_checks = 150\ntrials_per_point = 10\n"
        "extraction_trials = 80\ndominance_trials = 30\nenumeration_pairs = 10\n"
    )
    assert cli.main(["verify", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("all properties hold\n")
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "verb, scenario_mode, rho, t",
    [
        ("scenario", "unicast", 9, 0),  # rho beyond dim V: was a ParameterError traceback
        ("scenario", "multicast", 1, 1),  # was the exact channel, silently
        ("scenario", "multi-source", 1, 1),  # was labelled with a rho and t it never used
        ("search-beyond", "multicast", 9, 7),
    ],
)
def test_matrix_channel_is_a_config_error_for_exact_only_verbs(
    tmp_path, capsys, verb, scenario_mode, rho, t
):
    path = tmp_path / "matrix.ini"
    path.write_text(
        "[channel]\nrho = {}\nt = {}\nmode = matrix\ncollected = 4\n\n"
        "[run]\ntrials = 2\n\n[scenario]\nmode = {}\n".format(rho, t, scenario_mode)
    )
    assert cli.main([verb, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"matrix.ini:4: {verb} uses the exact channel only" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "verb, channel, message",
    [
        ("search-beyond", "mode = matrix\ncollected = 4\nrho = 9\nt = 7", "2: search-beyond uses the exact channel only"),
        ("search-beyond", "rho = 0, 1\nt = 0, 1", "2: search needs grid points with 2(rho+t) >= 6"),
        ("scenario", "rho = 0, 1\nt = 1", "2: scenario modes use a fixed channel"),
    ],
    ids=["matrix-channel", "no-beyond-point", "two-grid-points"],
)
def test_a_config_error_of_one_verb_leaves_no_out_file(tmp_path, capsys, verb, channel, message):
    """The checks that read only the config but belong to one verb run before
    ``--out`` is opened: exit 2 at the key's line, and no file is made."""
    config = tmp_path / "verb.ini"
    config.write_text(f"[channel]\n{channel}\n\n[run]\ntrials = 2\n")
    out = tmp_path / "out.txt"
    assert cli.main([verb, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {config}:{message}" in err and "Traceback" not in err
    assert not out.exists()
