"""Config parsing: accepted format, defaults, and line-precise errors."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import lsc
from lsc import cli, config
from lsc.config import load_config, parse_config
from lsc.errors import ConfigError
from lsc.properties import VERIFY_COUNTS

GOOD = """\
[field]
q = 2
m = 4
modulus = 1,1,0,0,1

[code]
layers = 3:1, 4:1

[channel]
mode = exact
rho = 0,1,2
t = 0,1

[run]
algorithm = both
trials = 50
seed = 42
max_sweeps = 3
workers = 2

[scenario]
mode = unicast
unicast_layer = 2
"""


def test_parse_good_config():
    cfg = parse_config(GOOD, "good.ini")
    assert cfg.q == 2 and cfg.m == 4
    assert cfg.modulus == (1, 1, 0, 0, 1)
    assert cfg.layers == ((3, 1), (4, 1))
    assert cfg.rho_values == (0, 1, 2)
    assert cfg.t_values == (0, 1)
    assert cfg.algorithm == "both"
    assert cfg.algorithms() == ("alg1", "alg2", "alg2-iterative")
    assert cfg.trials == 50 and cfg.seed == 42
    assert cfg.max_sweeps == 3 and cfg.workers == 2
    assert cfg.scenario_mode == "unicast" and cfg.unicast_layer == 2
    assert cfg.grid() == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    code = cfg.build_code()
    assert code.total_length == 7


def test_defaults_apply():
    cfg = parse_config("", "empty.ini")
    assert cfg.layers == ((3, 1), (4, 1))
    assert cfg.field_params().modulus == (1, 1, 0, 0, 1)


def test_comments_and_inline_comments():
    cfg = parse_config(
        "# heading\n[run]\ntrials = 7  # inline\nseed = 3 ; other style\n", "c.ini"
    )
    assert cfg.trials == 7 and cfg.seed == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nope]\n", "nope.ini:1: unknown section"),
        ("[run]\nbogus = 1\n", "nope.ini:2: unknown key"),
        ("trials = 1\n", "nope.ini:1: key outside"),
        ("[run]\ntrials\n", "nope.ini:2: expected 'key = value'"),
        ("[run]\ntrials = 1\ntrials = 2\n", "nope.ini:3: duplicate key"),
        ("[run]\ntrials = ten\n", "nope.ini:2: trials must be an integer"),
        ("[run]\ntrials = -1\n", "nope.ini:2: trials must be >= 0"),
        ("[code]\nlayers = 3-1\n", "nope.ini:2: layers entries use 'n:k'"),
        ("[code]\nlayers = 5:1\n", "violates 1 <= k <= n <= m"),
        ("[code]\nlayers = 3:0\n", "violates 1 <= k <= n <= m"),
        ("[channel]\nrho = 9\n", "rho = 9 outside"),
        ("[channel]\nt = 5\n", "t = 5 outside"),
        ("[channel]\nmode = matrix\n", "matrix mode requires 'collected'"),
        ("[run]\nalgorithm = alg3\n", "algorithm must be one of"),
        ("[scenario]\nmode = broadcast\n", "scenario mode must be one of"),
        ("[scenario]\nunicast_layer = 3\n", "exceeds the layer count"),
        ("[field]\nq = 4\n", "q must be prime"),
        ("[field]\nmodulus = 1,0,0,0,1\n", "reducible"),
        ("[search]\ntargets = alg9\n", "unknown search target"),
        (
            "[search]\ntargets = alg1-beyond, alg1-beyond\n",
            "nope.ini:2: duplicate search target 'alg1-beyond'",
        ),
        ("[field]\nq = 1\n", "nope.ini:2: q must be >= 2, got 1"),
        ("[field]\nm = 0\n", "nope.ini:2: m must be >= 1, got 0"),
        ("[channel]\ncollected = -1\n", "nope.ini:2: collected must be >= 0, got -1"),
        ("[channel]\nerror_packets = -1\n", "nope.ini:2: error_packets must be >= 0, got -1"),
        ("[run]\nseed = -1\n", "nope.ini:2: seed must be >= 0, got -1"),
        (
            "[run]\nseed = 18446744073709551616\n",
            "nope.ini:2: seed must be <= 18446744073709551615, got 18446744073709551616",
        ),
        ("[run]\nmax_sweeps = 0\n", "nope.ini:2: max_sweeps must be >= 1, got 0"),
        ("[run]\nworkers = 0\n", "nope.ini:2: workers must be >= 1, got 0"),
        ("[scenario]\nunicast_layer = 0\n", "nope.ini:2: unicast_layer must be >= 1, got 0"),
        ("[search]\nbudget = 0\n", "nope.ini:2: budget must be >= 1, got 0"),
        ("[search]\nreport_every = 0\n", "nope.ini:2: report_every must be >= 1, got 0"),
        ("[verify]\nrandom_checks = 0\n", "nope.ini:2: random_checks must be >= 1, got 0"),
        ("[verify]\ntrials_per_point = 0\n", "nope.ini:2: trials_per_point must be >= 1, got 0"),
        ("[verify]\nextraction_trials = 0\n", "nope.ini:2: extraction_trials must be >= 1, got 0"),
        ("[verify]\ndominance_trials = 0\n", "nope.ini:2: dominance_trials must be >= 1, got 0"),
        ("[verify]\nenumeration_pairs = 0\n", "nope.ini:2: enumeration_pairs must be >= 1, got 0"),
        ("[search]\ntargets =\n", "nope.ini:2: targets must list at least one search target"),
        ("[search]\ntargets = ,\n", "nope.ini:2: targets must list at least one search target"),
        ("[search]\nalg1-beyond.ds = -1\n", "nope.ini:2: ds must be >= 0, got -1"),
        ("[search]\nalg2-rescues.retry_ds = -1\n", "nope.ini:2: retry_ds must be >= 0, got -1"),
        ("[search]\nalg1-only.layer_ds = 2,-1\n", "nope.ini:2: layer_ds must be >= 0, got -1"),
        ("[channel]\nrho = 1,1\n", "nope.ini:2: duplicate rho value 1"),
        ("[channel]\nt = 0,1,0\n", "nope.ini:2: duplicate t value 0"),
        ("[channel]\nrho =\n", "nope.ini:2: rho must list at least one value"),
        ("[channel]\nt = ,\n", "nope.ini:2: t must list at least one value"),
        # a blank item in a list that has others is refused, not dropped
        ("[channel]\nrho = 0,,1,\n", "nope.ini:2: rho has an empty item in '0,,1,'"),
        ("[channel]\nt = ,0\n", "nope.ini:2: t has an empty item in ',0'"),
        ("[code]\nlayers = 3:1,,4:1,\n", "nope.ini:2: layers has an empty item in '3:1,,4:1,'"),
        ("[field]\nmodulus = 1,1,0,0,1,\n", "nope.ini:2: modulus has an empty item in '1,1,0,0,1,'"),
        (
            "[search]\ntargets = alg1-beyond, ,alg1-only\n",
            "nope.ini:2: targets has an empty item in 'alg1-beyond, ,alg1-only'",
        ),
        ("[search]\nalg1-only.layer_ds = 2,,3\n", "nope.ini:2: layer_ds has an empty item in '2,,3'"),
        (
            "[search]\nalg1-beyond.ds = 4\nalg1-beyond.layer_ds = 2,2,2\n",
            "nope.ini:3: alg1-beyond.layer_ds has 3 entries; it needs one per layer (2)",
        ),
        ("[search]\nalg2-rescues.layer_ds =\n", "nope.ini:2: alg2-rescues.layer_ds has 0 entries"),
        # an integer is ASCII digits with an optional leading '-': no '_',
        # no '+', no other script's digits
        *(
            row
            for spelling in ("1_0", "+3", "\uff13", "\u0663")
            for row in (
                (
                    f"[run]\nseed = {spelling}\n",
                    f"nope.ini:2: seed must be an integer, got {spelling!r}",
                ),
                (
                    f"[field]\nmodulus = 1,{spelling},0,0,1\n",
                    "nope.ini:2: modulus must be a comma list of integers",
                ),
                (
                    f"[code]\nlayers = {spelling}:1\n",
                    f"nope.ini:2: layers entries use 'n:k', got '{spelling}:1'",
                ),
            )
        ),
        # more digits than int() converts is a config error too
        pytest.param(
            "[run]\nseed = " + "9" * 5000 + "\n", "nope.ini:2: seed must be", id="seed-5000-digits"
        ),
    ],
)
def test_line_precise_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text, "nope.ini")
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[field]\nmodulus = 1,1,0,0,3\n", "mod.ini:2: modulus coefficients must lie in [0, q = 2), got 3"),
        (
            "[field]\nq = 3\nmodulus = 2,1,0,0,-1\n",
            "mod.ini:3: modulus coefficients must lie in [0, q = 3), got -1",
        ),
    ],
    ids=["3-over-F2", "minus-1-over-F3"],
)
def test_modulus_coefficients_must_lie_in_the_base_field(tmp_path, capsys, text, message):
    """A coefficient outside [0, q) is refused at the modulus line, not read
    mod q: ``1,1,0,0,3`` over F_2 would otherwise be x^4 + x + 1."""
    with pytest.raises(ConfigError) as err:
        parse_config(text, "mod.ini")
    assert str(err.value) == message
    path = tmp_path / "mod.ini"
    path.write_text(text)
    assert cli.main(["dump-code", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message.replace('mod.ini', str(path))}\n"


@pytest.mark.parametrize(
    "source, text, message",
    [
        ("m2.ini", "[field]\nm = 2\n", "m2.ini:2: layer (3,1) violates 1 <= k <= n <= m = 2"),
        ("rho0.ini", "[code]\nlayers = 1:1\n", "rho0.ini:2: rho = 2 outside [0, dim V = 1]"),
        (
            "t0.ini",
            "[field]\nm = 1\n[code]\nlayers = 1:1\n[channel]\nrho = 0\n",
            "t0.ini:2: t = 2 outside [0, ambient - dim V = 1]",
        ),
    ],
)
def test_a_defaulted_key_names_the_line_that_makes_it_wrong(source, text, message):
    """A defaulted layers or t names the m line, a defaulted rho the layers
    line: never line 0."""
    with pytest.raises(ConfigError) as err:
        parse_config(text, source)
    assert str(err.value) == message and ":0:" not in str(err.value)


@pytest.mark.parametrize(
    "verb, text, message",
    [
        (
            "search-beyond",
            "[field]\nm = 6\n[code]\nlayers = 6:1\n",
            "v.ini:4: search needs grid points with 2(rho+t) >= 12; none configured",
        ),
        ("scenario", "[scenario]\nmode = unicast\n", "v.ini:2: scenario modes use a fixed channel"),
        ("scenario", "", "v.ini: scenario modes use a fixed channel"),
    ],
)
def test_a_verb_check_on_a_defaulted_grid_names_its_fallback_line(verb, text, message):
    """``check_verb`` falls back to the layers line for a search and to the
    scenario mode line for a scenario, and names the file alone when the
    file sets neither."""
    with pytest.raises(ConfigError) as err:
        config.check_verb(parse_config(text, "v.ini"), verb)
    assert str(err.value).startswith(message) and ":0:" not in str(err.value)


@pytest.mark.parametrize(
    "channel, line",
    [
        ("rho = 1\nt = 0,1", 3),
        ("rho = 0,1\nt = 1", 2),
        ("rho = 0,1\nt = 0,1", 2),
        ("rho = 1", 4),
    ],
    ids=["wide-t", "wide-rho", "both-wide", "defaulted-t"],
)
def test_a_scenario_on_a_wide_grid_names_the_wide_axis(channel, line):
    """A scenario's fixed-channel check names the first channel axis the
    file lists more than one value for, not the rho line whatever it
    holds, and falls back to the scenario mode line."""
    text = f"[channel]\n{channel}\n[scenario]\nmode = unicast\n"
    with pytest.raises(ConfigError) as err:
        config.check_verb(parse_config(text, "s.ini"), "scenario")
    assert str(err.value).startswith(f"s.ini:{line}: scenario modes use a fixed channel")


def test_search_profiles_parse():
    text = """\
[search]
budget = 5000
targets = alg1-beyond, alg2-rescues
alg1-beyond.ds = 4
alg1-beyond.layer_ds = 2,2
alg2-rescues.retry_ds = 2
"""
    cfg = parse_config(text, "s.ini")
    assert cfg.search_budget == 5000
    assert cfg.search_targets == ("alg1-beyond", "alg2-rescues")
    assert cfg.search_profiles["alg1-beyond"].ds == 4
    assert cfg.search_profiles["alg1-beyond"].layer_ds == (2, 2)
    assert cfg.search_profiles["alg2-rescues"].retry_ds == 2


def test_verify_overrides_parse():
    cfg = parse_config("[verify]\nrandom_checks = 50\n", "v.ini")
    assert cfg.verify_counts == {"random_checks": 50}


def test_verify_error_independent_of_hash_seed():
    """Several bad [verify] counts: the first in schema order is reported, whatever the seed."""
    text = (
        "[verify]\nrandom_checks = 0\ntrials_per_point = 0\nextraction_trials = 0\n"
        "dominance_trials = 0\nenumeration_pairs = 0\n"
    )
    script = (
        "import sys\n"
        "from lsc.config import parse_config\n"
        "from lsc.errors import ConfigError\n"
        "try:\n"
        "    parse_config(sys.argv[1], 'v.ini')\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n"
    )
    src = str(pathlib.Path(lsc.__file__).resolve().parent.parent)
    messages = set()
    for hash_seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, text], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout.strip())
    assert messages == {"v.ini:2: random_checks must be >= 1, got 0"}


def test_the_config_parser_loads_no_property_suite():
    """The [verify] counts are config schema: ``import lsc.config`` in a
    fresh interpreter leaves ``lsc.properties`` unloaded."""
    script = "import sys, lsc.config\nprint('lsc.properties' in sys.modules)\n"
    src = str(pathlib.Path(lsc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_formats_doc_config_block_covers_schema():
    """The docs/formats.md config block names every accepted key, with the verify defaults."""
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    block = doc.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block, "formats.md")
    assert set(cfg.key_lines) == config._KNOWN_KEYS
    assert cfg.verify_counts == VERIFY_COUNTS


def test_matrix_mode_config():
    text = """\
[channel]
mode = matrix
collected = 9
error_packets = 1
"""
    cfg = parse_config(text, "m.ini")
    assert cfg.channel_mode == "matrix"
    assert cfg.collected == 9 and cfg.error_packets == 1


def test_utf8_byte_order_mark_is_ignored(tmp_path):
    original = pathlib.Path(__file__).parent.parent / "configs" / "default.ini"
    marked = tmp_path / "bom.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    cfg = load_config(str(marked))
    assert dataclasses.replace(cfg, source=str(original)) == load_config(str(original))


def test_seed_bounds():
    """derive_seed reads a master seed mod 2^64: 2^64 - 1 is the largest seed
    accepted, and 2^64, which would alias seed 0, is refused."""
    assert parse_config(f"[run]\nseed = {2**64 - 1}\n", "run.ini").seed == 2**64 - 1
    with pytest.raises(ConfigError, match=f"run.ini:2: seed must be <= {2**64 - 1}, got {2**64}"):
        parse_config(f"[run]\nseed = {2**64}\n", "run.ini")
