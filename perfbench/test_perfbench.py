"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` (about 30 s).

They check that workload generation is seeded, that a seed repeats the
program's output byte for byte, that the traced run repeats its per-layer
call counts exactly and passes its own cross-checks, that the speed
clock takes its calibration bursts out of the time it scales and leaves
no timer behind, that BENCHMARK.json
names exactly the metrics the benchmark prints, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from speed import ScaledClock, speed_factor
from workloads import WORKLOADS, config_text

run.import_lsc()
from lsc.config import parse_config  # noqa: E402

SIM_WORKLOADS = [name for name, w in WORKLOADS.items() if w.kind == "simulate"]
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_config_text_is_seeded(workload):
    assert config_text(workload, 7, 0) == config_text(workload, 7, 0)
    assert config_text(workload, 7, 0) != config_text(workload, 8, 0)
    assert config_text(workload, 7, 0) != config_text(workload, 7, 1)
    assert parse_config(config_text(workload, 7, 0)).workers == 1


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_seed_repeats_output(workload):
    first = run.run_unit(workload, 7, 0)
    assert first.failed == 0
    assert run.run_unit(workload, 7, 0).text == first.text
    assert run.run_unit(workload, 8, 0).text != first.text


def test_traced_run_repeats_counts_and_cross_checks():
    counts = []
    for _ in range(2):
        units, metrics, _, problems = run.traced_run("sim-default", 7)
        assert problems == []
        assert all(u.failed == 0 for u in units)
        counts.append(
            {
                name: value
                for name, (value, unit) in metrics.items()
                if unit in ("count", "count/cycle") or name.endswith("ok_ratio")
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["lifted.subspace_decode.calls"] > 0
    listed = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(listed) == sorted(metrics)


def test_benchmark_json_names_what_is_printed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    _, metrics, _, _ = run.end_to_end_run("sim-matrix-q3", 7, 0.1)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert listed == {name: unit for name, (_, unit) in metrics.items()}


def test_scaled_clock_takes_bursts_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    clock = ScaledClock()
    clock.start()
    try:
        a = clock.now()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        b = clock.now()
        b2 = clock.now()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert b.bursts - a.bursts >= 3
    assert 0 < clock.program_s(a, b) < (b.at - a.at) - 0.9 * sum(clock.bursts[a.bursts:b.bursts])
    assert clock.seconds(a, b) > 0
    # A span with no burst inside is scaled by the bursts around it.
    assert b2.bursts == b.bursts
    assert clock.seconds(b, b2) == clock.program_s(b, b2) * speed_factor(
        clock._smoothed[b.bursts - 1:b.bursts + 1]
    )


def test_csv_attempts_counts_layers_and_sic_chains():
    csv = (
        "trial,algorithm,layer_status,ds_chain\n"
        "0,alg1,ok|fail,\n"
        "0,alg2,ok|ok,3|1|0|0\n"
        "0,alg2-iterative,ok|fail,3|3|2|1|1\n"
    )
    assert run.csv_attempts(csv) == 2 + 2 + 3


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    out = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sim-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
