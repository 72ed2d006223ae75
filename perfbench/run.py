"""Benchmark of ``lsc``: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``lsc`` from its
``src/`` directory, in this one process with ``workers = 1``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (revision, interpreter, cores, load average).

``--trace 0`` measures the end-to-end metrics with nothing wrapped but a
clock mark on each side of a trial cycle; its times are in reference
seconds (``speed.py``), so that the host's changing speed cancels out.  ``--trace 1`` runs a
fixed number of units twice, plain and traced, and reports per-layer
metrics plus the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from speed import PlainClock, ScaledClock, speed_factor  # noqa: E402
from tracer import Patches, Tracer, suite_name  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

SETUP_PROBES = 5

# ROADMAP's reference outputs (sha256 of the --out file).
REFERENCE_RUNS = {
    "simulate": (
        ["simulate", "--config", str(ROOT / "configs" / "default.ini"), "--trials", "100"],
        "375d7584365aa267d456962c40e3edf6b395fbd21833085e48220a9dfdf04818",
    ),
    "search-beyond": (
        ["search-beyond", "--config", str(ROOT / "configs" / "search.ini")],
        "42a2dfb580a7714e359b448fc5b4ed28da6acf861da18cce39f1f329f6a2e518",
    ),
}

# Per-layer metrics taken from spans: (span name, fields).  "calls" and
# "self_s" are per span; "s" is the inclusive time of all its calls.
SPAN_METRICS = (
    ("field.mul", ("calls", "self_s")),
    ("field.frobenius", ("calls", "self_s")),
    ("field.inverse", ("calls",)),
    ("linalg.rref.gf2", ("calls", "self_s")),
    ("linalg.rref.odd", ("calls", "self_s")),
    ("linalg.row_space", ("calls",)),
    ("linalg.intersection", ("calls", "self_s")),
    ("linalg.subspace_sum", ("calls",)),
    ("linalg.subspace_distance", ("calls", "self_s")),
    ("linalg.validate", ("calls", "self_s")),
    ("gabidulin.decode_bounded", ("calls", "self_s")),
    ("gabidulin.encode", ("calls",)),
    ("gabidulin.brute_force_decode", ("calls", "self_s")),
    ("lifted.subspace_decode", ("calls", "self_s")),
    ("lifted.reduce_received", ("self_s",)),
    ("layered.extract_component", ("calls", "self_s")),
    ("layered.decode.alg1", ("s",)),
    ("layered.decode.alg2", ("s",)),
    ("layered.decode.alg2-iterative", ("s",)),
    ("layered.encode", ("self_s",)),
    ("layered.recompose", ("self_s",)),
    ("channel.apply_exact", ("calls", "self_s")),
    ("channel.apply_matrix", ("calls", "self_s")),
    ("harness.run_trial", ("calls", "self_s")),
    ("harness.render_csv", ("s",)),
    ("harness.summarize", ("s",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "s": "s"}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lsc():
    if not (SRC / "lsc" / "__init__.py").is_file():
        fail_setup(f"no lsc package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lsc

    if Path(lsc.__file__).resolve().parent != SRC / "lsc":
        fail_setup(f"imported lsc from {lsc.__file__}, not from {SRC}")
    return lsc


# --- run record ---


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources and the two reference configs."""
    h = hashlib.sha256(platform.python_version().encode())
    files = sorted(SRC.joinpath("lsc").rglob("*.py"))
    files += [ROOT / "configs" / "default.ini", ROOT / "configs" / "search.ini"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


# --- measuring ---


class Recorder:
    """Clock marks around each ``harness.run_trial`` and ``run_simulate`` call.

    Marks are turned into seconds only after the clock stops, when a
    ``ScaledClock`` knows the speed on both sides of every span.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.cycles: list[tuple] = []  # (start mark, end mark)
        self.simulate: list[tuple] = []  # (cycles, start mark, end mark, csv)
        self.patches = Patches()

    def install(self) -> None:
        from lsc import harness

        now = self.clock.now
        cycles, simulate = self.cycles, self.simulate
        run_trial, run_simulate = harness.run_trial, harness.run_simulate

        @wraps(run_trial)
        def timed_trial(*args, **kwargs):
            start = now()
            records = run_trial(*args, **kwargs)
            cycles.append((start, now()))
            return records

        @wraps(run_simulate)
        def timed_simulate(cfg):
            before = len(cycles)
            start = now()
            result = run_simulate(cfg)
            simulate.append((len(cycles) - before, start, now(), result.csv_text))
            return result

        self.patches.rebind(run_trial, timed_trial)
        self.patches.rebind(run_simulate, timed_simulate)

    def restore(self) -> None:
        self.patches.restore()


@dataclass
class Unit:
    span: tuple  # (start mark, end mark) of the clock the unit ran under
    text: str  # the CSV (simulate) or the printed verify report
    attempted: int  # decodes (CSV rows) or properties
    failed: int  # guaranteed-regime decode failures or violated properties


def run_unit(workload: str, seed: int, unit: int, clock=None) -> Unit:
    from lsc import harness
    from lsc.config import parse_config

    now = (clock or PlainClock()).now
    cfg = parse_config(config_text(workload, seed, unit), source=f"<{workload}>")
    if cfg.workers != 1:
        raise AssertionError(f"{workload}: workers = {cfg.workers}, expected 1")
    if WORKLOADS[workload].kind == "simulate":
        start = now()
        result = harness.run_simulate(cfg)
        span = (start, now())
        return Unit(span, result.csv_text, len(result.records), result.guaranteed_failures)
    out = io.StringIO()
    start = now()
    passed = harness.run_verify(cfg, out)
    span = (start, now())
    text = out.getvalue()
    lines = text.splitlines()
    violated = sum(1 for line in lines if line.startswith("FAIL"))
    if not passed or lines[-1] != "all properties hold":
        violated = max(violated, 1)
    return Unit(span, text, len(lines) - 1, violated)


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(reference seconds, raw seconds) of each fresh-process set-up probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        scaled, raw = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(scaled), float(raw)))
    return samples


# --- output checks (outside every timed region) ---


def reference_hashes() -> dict[str, str]:
    """sha256 of ROADMAP's two reference outputs for this source tree.

    Both runs take about 16 s together, so the result is kept in the
    checkout under a digest of the package sources: each distinct source
    tree is recomputed once, the first time it is benchmarked.
    """
    cache = OUT_DIR / f"reference-{source_digest()}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    from lsc import cli

    hashes = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name, (argv, _) in REFERENCE_RUNS.items():
            out = Path(tmp) / name
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv + ["--out", str(out)])
            hashes[name] = (
                hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else f"exit {code}"
            )
    partial = cache.with_suffix(".tmp")
    partial.write_text(json.dumps(hashes))
    partial.replace(cache)
    return hashes


def output_checks(workload: str, seed: int, units: list[Unit]) -> list[str]:
    """Every mismatch, as text; an empty list means the outputs are right."""
    problems = []
    for index, unit in enumerate(units):
        if unit.failed:
            problems.append(f"unit {index}: {unit.failed} failed (guaranteed regime or property)")
    expected = WORKLOADS[workload].default_sha256
    if seed == DEFAULT_SEED and units:
        got = hashlib.sha256(units[0].text.encode()).hexdigest()
        if got != expected:
            problems.append(f"unit 0 output sha256 {got} != recorded {expected}")
    for name, value in reference_hashes().items():
        if value != REFERENCE_RUNS[name][1]:
            problems.append(f"reference {name}: {value} != {REFERENCE_RUNS[name][1]}")
    return problems


def csv_attempts(csv_text: str) -> int:
    """subspace_decode calls implied by a simulate CSV.

    L per alg1 row; ``len(ds_chain) - 2`` per SIC row, since the chain has
    the received space, one entry per attempt, and the recombined space.
    """
    lines = csv_text.splitlines()
    columns = lines[0].split(",")
    algorithm = columns.index("algorithm")
    status = columns.index("layer_status")
    chain = columns.index("ds_chain")
    total = 0
    for line in lines[1:]:
        cells = line.split(",")
        if cells[algorithm] == "alg1":
            total += len(cells[status].split("|"))
        else:
            total += len(cells[chain].split("|")) - 2
    return total


# --- the two kinds of run ---


def end_to_end_run(workload: str, seed: int, seconds: float):
    from probe import set_up

    setup = setup_seconds(workload, seed)
    set_up(workload, seed)
    clock = ScaledClock()
    recorder = Recorder(clock)
    recorder.install()
    units = []
    min_units = WORKLOADS[workload].min_units
    clock.start()
    deadline = time.perf_counter() + seconds
    try:
        while len(units) < min_units or time.perf_counter() < deadline:
            units.append(run_unit(workload, seed, len(units), clock))
    finally:
        clock.stop()
        recorder.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(span_s) -> dict:
        cycle_ms = [span_s(a, b) * 1000.0 for a, b in recorder.cycles]
        return {
            "cycles_per_s": statistics.median(
                c / span_s(a, b) for c, a, b, _ in recorder.simulate if c
            ),
            "cycle_ms_p50": statistics.median(cycle_ms),
            "cycle_ms_p95": statistics.quantiles(cycle_ms, n=20, method="inclusive")[18],
            "wall_s": statistics.median(span_s(*u.span) for u in units),
        }

    units_of = {"cycles_per_s": "1/s", "cycle_ms_p50": "ms", "cycle_ms_p95": "ms", "wall_s": "s"}
    metrics = {name: (v, units_of[name]) for name, v in figures(clock.seconds).items()}
    metrics["setup_s"] = (statistics.median(s for s, _ in setup), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    raw = figures(clock.program_s)
    raw["setup_s"] = statistics.median(r for _, r in setup)
    details = {
        "units": len(units),
        "cycles": len(recorder.cycles),
        "setup_samples_s": setup,
        "raw_seconds": raw,
        "speed_bursts": len(clock.bursts),
        "speed_factor": speed_factor(clock.bursts),
    }
    return units, metrics, details, []


def traced_run(workload: str, seed: int):
    from lsc import harness
    from probe import set_up

    set_up(workload, seed)
    count = WORKLOADS[workload].trace_units

    clock = PlainClock()

    def run_units(recorder: Recorder) -> list[Unit]:
        recorder.install()
        try:
            return [run_unit(workload, seed, unit, clock) for unit in range(count)]
        finally:
            recorder.restore()

    plain = Recorder(clock)
    plain_units = run_units(plain)
    tracer = Tracer()
    traced = Recorder(clock)
    tracer.install()
    try:
        traced_units = run_units(traced)
    finally:
        tracer.restore()

    problems = []
    if [u.text for u in traced_units] != [u.text for u in plain_units]:
        problems.append("traced output differs from the untraced output")
    if [csv for *_, csv in traced.simulate] != [csv for *_, csv in plain.simulate]:
        problems.append("traced simulate CSV differs from the untraced CSV")
    attempts = sum(csv_attempts(csv) for *_, csv in traced.simulate)
    decodes_in_cycles = tracer.calls_under("lifted.subspace_decode", "harness.run_trial")
    if decodes_in_cycles != attempts:
        problems.append(
            f"traced subspace_decode calls in cycles {decodes_in_cycles} != {attempts} from the CSV"
        )

    plain_s = sum(clock.seconds(*u.span) for u in plain_units)
    traced_s = sum(clock.seconds(*u.span) for u in traced_units)
    metrics = {}
    for span, fields in SPAN_METRICS:
        calls, total_s, self_s = tracer.stat(span)
        values = {"calls": calls, "self_s": self_s, "s": total_s}
        for field in fields:
            metrics[f"{span}.{field}"] = (values[field], FIELD_UNITS[field])
    metrics["field.element.inits"] = (tracer.counters["field.element.inits"], "count")
    decodes = tracer.stat("gabidulin.decode_bounded")[0]
    ok = tracer.counters["gabidulin.decode_bounded.ok"]
    metrics["gabidulin.decode_bounded.ok_ratio"] = (ok / decodes if decodes else 0.0, "ratio")
    cycles = tracer.stat("harness.run_trial")[0]
    metrics["layered.attempts_per_cycle"] = (
        decodes_in_cycles / cycles if cycles else 0.0, "count/cycle"
    )
    for suite in harness.SUITES:
        name = f"properties.{suite_name(suite)}"
        metrics[f"{name}.s"] = (tracer.stat(name)[1], "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.coverage"] = (tracer.root_s / traced_s, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    details = {
        "units": count,
        "cycles": cycles,
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "plain_s": plain_s,
        "traced_s": traced_s,
    }
    return plain_units, metrics, details, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_lsc()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "loadavg_start": loadavg(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        units, metrics, details, problems = traced_run(args.workload, args.seed)
    else:
        units, metrics, details, problems = end_to_end_run(args.workload, args.seed, args.seconds)
    problems += output_checks(args.workload, args.seed, units)
    record["loadavg_end"] = loadavg()
    record.update(details)
    record["problems"] = problems
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    result = {
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
