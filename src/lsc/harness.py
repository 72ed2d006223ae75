"""Batch experiment drivers: simulate, verify, search-beyond, scenario.

CSV columns and the fixture dump layout are frozen in docs/formats.md.
Every trial is ``channel.make_trial`` on one derived seed, whose index
path is (master seed, rho, t, trial) on the exact channel and (master
seed, collected, error packets, trial) on the matrix channel, both drawn
by ``_draw_trial``, or (master seed, layer count, rho, t, trial) in the
multicast scenario.  So output is byte-identical for a given config
regardless of worker count or scheduling, and unicast and multi-source
scenarios see the same channel outcomes as plain simulation runs with
the same seed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field, fields
from typing import Iterable, Sequence, TextIO

from .channel import ChannelOutcome, ChannelSpec, make_trial
from .config import ExperimentConfig, check_verb
from .errors import InvariantError
from .layered import STATUS_OK, LayerDecodeReport, LayeredCode, LayeredCodeword
from .linalg import Subspace, dump_pair, subspace_distance
from .properties import (
    PROPERTY_MANIFEST,
    PropertyResult,
    SUITES,
    VerifyContext,
)
from .rng import derive_seed

SCENARIO_MULTICAST_COLUMNS = (
    "layer_count",
    "rate_symbols",
    "algorithm",
    "trials",
    "successes",
)

SCENARIO_UNICAST_COLUMNS = (
    "trial",
    "seed",
    "rho_requested",
    "t_requested",
    "layer",
    "success",
)


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row: a single algorithm's outcome on a single trial."""

    trial: int
    seed: int
    algorithm: str
    rho_requested: int | None
    t_requested: int | None
    rho_realized: int
    t_realized: int
    dim_u: int
    ds_vu: int
    layer_ds: tuple[int, ...]
    layer_status: tuple[str, ...]
    success: bool
    sweeps: int
    ds_chain: tuple[int, ...]

    def csv_row(self) -> tuple[str, ...]:
        """One cell per field, in field order (``CSV_COLUMNS``)."""
        return (
            str(self.trial),
            str(self.seed),
            self.algorithm,
            "" if self.rho_requested is None else str(self.rho_requested),
            "" if self.t_requested is None else str(self.t_requested),
            str(self.rho_realized),
            str(self.t_realized),
            str(self.dim_u),
            str(self.ds_vu),
            "|".join(map(str, self.layer_ds)),
            "|".join(self.layer_status),
            "1" if self.success else "0",
            str(self.sweeps),
            "|".join(map(str, self.ds_chain)),
        )


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _layer_distances(
    code: LayeredCode, word: LayeredCodeword, received: Subspace
) -> tuple[int, ...]:
    """d_S(V_l, U_l) per layer, U_l the layer extracted from the received space."""
    return tuple(
        code.layer_distance(matrix, received, layer)
        for layer, matrix in enumerate(word.component_matrices, 1)
    )


def _ds_chain(word: LayeredCodeword, report: LayerDecodeReport, ds: int) -> tuple[int, ...]:
    """d_S(V, .) of every SIC working space, then of the recombined estimate.

    ``ds`` is d_S(V, U) for the received space U.  A working space only
    grows, so an attempt that leaves its dimension alone leaves the
    distance alone.  A decoded component C that is the sent one lies in V,
    so V ∩ (A + C) = (V ∩ A) + C, and d_S(V, A + C) = d_S(V, A) -
    (dim(A + C) - dim A) whatever A holds.  Only a miscorrected component
    needs a real distance.  Empty for alg1, which has no working spaces.
    """
    if not report.accumulated:
        return ()
    sent = word.component_matrices
    right = {r.layer for r in report.layers if r.matrix == sent[r.layer - 1]}
    chain = [ds]
    spaces = report.accumulated
    for before, after, layer in zip(spaces, spaces[1:], report.attempt_layers):
        grown = after.dim - before.dim
        if grown and layer not in right:
            ds = subspace_distance(word.V, after)
        else:
            ds -= grown
        chain.append(ds)
    if report.decoded_layers <= right:
        # the recombined estimate is a subspace of V
        chain.append(word.V.dim - report.recombined.dim)
    else:
        chain.append(subspace_distance(word.V, report.recombined))
    return tuple(chain)


def _draw_trial(
    code: LayeredCode, master_seed: int, trial: int, rho: int | None, t: int | None,
    channel_mode: str, collected: int, error_packets: int,
) -> tuple[int, LayeredCodeword, ChannelOutcome]:
    """(seed, codeword, outcome) at these coordinates; the other channel's arguments go unread."""
    if channel_mode == "exact":
        seed = derive_seed(master_seed, rho, t, trial)
        return (seed, *make_trial(code, seed, ChannelSpec(rho=rho, t=t)))
    seed = derive_seed(master_seed, collected, error_packets, trial)
    return (seed, *make_trial(code, seed, collected=collected, error_packets=error_packets))


def run_trial(
    code: LayeredCode,
    master_seed: int,
    trial: int,
    rho: int | None,
    t: int | None,
    algorithms: Sequence[str],
    max_sweeps: int,
    channel_mode: str = "exact",
    collected: int = 0,
    error_packets: int = 0,
) -> list[TrialRecord]:
    """One encode -> channel -> decode cycle, one record per algorithm."""
    seed, word, outcome = _draw_trial(
        code, master_seed, trial, rho, t, channel_mode, collected, error_packets
    )
    ds = outcome.distance
    layer_ds = _layer_distances(code, word, outcome.U)
    records = []
    for algorithm in algorithms:
        report = code.decode(outcome.U, algorithm, max_sweeps)
        records.append(
            TrialRecord(
                trial=trial,
                seed=seed,
                algorithm=algorithm,
                rho_requested=rho,
                t_requested=t,
                rho_realized=outcome.realized_rho,
                t_realized=outcome.realized_t,
                dim_u=outcome.U.dim,
                ds_vu=ds,
                layer_ds=layer_ds,
                layer_status=tuple(r.status for r in report.layers),
                success=report.recombined == word.V,
                sweeps=report.sweeps,
                ds_chain=_ds_chain(word, report, ds),
            )
        )
    return records


# --- worker pool plumbing (per-trial seeds make scheduling irrelevant) ---

_WORKER_SHARED = None


def _worker_init(shared) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _in_worker(task):
    trial_fn, job = task
    return trial_fn(_WORKER_SHARED, *job)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_trials(cfg: ExperimentConfig, shared, trial_fn, jobs: Sequence) -> list:
    """``[trial_fn(shared, *job) for job in jobs]``, on up to ``cfg.workers``
    processes; ``shared`` is what every job reads (the code, or for verify
    its ``VerifyContext``), and each job is a tuple of the other arguments.

    No more processes start than there are jobs or usable CPUs.  Results
    keep the order of ``jobs``.  ``trial_fn`` is a module-level function,
    so that it pickles by name.  Each worker receives ``shared`` once, as
    the pool's initializer argument: a forked worker inherits it, and a
    spawned one unpickles it.  ``multiprocessing`` is imported only when a
    pool starts: a one-process run does not pay for the import.  A job
    that raises ends the run with its exception, as it does in one process.
    """
    processes = min(cfg.workers, len(jobs), _usable_cpus())
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(
            processes=processes, initializer=_worker_init, initargs=(shared,)
        ) as pool:
            return pool.map(
                _in_worker,
                [(trial_fn, job) for job in jobs],
                chunksize=max(1, len(jobs) // (processes * 8)),
            )
    return [trial_fn(shared, *job) for job in jobs]


def render_csv(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass
class SummaryRow:
    rho: int | None
    t: int | None
    algorithm: str
    trials: int
    successes: int
    guaranteed: bool

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@dataclass
class SimulateResult:
    records: list[TrialRecord]
    csv_text: str
    summary: list[SummaryRow]
    guaranteed_failures: int

    @property
    def summary_lines(self) -> list[str]:
        lines = ["rho  t    algorithm        trials  successes  rate      regime"]
        for row in self.summary:
            rho = "-" if row.rho is None else str(row.rho)
            t = "-" if row.t is None else str(row.t)
            regime = "guaranteed" if row.guaranteed else "beyond"
            lines.append(
                f"{rho:<4s} {t:<4s} {row.algorithm:<16s} {row.trials:<7d} "
                f"{row.successes:<10d} {row.rate:<9.6f} {regime}"
            )
        lines.append(self.failures_line)
        return lines

    @property
    def failures_line(self) -> str:
        return f"guaranteed-regime failures: {self.guaranteed_failures}"


def _guaranteed_failure(record: TrialRecord, capability: int) -> bool:
    """A failed row with ds_vu within ``capability``: a decoder fault."""
    return record.ds_vu <= capability and not record.success


def summarize(records: Sequence[TrialRecord], capability: int) -> tuple[list[SummaryRow], int]:
    """Aggregate the emitted rows; this is the only accounting path.

    A row is in the guaranteed regime when its ds_vu is within ``capability``,
    on either channel, and a bucket when all its rows are.  A run's records
    share one channel, so their keys are all (rho, t, algorithm) on the exact
    channel or all (None, None, algorithm) on the matrix channel, and plain
    tuple order sorts both.
    """
    buckets: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        buckets.setdefault((record.rho_requested, record.t_requested, record.algorithm), []).append(record)
    summary = []
    guaranteed_failures = 0
    for (rho, t, algorithm) in sorted(buckets):
        rows = buckets[(rho, t, algorithm)]
        successes = sum(1 for r in rows if r.success)
        guaranteed_failures += sum(1 for r in rows if _guaranteed_failure(r, capability))
        guaranteed = all(r.ds_vu <= capability for r in rows)
        summary.append(SummaryRow(rho, t, algorithm, len(rows), successes, guaranteed))
    return summary, guaranteed_failures


def run_simulate(cfg: ExperimentConfig) -> SimulateResult:
    """Monte Carlo decoding statistics over the configured channel grid."""
    code = cfg.build_code()
    algorithms = cfg.algorithms()
    jobs = [
        (cfg.seed, trial, rho, t, algorithms, cfg.max_sweeps, cfg.channel_mode,
         cfg.collected, cfg.error_packets)
        for rho, t in cfg.grid()
        for trial in range(cfg.trials)
    ]
    # ``run_trial`` is read from this module at the call, so a profiler
    # that rebinds it here sees every trial
    chunks = _map_trials(cfg, code, run_trial, jobs)
    records = [record for chunk in chunks for record in chunk]
    csv_text = render_csv(CSV_COLUMNS, (r.csv_row() for r in records))
    summary, failures = summarize(records, code.capability)
    return SimulateResult(records, csv_text, summary, failures)


def dump_guaranteed_failures(cfg: ExperimentConfig, records: Sequence[TrialRecord]) -> str:
    """``simulate --dump``: each failed guaranteed-regime trial among the records
    of ``run_simulate(cfg)``, re-drawn once from its coordinates, as a V/U dump."""
    code = cfg.build_code()
    failed = {
        (r.trial, r.rho_requested, r.t_requested): r
        for r in records
        if _guaranteed_failure(r, code.capability)
    }
    text = ""
    for r in failed.values():
        _, word, outcome = _draw_trial(
            code, cfg.seed, r.trial, r.rho_requested, r.t_requested,
            cfg.channel_mode, cfg.collected, cfg.error_packets,
        )
        text += f"# failed trial {r.trial} rho {r.rho_realized} t {r.t_realized}\n"
        text += dump_pair(word.V, outcome.U)
    return text


# --- verify ---


def _harness_suite(ctx: VerifyContext) -> list[PropertyResult]:
    """CSV determinism and summary/row consistency on a small config."""
    cfg = ExperimentConfig(source="<verify>")
    params = ctx.params
    cfg.q, cfg.m, cfg.modulus = params.q, params.m, params.modulus
    cfg.layers = tuple((layer.n, layer.k) for layer in ctx.code.layers)
    cfg.rho_values = (0, 1)
    cfg.t_values = (0, 1)
    cfg.trials = 5
    cfg.seed = ctx.seed
    first = run_simulate(cfg)
    second = run_simulate(cfg)
    det_viol = 0 if first.csv_text == second.csv_text else 1
    det = PropertyResult("harness.csv_deterministic", 1, det_viol)

    rho_at, t_at, algorithm_at, success_at = (
        CSV_COLUMNS.index(name)
        for name in ("rho_requested", "t_requested", "algorithm", "success")
    )
    recount: dict[tuple, int] = {}
    for line in first.csv_text.strip().splitlines()[1:]:
        cells = line.split(",")
        key = (cells[rho_at], cells[t_at], cells[algorithm_at])
        recount[key] = recount.get(key, 0) + int(cells[success_at])
    cons_viol = 0
    for row in first.summary:
        key = (str(row.rho), str(row.t), row.algorithm)
        if recount.get(key, 0) != row.successes:
            cons_viol += 1
    cons = PropertyResult("harness.summary_consistency", len(first.summary), cons_viol)
    return [det, cons]


def _suite_label(suite) -> str:
    """``extraction_bound`` for ``extraction_bound_suite``."""
    return suite.__name__.strip("_").removesuffix("_suite")


def _timed_suite(ctx: VerifyContext, suite) -> tuple[list[PropertyResult], float]:
    """A suite's results and its wall seconds."""
    start = time.perf_counter()
    results = suite(ctx)
    return results, time.perf_counter() - start


def run_verify(
    cfg: ExperimentConfig, out: TextIO | None = None, seconds: TextIO | None = None
) -> bool:
    """Execute every property suite; print one line per property id to
    ``out``, by default the ``sys.stdout`` of the call.

    Each suite draws from streams of its own (``VerifyContext.rng``), so
    the suites run on up to ``cfg.workers`` processes (``_map_trials``),
    in the order of ``SUITES`` and then the harness suite, and their
    results are read in manifest order: the text is the same at any worker
    count.  Given ``seconds``, each suite's wall seconds, in run order, and
    the total go there, one line each.
    """
    start = time.perf_counter()
    code = cfg.build_code()
    ctx = VerifyContext(
        params=code.params, code=code, seed=cfg.seed, counts=dict(cfg.verify_counts)
    )
    suites = SUITES + (_harness_suite,)
    timed = _map_trials(cfg, ctx, _timed_suite, [(suite,) for suite in suites])
    results = [result for suite_results, _ in timed for result in suite_results]
    by_name = {r.name: r for r in results}
    manifest_names = [name for name, _ in PROPERTY_MANIFEST]
    missing = [name for name in manifest_names if name not in by_name]
    extra = [r.name for r in results if r.name not in set(manifest_names)]
    if missing or extra:
        raise InvariantError(
            f"property manifest drift: missing={missing}, unexpected={extra}"
        )
    passed = True
    for name in manifest_names:
        result = by_name[name]
        print(result.line(), file=out)
        passed = passed and result.passed
    print(("all properties hold" if passed else "property violations found"), file=out)
    if seconds is not None:
        for suite, (_, took) in zip(suites, timed):
            print(f"{_suite_label(suite)}: {took:.2f} s", file=seconds)
        print(f"total: {time.perf_counter() - start:.2f} s", file=seconds)
    return passed


# --- search for beyond-capability instances ---


@dataclass
class SearchInstance:
    target: str
    trial: int
    seed: int
    rho: int
    t: int
    ds_vu: int
    layer_ds: tuple[int, ...]
    alg1_status: tuple[str, ...]
    alg2_status: tuple[str, ...]
    retry_ds: tuple[tuple[int, int], ...]
    V: Subspace
    U: Subspace

    def dump(self) -> str:
        retry = "|".join(f"{layer}:{d}" for layer, d in self.retry_ds) or "-"
        lines = [
            f"# instance {self.target}",
            f"# trial {self.trial} seed {self.seed} rho {self.rho} t {self.t}",
            (
                f"# ds_vu {self.ds_vu} layer_ds {'|'.join(map(str, self.layer_ds))} "
                f"alg1 {'|'.join(self.alg1_status)} alg2 {'|'.join(self.alg2_status)} "
                f"retry_ds {retry}"
            ),
        ]
        return "\n".join(lines) + "\n" + dump_pair(self.V, self.U)


@dataclass
class SearchResult:
    found: dict[str, SearchInstance]
    missing: tuple[str, ...]
    trials_used: int


def _retry_distances(code: LayeredCode, word, alg1_report, alg2_report) -> tuple[tuple[int, int], ...]:
    """d_S(V_l, extracted) at the successful SIC attempt, for layers alg1 missed."""
    out = []
    for layer_result in alg2_report.layers:
        layer = layer_result.layer
        if layer_result.status != STATUS_OK:
            continue
        if alg1_report.layers[layer - 1].status == STATUS_OK:
            continue
        # plain alg2 tries each layer once
        before = alg2_report.accumulated[alg2_report.attempt_layers.index(layer)]
        out.append((layer, code.layer_distance(word.component_matrices[layer - 1], before, layer)))
    return tuple(out)


def _matches_profile(profile, ds, layer_ds, retry_ds) -> bool:
    if profile is None:
        return True
    if profile.ds is not None and ds != profile.ds:
        return False
    if profile.layer_ds is not None and layer_ds != profile.layer_ds:
        return False
    if profile.retry_ds is not None:
        if not retry_ds or any(d != profile.retry_ds for _, d in retry_ds):
            return False
    return True


def run_search_beyond(cfg: ExperimentConfig, progress: TextIO | None = None) -> SearchResult:
    """Randomized search for instructive beyond-capability instances.

    Targets: ``alg1-beyond`` (overall distance beyond half the minimum yet
    parallel decoding fully succeeds), ``alg2-rescues`` (parallel decoding
    fails a layer but SIC recovers everything), ``alg1-only`` (parallel
    decoding succeeds while SIC loses a layer).
    """
    return _search_beyond(cfg, check_verb(cfg, "search-beyond"), progress)


def _search_beyond(cfg: ExperimentConfig, code: LayeredCode, progress: TextIO | None) -> SearchResult:
    """``run_search_beyond`` on ``code``, the one its verb check built."""
    grid = [(rho, t) for rho, t in cfg.grid() if rho + t > code.capability]
    wanted = list(cfg.search_targets)
    found: dict[str, SearchInstance] = {}
    trial = 0
    while trial < cfg.search_budget and len(found) < len(wanted):
        rho, t = grid[trial % len(grid)]
        seed, word, outcome = _draw_trial(code, cfg.seed, trial, rho, t, "exact", 0, 0)
        ds = outcome.distance
        r1 = code.decode_alg1(outcome.U)
        r2 = code.decode_alg2(outcome.U)
        alg1_full = r1.recombined == word.V
        alg2_full = r2.recombined == word.V
        classification = {
            # every grid point has rho + t > capability, and ds = rho + t
            "alg1-beyond": alg1_full,
            "alg2-rescues": (not r1.all_ok) and alg2_full,
            "alg1-only": alg1_full and not r2.all_ok,
        }
        if any(classification[t_] for t_ in wanted if t_ not in found):
            layer_ds = _layer_distances(code, word, outcome.U)
            retry = _retry_distances(code, word, r1, r2)
            for target in wanted:
                if target in found or not classification[target]:
                    continue
                if not _matches_profile(
                    cfg.search_profiles.get(target), ds, layer_ds, retry
                ):
                    continue
                found[target] = SearchInstance(
                    target=target,
                    trial=trial,
                    seed=seed,
                    rho=rho,
                    t=t,
                    ds_vu=ds,
                    layer_ds=layer_ds,
                    alg1_status=tuple(r.status for r in r1.layers),
                    alg2_status=tuple(r.status for r in r2.layers),
                    retry_ds=retry,
                    V=word.V,
                    U=outcome.U,
                )
        trial += 1
        if progress is not None and trial % cfg.search_report_every == 0:
            print(
                f"searched {trial} trials; found {sorted(found)}",
                file=progress,
            )
    missing = tuple(t_ for t_ in wanted if t_ not in found)
    return SearchResult(found=found, missing=missing, trials_used=trial)


# --- scenario modes ---


@dataclass
class ScenarioResult:
    csv_text: str
    summary_lines: list[str]
    records: list[TrialRecord] = dc_field(default_factory=list)
    # how many records ``_guaranteed_failure`` holds for, as in ``summarize``
    guaranteed_failures: int = 0


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """The configured scenario mode, at the config's one grid point."""
    check_verb(cfg, "scenario")
    if cfg.scenario_mode == "multi-source":
        return _scenario_multi_source(cfg)
    ((rho, t),) = cfg.grid()
    spec = ChannelSpec(rho=rho, t=t)
    code = cfg.build_code()
    if cfg.scenario_mode == "multicast":
        return _scenario_multicast(cfg, code, spec)
    return _scenario_unicast(cfg, code, spec)


def _multicast_trial(
    code: LayeredCode, count: int, seed: int, spec: ChannelSpec, algorithms: Sequence[str], max_sweeps: int
) -> tuple[bool, ...]:
    """Per algorithm, whether one trial of the first ``count`` layers decodes."""
    code = code.prefixes[count - 1]
    word, outcome = make_trial(code, seed, spec)
    return tuple(
        code.decode(outcome.U, algorithm, max_sweeps).recombined == word.V
        for algorithm in algorithms
    )


def _scenario_multicast(cfg: ExperimentConfig, code: LayeredCode, spec: ChannelSpec) -> ScenarioResult:
    """Adaptive layer count: rate vs. success under a fixed channel."""
    m = code.params.m
    algorithms = cfg.algorithms()
    counts = range(1, len(cfg.layers) + 1)
    # a count is skipped when rho exceeds its dim V; the config bounds t by m
    fits = {count: spec.rho <= sum(n for n, _ in cfg.layers[:count]) for count in counts}
    # the trial seed does not depend on the algorithm: build each trial once
    jobs = [
        (count, derive_seed(cfg.seed, count, spec.rho, spec.t, trial), spec, algorithms, cfg.max_sweeps)
        for count in counts
        if fits[count]
        for trial in range(cfg.trials)
    ]
    outcomes = iter(_map_trials(cfg, code, _multicast_trial, jobs))
    rows = []
    summary = ["multicast sweep (adaptive layer count)"]
    for count in counts:
        if not fits[count]:
            summary.append(f"layers={count}: skipped (channel outside bounds)")
            continue
        rate = sum(k for _, k in cfg.layers[:count]) * m
        trials = [next(outcomes) for _ in range(cfg.trials)]
        for i, algorithm in enumerate(algorithms):
            successes = sum(trial[i] for trial in trials)
            rows.append(
                (str(count), str(rate), algorithm, str(cfg.trials), str(successes))
            )
            summary.append(
                f"layers={count} rate={rate} {algorithm}: {successes}/{cfg.trials}"
            )
    return ScenarioResult(render_csv(SCENARIO_MULTICAST_COLUMNS, rows), summary)


def _scenario_multi_source(cfg: ExperimentConfig) -> ScenarioResult:
    """Independent per-layer sources: ``run_simulate`` at the one grid
    point, reported as all-layer and per-layer recovery counts, and the
    guaranteed-regime failures when there are any.  The all-layer counts
    are ``summarize``'s rows, one per algorithm at the one grid point."""
    result = run_simulate(cfg)
    summary = ["multi-source multicast"]
    for row in result.summary:
        summary.append(f"{row.algorithm}: all layers recovered {row.successes}/{row.trials}")
        rows = [r for r in result.records if r.algorithm == row.algorithm]
        for layer in range(1, len(cfg.layers) + 1):
            ok = sum(1 for r in rows if r.layer_status[layer - 1] == STATUS_OK)
            summary.append(f"  layer {layer}: {ok}/{row.trials}")
    if result.guaranteed_failures:
        summary.append(result.failures_line)
    return ScenarioResult(result.csv_text, summary, result.records, result.guaranteed_failures)


def _unicast_trial(
    code: LayeredCode, master_seed: int, trial: int, rho: int, t: int, layer: int
) -> tuple[int, bool]:
    """The trial's seed, and whether its layer decodes from its extracted component alone."""
    seed, word, outcome = _draw_trial(code, master_seed, trial, rho, t, "exact", 0, 0)
    result = code.decode_layer(outcome.U, layer)
    return seed, result.matrix == word.component_matrices[layer - 1]


def _scenario_unicast(cfg: ExperimentConfig, code: LayeredCode, spec: ChannelSpec) -> ScenarioResult:
    """Receiver wants one layer: extract it and run only that decoder."""
    layer = cfg.unicast_layer
    jobs = [(cfg.seed, trial, spec.rho, spec.t, layer) for trial in range(cfg.trials)]
    outcomes = _map_trials(cfg, code, _unicast_trial, jobs)
    rows = [
        (str(trial), str(seed), str(spec.rho), str(spec.t), str(layer), "1" if ok else "0")
        for trial, (seed, ok) in enumerate(outcomes)
    ]
    summary = [f"unicast layer {layer}: {sum(ok for _, ok in outcomes)}/{cfg.trials} recovered"]
    return ScenarioResult(render_csv(SCENARIO_UNICAST_COLUMNS, rows), summary)
