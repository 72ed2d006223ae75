"""Command-line harness.

Verbs: simulate, verify, search-beyond, scenario, dump-code, each with
its handler and flags in ``VERBS``.  ``simulate`` and ``scenario`` share
``_cmd_csv``: the CSV to stdout or ``--out``, the summary lines to stderr
(stdout with ``--out``), and exit 1 on any guaranteed-regime failure.

Exit codes: 0 success, 1 property violation, 2 config error (an
``--out`` that cannot be opened, written or closed included) or a failed
write to stdout, 3 search target not found, 4 stdout closed by the
reader (for example ``| head``): one stderr line or none, and the rest
of the output is dropped, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .config import ExperimentConfig, check_verb, load_config, override
from .errors import CapacityError, ConfigError
from .harness import run_scenario, run_search_beyond, run_simulate, run_verify
from .linalg import dump_pair, dump_subspace
from .channel import ChannelSpec, make_trial

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3
EXIT_BROKEN_PIPE = 4

_FLAG_OPTIONS = {
    "--seed": dict(help="override config seed"),
    "--trials": dict(help="override trial count"),
    "--workers": dict(help="override worker count"),
    "--out": dict(help="write the CSV / found instances here"),
    "--dump": dict(action="store_true", help="emit fixture dumps"),
}


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    """Apply the override flags the verb has (``VERBS``) and the user gave."""
    for key in ("seed", "trials", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            override(cfg, key, value)


def _open_out(path: str):
    """The ``--out`` file, opened before any trial runs: an unwritable path
    is a config error (exit 2), not a traceback after the whole run."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"--out: {path}: {exc.strerror or exc}") from None


def _emit(args, text: str) -> None:
    """Write a verb's main text to stdout, or to ``--out`` and close it; a
    failed write or close of ``--out`` (a full disk, say) is a config error."""
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with args.out:
            args.out.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: {args.out.name}: {exc.strerror or exc}") from None


def _cmd_csv(run, cfg: ExperimentConfig, args) -> int:
    """``simulate`` and ``scenario``: ``run`` is ``run_simulate`` or
    ``run_scenario``.  Only ``simulate`` has ``--dump``."""
    result = run(cfg)
    _emit(args, result.csv_text)
    stream = sys.stderr if args.out is None else sys.stdout
    for line in result.summary_lines:
        print(line, file=stream)
    if getattr(args, "dump", False) and result.guaranteed_failures:
        _dump_guaranteed_failures(cfg, result)
    return EXIT_VIOLATION if result.guaranteed_failures else EXIT_OK


def _dump_guaranteed_failures(cfg: ExperimentConfig, result) -> None:
    """Re-derive and dump failed guaranteed-regime trials for diagnosis."""
    code = cfg.build_code()
    exact = cfg.channel_mode == "exact"
    seen = set()
    for record in result.records:
        if record.success or record.ds_vu > code.capability:
            continue
        key = (record.trial, record.rho_requested, record.t_requested)
        if key in seen:
            continue
        seen.add(key)
        spec = ChannelSpec(rho=record.rho_requested, t=record.t_requested) if exact else None
        word, outcome = make_trial(code, record.seed, spec, cfg.collected, cfg.error_packets)
        print(f"# failed trial {record.trial} rho {record.rho_realized} t {record.t_realized}")
        print(dump_pair(word.V, outcome.U), end="")


def _cmd_verify(cfg: ExperimentConfig, args) -> int:
    passed = run_verify(cfg, seconds=sys.stderr)
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_search(cfg: ExperimentConfig, args) -> int:
    result = run_search_beyond(cfg, progress=sys.stderr)
    text = "".join(
        result.found[target].dump() + "\n"
        for target in cfg.search_targets
        if target in result.found
    )
    _emit(args, text)
    for target in cfg.search_targets:
        if target in result.found:
            inst = result.found[target]
            print(
                f"found {target}: trial {inst.trial} ds_vu {inst.ds_vu} "
                f"layer_ds {'|'.join(map(str, inst.layer_ds))}",
                file=sys.stderr,
            )
        else:
            print(
                f"not found {target} within {result.trials_used} trials",
                file=sys.stderr,
            )
    return EXIT_NOT_FOUND if result.missing else EXIT_OK


def _cmd_dump_code(cfg: ExperimentConfig, args) -> int:
    code = cfg.build_code()
    params = code.params
    print(f"field: q={params.q} m={params.m} modulus={','.join(map(str, params.modulus))}")
    print(f"layers: {len(code.layers)}  N={code.total_length}  ambient={code.ambient_dim}")
    for idx, layer in enumerate(code.layers, start=1):
        print(
            f"  layer {idx}: n={layer.n} k={layer.k} "
            f"d_R={layer.min_rank_distance} d_S={2 * layer.min_rank_distance} "
            f"offset={code.offsets[idx - 1]}"
        )
    print(f"overall minimum subspace distance: {code.min_distance()}")
    if args.dump:
        zero_messages = [[0] * layer.k for layer in code.layers]
        word = code.encode(zero_messages)
        print("zero-message codeword")
        print(dump_subspace(word.V), end="")
        for idx in range(1, code.num_layers + 1):
            print(f"component {idx} (zero message)")
            print(dump_subspace(word.components[idx - 1]), end="")
    return EXIT_OK


# verb -> (handler, the override flags it honours); argparse rejects the
# other flags (exit 2).  search-beyond stops at ``[search] budget``, so it
# takes no --trials
VERBS = {
    "simulate": (partial(_cmd_csv, run_simulate), ("--seed", "--trials", "--workers", "--out", "--dump")),
    "verify": (_cmd_verify, ("--seed", "--workers")),
    "search-beyond": (_cmd_search, ("--seed", "--out")),
    "scenario": (partial(_cmd_csv, run_scenario), ("--seed", "--trials", "--workers", "--out")),
    "dump-code": (_cmd_dump_code, ("--dump",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsc",
        description="Layered subspace codes: simulation and verification harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, flags) in VERBS.items():
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="experiment config path")
        for flag in flags:
            p.add_argument(flag, **_FLAG_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        # subspace dumps hold one digit per entry (docs/formats.md)
        if cfg.q > 10 and (args.verb == "search-beyond" or args.verb == "simulate" and args.dump):
            where = cfg.where("field", "q")
            raise ConfigError(f"{where}: subspace dumps need q <= 10, got {cfg.q}")
        # every config error is raised before --out is opened
        check_verb(cfg, args.verb)
        handler = VERBS[args.verb][0]
        if getattr(args, "out", None) is None:
            code = handler(cfg, args)
        else:
            with _open_out(args.out) as args.out:
                code = handler(cfg, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush at
        # exit, to devnull (the Python docs' advice for SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # any other OSError here is a write to stdout: drop it as above
        print(f"write error: stdout: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
