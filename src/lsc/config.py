"""Experiment configuration: a plain-text key/value format with sections.

The format is the one documented in docs/formats.md: ``[section]``
headers, ``key = value`` pairs, ``#`` or ``;`` comments.  Nothing else is
accepted, and every diagnostic carries ``<file>:<line>`` so fixtures stay
diffable and errors stay actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ConfigError, ParameterError
from .field import FieldParams
from .layered import LayeredCode

ALGORITHMS = ("alg1", "alg2", "alg2-iterative", "both")
SCENARIO_MODES = ("multicast", "multi-source", "unicast")
SEARCH_TARGETS = ("alg1-beyond", "alg2-rescues", "alg1-only")

_KNOWN_KEYS: dict[str, set[str]] = {
    "field": {"q", "m", "modulus"},
    "code": {"layers"},
    "channel": {"mode", "rho", "t", "collected", "error_packets"},
    "run": {"algorithm", "trials", "seed", "max_sweeps", "workers"},
    "scenario": {"mode", "unicast_layer"},
    "search": {
        "budget",
        "report_every",
        "targets",
        "alg1-beyond.ds",
        "alg1-beyond.layer_ds",
        "alg2-rescues.ds",
        "alg2-rescues.layer_ds",
        "alg2-rescues.retry_ds",
        "alg1-only.ds",
        "alg1-only.layer_ds",
    },
    "verify": {
        "random_checks",
        "trials_per_point",
        "extraction_trials",
        "dominance_trials",
        "enumeration_pairs",
    },
}


@dataclass(frozen=True)
class SearchProfile:
    """Optional exact distance profile a found instance must match."""

    ds: int | None = None
    layer_ds: tuple[int, ...] | None = None
    retry_ds: int | None = None


@dataclass
class ExperimentConfig:
    source: str
    q: int = 2
    m: int = 4
    modulus: tuple[int, ...] | None = None
    layers: tuple[tuple[int, int], ...] = ((3, 1), (4, 1))
    channel_mode: str = "exact"
    rho_values: tuple[int, ...] = (0, 1, 2)
    t_values: tuple[int, ...] = (0, 1, 2)
    collected: int | None = None
    error_packets: int = 0
    algorithm: str = "both"
    trials: int = 100
    seed: int = 1
    max_sweeps: int = 4
    workers: int = 1
    scenario_mode: str = "multicast"
    unicast_layer: int = 1
    search_budget: int = 1_000_000
    search_report_every: int = 10_000
    search_targets: tuple[str, ...] = SEARCH_TARGETS
    search_profiles: dict[str, SearchProfile] = dc_field(default_factory=dict)
    verify_counts: dict[str, int] = dc_field(default_factory=dict)
    key_lines: dict[tuple[str, str], int] = dc_field(default_factory=dict)

    def where(self, section: str, key: str) -> str:
        line = self.key_lines.get((section, key))
        return f"{self.source}:{line}" if line else self.source

    def field_params(self) -> FieldParams:
        if self.modulus is not None:
            return FieldParams(self.q, self.m, self.modulus)
        return FieldParams.default(self.q, self.m)

    def build_code(self) -> LayeredCode:
        return LayeredCode.standard(self.field_params(), self.layers)

    def algorithms(self) -> tuple[str, ...]:
        if self.algorithm == "both":
            return ("alg1", "alg2", "alg2-iterative")
        return (self.algorithm,)

    def grid(self) -> tuple[tuple[int, int], ...]:
        return tuple((r, t) for r in self.rho_values for t in self.t_values)


def _parse_sections(text: str, source: str):
    """Raw parse to {section: {key: (value, line)}} with strict syntax."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].split(";", 1)[0].strip()
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        sections[current][key] = (value, lineno)
    return sections


def _get(sections, section, key):
    return sections.get(section, {}).get(key)


def _parse_int(source, entry, name, minimum=None):
    value, line = entry
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"{source}:{line}: {name} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{source}:{line}: {name} must be >= {minimum}, got {out}")
    return out


def _parse_int_list(source, entry, name):
    value, line = entry
    try:
        return tuple(int(x.strip()) for x in value.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"{source}:{line}: {name} must be a comma list of integers") from None


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    sections = _parse_sections(text, source)
    cfg = ExperimentConfig(source=source)
    for section, entries in sections.items():
        for key, (_, line) in entries.items():
            cfg.key_lines[(section, key)] = line

    entry = _get(sections, "field", "q")
    if entry:
        cfg.q = _parse_int(source, entry, "q", minimum=2)
    entry = _get(sections, "field", "m")
    if entry:
        cfg.m = _parse_int(source, entry, "m", minimum=1)
    entry = _get(sections, "field", "modulus")
    if entry:
        cfg.modulus = _parse_int_list(source, entry, "modulus")

    entry = _get(sections, "code", "layers")
    if entry:
        value, line = entry
        layers = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ConfigError(f"{source}:{line}: layers entries use 'n:k', got {part!r}")
            n_str, _, k_str = part.partition(":")
            try:
                layers.append((int(n_str), int(k_str)))
            except ValueError:
                raise ConfigError(f"{source}:{line}: layers entries use 'n:k', got {part!r}") from None
        if not layers:
            raise ConfigError(f"{source}:{line}: layers must list at least one n:k pair")
        cfg.layers = tuple(layers)

    entry = _get(sections, "channel", "mode")
    if entry:
        value, line = entry
        if value not in ("exact", "matrix"):
            raise ConfigError(f"{source}:{line}: channel mode must be exact or matrix")
        cfg.channel_mode = value
    entry = _get(sections, "channel", "rho")
    if entry:
        cfg.rho_values = _parse_int_list(source, entry, "rho")
    entry = _get(sections, "channel", "t")
    if entry:
        cfg.t_values = _parse_int_list(source, entry, "t")
    entry = _get(sections, "channel", "collected")
    if entry:
        cfg.collected = _parse_int(source, entry, "collected", minimum=0)
    entry = _get(sections, "channel", "error_packets")
    if entry:
        cfg.error_packets = _parse_int(source, entry, "error_packets", minimum=0)

    entry = _get(sections, "run", "algorithm")
    if entry:
        value, line = entry
        if value not in ALGORITHMS:
            raise ConfigError(
                f"{source}:{line}: algorithm must be one of {', '.join(ALGORITHMS)}"
            )
        cfg.algorithm = value
    entry = _get(sections, "run", "trials")
    if entry:
        cfg.trials = _parse_int(source, entry, "trials", minimum=0)
    entry = _get(sections, "run", "seed")
    if entry:
        cfg.seed = _parse_int(source, entry, "seed", minimum=0)
    entry = _get(sections, "run", "max_sweeps")
    if entry:
        cfg.max_sweeps = _parse_int(source, entry, "max_sweeps", minimum=1)
    entry = _get(sections, "run", "workers")
    if entry:
        cfg.workers = _parse_int(source, entry, "workers", minimum=1)

    entry = _get(sections, "scenario", "mode")
    if entry:
        value, line = entry
        if value not in SCENARIO_MODES:
            raise ConfigError(
                f"{source}:{line}: scenario mode must be one of {', '.join(SCENARIO_MODES)}"
            )
        cfg.scenario_mode = value
    entry = _get(sections, "scenario", "unicast_layer")
    if entry:
        cfg.unicast_layer = _parse_int(source, entry, "unicast_layer", minimum=1)

    entry = _get(sections, "search", "budget")
    if entry:
        cfg.search_budget = _parse_int(source, entry, "budget", minimum=1)
    entry = _get(sections, "search", "report_every")
    if entry:
        cfg.search_report_every = _parse_int(source, entry, "report_every", minimum=1)
    entry = _get(sections, "search", "targets")
    if entry:
        value, line = entry
        targets = tuple(x.strip() for x in value.split(",") if x.strip())
        for target in targets:
            if target not in SEARCH_TARGETS:
                raise ConfigError(
                    f"{source}:{line}: unknown search target {target!r}"
                )
        cfg.search_targets = targets
    for target in SEARCH_TARGETS:
        ds = _get(sections, "search", f"{target}.ds")
        layer_ds = _get(sections, "search", f"{target}.layer_ds")
        retry = _get(sections, "search", f"{target}.retry_ds")
        if ds or layer_ds or retry:
            cfg.search_profiles[target] = SearchProfile(
                ds=_parse_int(cfg.source, ds, "ds") if ds else None,
                layer_ds=_parse_int_list(cfg.source, layer_ds, "layer_ds") if layer_ds else None,
                retry_ds=_parse_int(cfg.source, retry, "retry_ds") if retry else None,
            )

    for key in _KNOWN_KEYS["verify"]:
        entry = _get(sections, "verify", key)
        if entry:
            cfg.verify_counts[key] = _parse_int(source, entry, key, minimum=1)

    _cross_validate(cfg, sections)
    return cfg


def _cross_validate(cfg: ExperimentConfig, sections) -> None:
    src = cfg.source

    def line_of(section, key, fallback=0):
        entry = _get(sections, section, key)
        return entry[1] if entry else fallback

    try:
        params = cfg.field_params()
    except ParameterError as exc:
        line = line_of("field", "modulus", line_of("field", "q", line_of("field", "m")))
        raise ConfigError(f"{src}:{line}: {exc}") from None

    for n, k in cfg.layers:
        if not 1 <= k <= n <= params.m:
            raise ConfigError(
                f"{src}:{line_of('code', 'layers')}: layer ({n},{k}) violates 1 <= k <= n <= m = {params.m}"
            )

    total = sum(n for n, _ in cfg.layers)
    if cfg.channel_mode == "exact":
        for rho in cfg.rho_values:
            if not 0 <= rho <= total:
                raise ConfigError(
                    f"{src}:{line_of('channel', 'rho')}: rho = {rho} outside [0, dim V = {total}]"
                )
        for t in cfg.t_values:
            if not 0 <= t <= params.m:
                raise ConfigError(
                    f"{src}:{line_of('channel', 't')}: t = {t} outside [0, ambient - dim V = {params.m}]"
                )
    else:
        if cfg.collected is None:
            raise ConfigError(
                f"{src}:{line_of('channel', 'mode')}: matrix mode requires 'collected'"
            )

    if cfg.unicast_layer > len(cfg.layers):
        raise ConfigError(
            f"{src}:{line_of('scenario', 'unicast_layer')}: unicast_layer = {cfg.unicast_layer} "
            f"exceeds the layer count {len(cfg.layers)}"
        )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark, if any
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text (byte {exc.start})") from None
    return parse_config(text, source=path)
