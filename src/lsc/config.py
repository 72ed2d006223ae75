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
from . import layered
from .layered import LayeredCode

ALGORITHMS = layered.ALGORITHMS + ("both",)
SCENARIO_MODES = ("multicast", "multi-source", "unicast")
SEARCH_TARGETS = ("alg1-beyond", "alg2-rescues", "alg1-only")

# Default of each count a [verify] config section may override.
VERIFY_COUNTS: dict[str, int] = {
    "random_checks": 10_000,
    "trials_per_point": 1000,
    "extraction_trials": 10_000,
    "dominance_trials": 1000,
    "enumeration_pairs": 300,
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

    def where(self, section: str, key: str, *fallbacks: tuple[str, str]) -> str:
        """``file:line`` of the first of (section, key) and the ``fallbacks``
        that the file sets, or the file alone when it sets none of them."""
        for at in ((section, key), *fallbacks):
            if at in self.key_lines:
                return f"{self.source}:{self.key_lines[at]}"
        return self.source

    def field_params(self) -> FieldParams:
        if self.modulus is not None:
            return FieldParams(self.q, self.m, self.modulus)
        return FieldParams.default(self.q, self.m)

    def build_code(self) -> LayeredCode:
        return LayeredCode.standard(self.field_params(), self.layers)

    def algorithms(self) -> tuple[str, ...]:
        if self.algorithm == "both":
            return layered.ALGORITHMS
        return (self.algorithm,)

    def grid(self) -> tuple[tuple[int | None, int | None], ...]:
        """The channel points a run visits, as (rho, t): every pair of the
        ``rho`` and ``t`` lists on the exact channel, and the matrix
        channel's one point, (None, None), whose counts emerge per trial."""
        if self.channel_mode != "exact":
            return ((None, None),)
        return tuple((r, t) for r in self.rho_values for t in self.t_values)


def _integer(text: str) -> int | None:
    """The int that ``text`` spells as ASCII digits with an optional leading
    '-', past surrounding whitespace; None for any other spelling ('1_0',
    '+3', non-ASCII digits)."""
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        return None


def _int(minimum, maximum=None):
    def parse(value, at, name):
        out = _integer(value)
        if out is None:
            raise ConfigError(f"{at}: {name} must be an integer, got {value!r}")
        if out < minimum:
            raise ConfigError(f"{at}: {name} must be >= {minimum}, got {out}")
        if maximum is not None and out > maximum:
            raise ConfigError(f"{at}: {name} must be <= {maximum}, got {out}")
        return out

    return parse


def _items(value, at, name):
    """The stripped items of a comma list: none when every item is blank
    (the key then lists nothing), else none may be blank."""
    items = [x.strip() for x in value.split(",")]
    if not any(items):
        return []
    if not all(items):
        raise ConfigError(f"{at}: {name} has an empty item in {value!r}")
    return items


def _int_list(value, at, name):
    out = tuple(map(_integer, _items(value, at, name)))
    if None in out:
        raise ConfigError(f"{at}: {name} must be a comma list of integers")
    return out


def _grid_list(value, at, name):
    """A channel grid axis: at least one value, none repeated."""
    out = _int_list(value, at, name)
    if not out:
        raise ConfigError(f"{at}: {name} must list at least one value")
    for i, x in enumerate(out):
        if x in out[:i]:
            raise ConfigError(f"{at}: duplicate {name} value {x}")
    return out


def _distance_list(value, at, name):
    out = _int_list(value, at, name)
    for x in out:
        if x < 0:
            raise ConfigError(f"{at}: {name} must be >= 0, got {x}")
    return out


def _choice(options, message):
    def parse(value, at, name):
        if value not in options:
            raise ConfigError(f"{at}: {message}")
        return value

    return parse


def _layers(value, at, name):
    layers = []
    for part in _items(value, at, name):
        if ":" not in part:
            raise ConfigError(f"{at}: layers entries use 'n:k', got {part!r}")
        n_str, _, k_str = part.partition(":")
        pair = (_integer(n_str), _integer(k_str))
        if None in pair:
            raise ConfigError(f"{at}: layers entries use 'n:k', got {part!r}")
        layers.append(pair)
    if not layers:
        raise ConfigError(f"{at}: layers must list at least one n:k pair")
    return tuple(layers)


def _targets(value, at, name):
    targets = tuple(_items(value, at, name))
    if not targets:
        raise ConfigError(f"{at}: targets must list at least one search target")
    for target in targets:
        if target not in SEARCH_TARGETS:
            raise ConfigError(f"{at}: unknown search target {target!r}")
    for i, target in enumerate(targets):
        if target in targets[:i]:
            raise ConfigError(f"{at}: duplicate search target {target!r}")
    return targets


# (section, key) -> (ExperimentConfig attribute, parser), in parse order: the
# first bad key in this order is the one a multi-error config reports.
_SCHEMA = {
    ("field", "q"): ("q", _int(2)),
    ("field", "m"): ("m", _int(1)),
    ("field", "modulus"): ("modulus", _int_list),
    ("code", "layers"): ("layers", _layers),
    ("channel", "mode"): (
        "channel_mode",
        _choice(("exact", "matrix"), "channel mode must be exact or matrix"),
    ),
    ("channel", "rho"): ("rho_values", _grid_list),
    ("channel", "t"): ("t_values", _grid_list),
    ("channel", "collected"): ("collected", _int(0)),
    ("channel", "error_packets"): ("error_packets", _int(0)),
    ("run", "algorithm"): (
        "algorithm",
        _choice(ALGORITHMS, f"algorithm must be one of {', '.join(ALGORITHMS)}"),
    ),
    ("run", "trials"): ("trials", _int(0)),
    # rng.derive_seed reads a master seed mod 2^64, so a larger one would
    # alias a smaller one
    ("run", "seed"): ("seed", _int(0, 2**64 - 1)),
    ("run", "max_sweeps"): ("max_sweeps", _int(1)),
    ("run", "workers"): ("workers", _int(1)),
    ("scenario", "mode"): (
        "scenario_mode",
        _choice(SCENARIO_MODES, f"scenario mode must be one of {', '.join(SCENARIO_MODES)}"),
    ),
    ("scenario", "unicast_layer"): ("unicast_layer", _int(1)),
    ("search", "budget"): ("search_budget", _int(1)),
    ("search", "report_every"): ("search_report_every", _int(1)),
    ("search", "targets"): ("search_targets", _targets),
}

# [search] "<target>.<pin>" keys: SearchProfile field -> parser, per target.
_PIN_PARSERS = {"ds": _int(0), "layer_ds": _distance_list, "retry_ds": _int(0)}
_PINS = {
    "alg1-beyond": ("ds", "layer_ds"),
    "alg2-rescues": ("ds", "layer_ds", "retry_ds"),
    "alg1-only": ("ds", "layer_ds"),
}

_KNOWN_KEYS: set[tuple[str, str]] = {
    *_SCHEMA,
    *(("search", f"{target}.{pin}") for target, pins in _PINS.items() for pin in pins),
    *(("verify", key) for key in VERIFY_COUNTS),
}
_SECTIONS = {section for section, _ in _KNOWN_KEYS}


def _parse_sections(text: str, source: str) -> dict[tuple[str, str], tuple[str, int]]:
    """Raw parse to {(section, key): (value, line)} with strict syntax."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].split(";", 1)[0].strip()
        if (current, key) not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}' in [{current}]")
        if (current, key) in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        entries[(current, key)] = (value, lineno)
    return entries


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    entries = _parse_sections(text, source)
    cfg = ExperimentConfig(source=source)
    cfg.key_lines = {where: line for where, (_, line) in entries.items()}

    def read(where, parse, name):
        value, line = entries[where]
        return parse(value, f"{source}:{line}", name)

    for where, (attr, parse) in _SCHEMA.items():
        if where in entries:
            setattr(cfg, attr, read(where, parse, where[1]))
    for target, pins in _PINS.items():
        given = {
            pin: read(("search", f"{target}.{pin}"), _PIN_PARSERS[pin], pin)
            for pin in pins
            if ("search", f"{target}.{pin}") in entries
        }
        if given:
            cfg.search_profiles[target] = SearchProfile(**given)
    for key in VERIFY_COUNTS:
        if ("verify", key) in entries:
            cfg.verify_counts[key] = read(("verify", key), _int(1), key)

    _cross_validate(cfg)
    return cfg


def override(cfg: ExperimentConfig, key: str, value) -> None:
    """Set the ``[run] key`` from its command-line flag, through the key's
    own parser: ``--seed -1`` is refused as ``seed = -1`` is, at ``--seed``."""
    attr, parse = _SCHEMA[("run", key)]
    setattr(cfg, attr, parse(value, f"--{key}", key))


def _cross_validate(cfg: ExperimentConfig) -> None:
    """Checks across keys.  A message names the line of the key it is
    about, or, when the file leaves that key at its default, the line of
    the key that makes the default wrong."""
    where = cfg.where
    for c in cfg.modulus or ():
        if not 0 <= c < cfg.q:
            raise ConfigError(
                f"{where('field', 'modulus')}: modulus coefficients must lie in "
                f"[0, q = {cfg.q}), got {c}"
            )
    try:
        params = cfg.field_params()
    except ParameterError as exc:
        at = where("field", "modulus", ("field", "q"), ("field", "m"))
        raise ConfigError(f"{at}: {exc}") from None

    for n, k in cfg.layers:
        if not 1 <= k <= n <= params.m:
            raise ConfigError(
                f"{where('code', 'layers', ('field', 'm'))}: layer ({n},{k}) violates "
                f"1 <= k <= n <= m = {params.m}"
            )

    total = sum(n for n, _ in cfg.layers)
    if cfg.channel_mode == "exact":
        for rho in cfg.rho_values:
            if not 0 <= rho <= total:
                raise ConfigError(
                    f"{where('channel', 'rho', ('code', 'layers'))}: rho = {rho} "
                    f"outside [0, dim V = {total}]"
                )
        for t in cfg.t_values:
            if not 0 <= t <= params.m:
                raise ConfigError(
                    f"{where('channel', 't', ('field', 'm'))}: t = {t} "
                    f"outside [0, ambient - dim V = {params.m}]"
                )
    else:
        if cfg.collected is None:
            raise ConfigError(
                f"{where('channel', 'mode')}: matrix mode requires 'collected'"
            )

    if cfg.unicast_layer > len(cfg.layers):
        raise ConfigError(
            f"{where('scenario', 'unicast_layer')}: unicast_layer = {cfg.unicast_layer} "
            f"exceeds the layer count {len(cfg.layers)}"
        )

    for target, profile in cfg.search_profiles.items():
        if profile.layer_ds is not None and len(profile.layer_ds) != len(cfg.layers):
            raise ConfigError(
                f"{where('search', f'{target}.layer_ds')}: {target}.layer_ds has "
                f"{len(profile.layer_ds)} entries; it needs one per layer ({len(cfg.layers)})"
            )


def check_verb(cfg: ExperimentConfig, verb: str) -> LayeredCode | None:
    """The checks that only some verbs make, all on the config alone.

    ``search-beyond`` and ``scenario`` draw from the exact channel only; a
    search needs a grid point beyond the capability, and a scenario exactly
    one grid point.  The CLI makes them before it opens ``--out``, and
    ``run_search_beyond`` and ``run_scenario`` make them for library
    callers.  A search's check returns the code it built, to run on.
    """
    if verb not in ("search-beyond", "scenario"):
        return None
    if cfg.channel_mode != "exact":
        raise ConfigError(
            f"{cfg.where('channel', 'mode')}: {verb} uses the exact channel only; "
            f"mode = {cfg.channel_mode} is not supported"
        )
    if verb == "search-beyond":
        code = cfg.build_code()
        if all(rho + t <= code.capability for rho, t in cfg.grid()):
            raise ConfigError(
                f"{cfg.where('channel', 'rho', ('code', 'layers'))}: search needs grid "
                f"points with 2(rho+t) >= {code.min_distance()}; none configured"
            )
        return code
    if len(cfg.grid()) != 1:
        # the first axis the file lists more than one value for, else the mode
        axes = (("rho", cfg.rho_values), ("t", cfg.t_values))
        wide = [("channel", key) for key, values in axes if len(values) > 1]
        first, *rest = wide + [("scenario", "mode")]
        raise ConfigError(
            f"{cfg.where(*first, *rest)}: scenario modes use a "
            f"fixed channel; configure exactly one rho and one t value"
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
