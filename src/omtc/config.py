"""Run configuration: flat dotted-key text files with a strict schema.

Format: UTF-8 lines of ``section.key = value``; blank lines and lines
starting with ``#`` are ignored.  Unknown keys are rejected, every
diagnostic is a single line carrying the key path, and an empty document
reproduces the reference parameter set of the strong-strong coupling
regime (g_a=2.4, g_M=1.2, kappa=0.2, Gamma=0.01, gamma_a=0.05,
delta_ac=0, gamma_M=0, Mbar=0, J=0).

The dataclasses that hold a run's settings live here: RunConfig and its
sections (ModelParams comes from model.py).  _SCHEMA is the one list of
keys: each entry is (key, field path in RunConfig, parser, name in the
grid hash or None).  The known keys, the parser, the footer echo and the
grid hash text are all read from it, and a key missing from a document
keeps the default of its dataclass field, so adding a key means adding
its field and one entry.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from .errors import ConfigurationError
from .model import ModelParams

SCHEMA_VERSION = "omtc/1"

SWEEPABLE = ("J", "delta_ac", "gamma_M", "gamma_a", "Mbar")

DEFAULT_PEAK_FRACTION = 0.02


@dataclass(frozen=True)
class FilterParams:
    """Lorentzian filter bandwidth and the detuning sweep window."""

    Gamma: float = 0.01
    delta_min: float = -8.0
    delta_max: float = 8.0
    n_points: int = 321

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ConfigurationError(f"Gamma must be > 0, got {self.Gamma}")
        if not self.delta_min < self.delta_max:
            raise ConfigurationError("delta_min must be below delta_max")
        if self.n_points < 3:  # find_peaks fits a parabola to three points
            raise ConfigurationError(f"n_points must be >= 3, got {self.n_points}")

    def deltas(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.n_points)


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings (times in 1/omega_M)."""

    dt: float = 0.02
    t_max: float = 400.0
    method: str = "rk4"
    leak_tolerance: float = 1e-4
    max_grid_bytes: int = 2 * 1024**3

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.t_max < self.dt:
            raise ConfigurationError("t_max must be at least one step")
        if self.method not in ("rk4", "expm"):
            raise ConfigurationError(f"method must be 'rk4' or 'expm', got {self.method!r}")
        if self.leak_tolerance < 0:
            raise ConfigurationError("leak_tolerance must be >= 0")
        if self.max_grid_bytes <= 0:
            raise ConfigurationError(f"max_grid_bytes must be > 0, got {self.max_grid_bytes}")

    @property
    def n_max(self) -> int:
        """Number of grid nodes t_k = k dt up to t_max."""
        return int(np.floor(self.t_max / self.dt + 0.5)) + 1


@dataclass(frozen=True)
class NumericsConfig:
    """Evolution settings plus the truncation of the composite space."""

    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    N_c: int = 1
    N_m: int = 8
    excitation_cap: int | None = 1


@dataclass(frozen=True)
class OutputConfig:
    csv: str | None = None
    svg: str | None = None
    correlation_dump: str | None = None
    load_correlation: str | None = None
    peak_min_fraction: float = DEFAULT_PEAK_FRACTION

    def __post_init__(self):
        if not 0.0 < self.peak_min_fraction < 1.0:
            raise ConfigurationError(
                f"output.peak_min_fraction must be in (0, 1), got {self.peak_min_fraction}"
            )


@dataclass(frozen=True)
class SweepConfig:
    parameter: str = ""
    values: tuple = ()

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ConfigurationError(
                f"sweep.parameter must be one of {', '.join(SWEEPABLE)}, got {self.parameter!r}"
            )
        if not self.values:
            raise ConfigurationError("sweep.values must be a non-empty list")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    filter: FilterParams = field(default_factory=FilterParams)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep: SweepConfig | None = None
    excited_atom: int | str = 1
    dressed_m_max: int = 6
    #: accepted and validated for compatibility; results do not depend on it
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"config error at {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"config error at {key}: expected an integer, got {raw!r}") from None


def _parse_text(key, raw):
    return raw


def _parse_cap(key, raw):
    return None if raw.lower() == "none" else _parse_int(key, raw)


def _parse_atom(key, raw):
    if raw in ("1", "2"):
        return int(raw)
    if raw in ("symmetric", "antisymmetric"):
        return raw
    raise ConfigurationError(
        f"config error at {key}: expected 1, 2, symmetric or antisymmetric, got {raw!r}"
    )


def _parse_values(key, raw):
    return tuple(_parse_float(key, v.strip()) for v in raw.split(",") if v.strip())


#: (key, field path in RunConfig, parser, name in the grid hash or None);
#: the hashed entries in the order of the hash text
_SCHEMA = (
    *((f"model.{f.name}", f"model.{f.name}", _parse_float, f.name) for f in fields(ModelParams)),
    ("numerics.N_c", "numerics.N_c", _parse_int, "N_c"),
    ("numerics.N_m", "numerics.N_m", _parse_int, "N_m"),
    ("numerics.excitation_cap", "numerics.excitation_cap", _parse_cap, "cap"),
    ("numerics.dt", "numerics.evolution.dt", _parse_float, "dt"),
    ("numerics.t_max", "numerics.evolution.t_max", _parse_float, "t_max"),
    ("numerics.method", "numerics.evolution.method", _parse_text, "method"),
    ("numerics.leak_tolerance", "numerics.evolution.leak_tolerance", _parse_float, "leak"),
    ("model.excited_atom", "excited_atom", _parse_atom, "initial"),
    ("numerics.max_grid_bytes", "numerics.evolution.max_grid_bytes", _parse_int, None),
    ("filter.Gamma", "filter.Gamma", _parse_float, None),
    ("filter.delta_min", "filter.delta_min", _parse_float, None),
    ("filter.delta_max", "filter.delta_max", _parse_float, None),
    ("filter.n_points", "filter.n_points", _parse_int, None),
    ("output.csv", "output.csv", _parse_text, None),
    ("output.svg", "output.svg", _parse_text, None),
    ("output.correlation_dump", "output.correlation_dump", _parse_text, None),
    ("output.load_correlation", "output.load_correlation", _parse_text, None),
    ("output.peak_min_fraction", "output.peak_min_fraction", _parse_float, None),
    ("sweep.parameter", "sweep.parameter", _parse_text, None),
    ("sweep.values", "sweep.values", _parse_values, None),
    ("dressed.m_max", "dressed_m_max", _parse_int, None),
    ("threads", "threads", _parse_int, None),
)

_KNOWN_KEYS = frozenset(key for key, *_ in _SCHEMA)


def _parse_lines(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"config error at line {lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigurationError(
                f"config error at line {lineno}: empty key or value"
            )
        if key in pairs:
            raise ConfigurationError(f"config error at {key}: duplicate key")
        pairs[key] = value
    return pairs


def _field(config, path: str):
    return reduce(getattr, path.split("."), config)


def _assemble(default, values: dict, section: str = ""):
    """default with values set at their dotted field paths.

    Each dataclass on a path is rebuilt once, so validated once; a
    validation error names the top-level section.  The sweep section has no
    default (None) and is built from its keys alone.
    """
    heads: dict[str, dict] = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        heads.setdefault(head, {})[rest] = value
    changes = {
        head: sub[""] if "" in sub else _assemble(getattr(default, head), sub, section or head)
        for head, sub in heads.items()
    }
    try:
        return SweepConfig(**changes) if default is None else replace(default, **changes)
    except ConfigurationError as exc:
        where = f" at {section}.*" if section else ""
        raise ConfigurationError(f"config error{where}: {exc}") from None


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Validate a config document, with overrides replacing its keys, over the dataclass defaults.

    overrides maps keys to raw values, as a document line would give them
    (the command-line flags), and goes through the same parsers and checks.
    """
    pairs = _parse_lines(text) | (overrides or {})
    for key in pairs:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"config error at {key}: unknown key")
    values = {path: parse(key, pairs[key]) for key, path, parse, _ in _SCHEMA if key in pairs}
    return _assemble(RunConfig(), values)


def apply_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """Config with the swept model parameter replaced by one sweep value."""
    if config.sweep is None:
        raise ConfigurationError("no sweep section in the config")
    model = replace(config.model, **{config.sweep.parameter: value})
    return replace(config, model=model)


def canonical_param_string(params: ModelParams, numerics: NumericsConfig, initial) -> str:
    """Stable textual form of everything that determines the grid: the hashed _SCHEMA entries."""
    run = RunConfig(model=params, numerics=numerics, excited_atom=initial)
    items = []
    for _, path, _, name in _SCHEMA:
        if name is not None:
            value = _field(run, path)
            # floats by repr, the rest by str: the text earlier dumps were hashed on
            items.append(f"{name}={value!r}" if isinstance(value, float) else f"{name}={value}")
    return ";".join(items)


def echo_lines(config: RunConfig, extra: dict | None = None) -> list[str]:
    """Deterministic 'key = value' lines for output footers.

    Every key that determines the grid (a hashed _SCHEMA entry) and every
    filter key is echoed, so a run can be reproduced from its own output
    file.
    """
    items = {
        key: _field(config, path)
        for key, path, _, name in _SCHEMA
        if name is not None or key.startswith("filter.")
    }
    items["schema"] = SCHEMA_VERSION
    if extra:
        items.update(extra)
    return [f"{k} = {items[k]}" for k in sorted(items)]
