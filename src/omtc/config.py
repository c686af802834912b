"""Run configuration: flat dotted-key text files with a strict schema.

Format: UTF-8 lines of ``section.key = value``; blank lines and lines
starting with ``#`` are ignored.  Unknown keys are rejected, every
diagnostic is a single line carrying the key path, and an empty document
reproduces the reference parameter set of the strong-strong coupling
regime (g_a=2.4, g_M=1.2, kappa=0.2, Gamma=0.01, gamma_a=0.05,
delta_ac=0, gamma_M=0, Mbar=0, J=0).
"""

from dataclasses import dataclass, field, fields, replace

from .dynamics import EvolutionConfig
from .errors import ConfigurationError
from .model import ModelParams
from .spectrum import DEFAULT_PEAK_FRACTION, FilterParams, NumericsConfig

SCHEMA_VERSION = "omtc/1"

SWEEPABLE = ("J", "delta_ac", "gamma_M", "gamma_a", "Mbar")

_MODEL_FLOAT_KEYS = tuple(f.name for f in fields(ModelParams))


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
    parameter: str
    values: tuple

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


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"config error at {key}: expected a number, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"config error at {key}: expected an integer, got {raw!r}") from None


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


_KNOWN_KEYS = (
    {f"model.{k}" for k in _MODEL_FLOAT_KEYS}
    | {
        "model.excited_atom",
        "numerics.dt", "numerics.t_max", "numerics.method",
        "numerics.leak_tolerance", "numerics.max_grid_bytes",
        "numerics.N_c", "numerics.N_m", "numerics.excitation_cap",
        "filter.Gamma", "filter.delta_min", "filter.delta_max", "filter.n_points",
        "output.csv", "output.svg", "output.correlation_dump",
        "output.load_correlation", "output.peak_min_fraction",
        "sweep.parameter", "sweep.values",
        "dressed.m_max",
        "threads",
    }
)


def parse_config(text: str) -> RunConfig:
    """Validate a config document and apply defaults."""
    pairs = _parse_lines(text)
    for key in pairs:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"config error at {key}: unknown key")

    def take(key, parse, default):
        if key in pairs:
            return parse(key, pairs.pop(key))
        return default

    model_kwargs = {}
    for name in _MODEL_FLOAT_KEYS:
        key = f"model.{name}"
        if key in pairs:
            model_kwargs[name] = _parse_float(key, pairs.pop(key))
    try:
        model = ModelParams(**model_kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config error at model.*: {exc}") from None

    excited_raw = pairs.pop("model.excited_atom", "1")
    if excited_raw in ("1", "2"):
        excited_atom: int | str = int(excited_raw)
    elif excited_raw in ("symmetric", "antisymmetric"):
        excited_atom = excited_raw
    else:
        raise ConfigurationError(
            "config error at model.excited_atom: expected 1, 2, symmetric "
            f"or antisymmetric, got {excited_raw!r}"
        )

    method = pairs.pop("numerics.method", "rk4")
    cap_raw = pairs.pop("numerics.excitation_cap", "1")
    cap = None if cap_raw == "none" else _parse_int("numerics.excitation_cap", cap_raw)
    try:
        evolution = EvolutionConfig(
            dt=take("numerics.dt", _parse_float, 0.02),
            t_max=take("numerics.t_max", _parse_float, 400.0),
            method=method,
            leak_tolerance=take("numerics.leak_tolerance", _parse_float, 1e-4),
            max_grid_bytes=take("numerics.max_grid_bytes", _parse_int, 2 * 1024**3),
        )
        numerics = NumericsConfig(
            evolution=evolution,
            N_c=take("numerics.N_c", _parse_int, 1),
            N_m=take("numerics.N_m", _parse_int, 8),
            excitation_cap=cap,
        )
        filt = FilterParams(
            Gamma=take("filter.Gamma", _parse_float, 0.01),
            delta_min=take("filter.delta_min", _parse_float, -8.0),
            delta_max=take("filter.delta_max", _parse_float, 8.0),
            n_points=take("filter.n_points", _parse_int, 321),
        )
        output = OutputConfig(
            csv=pairs.pop("output.csv", None),
            svg=pairs.pop("output.svg", None),
            correlation_dump=pairs.pop("output.correlation_dump", None),
            load_correlation=pairs.pop("output.load_correlation", None),
            peak_min_fraction=take("output.peak_min_fraction", _parse_float, DEFAULT_PEAK_FRACTION),
        )
    except ConfigurationError as exc:
        msg = str(exc)
        raise ConfigurationError(
            msg if msg.startswith("config error") else f"config error: {msg}"
        ) from None

    sweep = None
    if "sweep.parameter" in pairs or "sweep.values" in pairs:
        if "sweep.parameter" not in pairs or "sweep.values" not in pairs:
            raise ConfigurationError(
                "config error at sweep.*: both sweep.parameter and sweep.values are required"
            )
        raw_values = pairs.pop("sweep.values")
        values = tuple(
            _parse_float("sweep.values", v.strip()) for v in raw_values.split(",") if v.strip()
        )
        sweep = SweepConfig(parameter=pairs.pop("sweep.parameter"), values=values)

    threads = take("threads", _parse_int, 1)
    if threads < 1:
        raise ConfigurationError(f"config error at threads: must be >= 1, got {threads}")

    return RunConfig(
        model=model,
        numerics=numerics,
        filter=filt,
        output=output,
        sweep=sweep,
        excited_atom=excited_atom,
        dressed_m_max=take("dressed.m_max", _parse_int, 6),
        threads=threads,
    )


def apply_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """Config with the swept model parameter replaced by one sweep value."""
    if config.sweep is None:
        raise ConfigurationError("no sweep section in the config")
    model = replace(config.model, **{config.sweep.parameter: value})
    return replace(config, model=model)


def echo_lines(config: RunConfig, extra: dict | None = None) -> list[str]:
    """Deterministic 'key = value' lines for output footers.

    Every model/numerics/filter parameter is echoed, so a run can be
    reproduced from its own output file.
    """
    ev = config.numerics.evolution
    items = {f"model.{f.name}": getattr(config.model, f.name) for f in fields(ModelParams)}
    items.update({
        "model.excited_atom": config.excited_atom,
        "numerics.dt": ev.dt,
        "numerics.t_max": ev.t_max,
        "numerics.method": ev.method,
        "numerics.leak_tolerance": ev.leak_tolerance,
        "numerics.N_c": config.numerics.N_c,
        "numerics.N_m": config.numerics.N_m,
        "numerics.excitation_cap": config.numerics.excitation_cap,
        "filter.Gamma": config.filter.Gamma,
        "filter.delta_min": config.filter.delta_min,
        "filter.delta_max": config.filter.delta_max,
        "filter.n_points": config.filter.n_points,
        "schema": SCHEMA_VERSION,
    })
    if extra:
        items.update(extra)
    return [f"{k} = {items[k]}" for k in sorted(items)]
