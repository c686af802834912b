"""Command-line entry point: ``omtc COMMAND [options]``.

Commands: spectrum (one full run), sweep (one run per value of a model
parameter plus a separation summary), dressed (closed-form stick lines),
correlation (simulate and dump the two-time grid, no sweep).  COMMANDS is
the one table of them; every command takes the same options, which set
config keys (_FLAGS), and gets the parsed config.  An output path key
that a command does not use (COMMANDS) is refused before anything runs.
Exit codes: 0 on success, 2 for configuration errors and files that cannot
be read or written (the config file included, and one that is not UTF-8),
3 for numerical failures.

Every command's outputs are one transaction: a command hands each to
put(path, write), which writes it at once under a temporary name beside
path; when the command returns, every output is renamed into place, and if
it raises, every temporary file is removed, so a command that fails leaves
no output.  Commands that run a model check that the directory of each
output exists, and sweep builds and checks every value's config, before
the first run.

Determinism contract: identical configs produce byte-identical output
files; timing goes to stderr only.  --threads is still accepted and
checked (>= 1) but no longer changes anything: every run is serial.
"""

import argparse
import contextlib
import errno
import functools
import os
import sys
import time

from . import dressed
from .config import RunConfig, apply_sweep_value, echo_lines, parse_config
from .dynamics import CorrelationGrid, check_step_size
from .errors import ConfigurationError, NumericalError
from .output import emit_plot, write_spectrum_csv, write_sticks_csv, write_summary_csv
from .spectrum import correlation_grid, dominant_separation, stationary_spectrum


#: (flag, the config key it sets, help); a flag replaces the key's value in the file
_FLAGS = (
    ("--output", "output.csv", "CSV output path"),
    ("--svg", "output.svg", "SVG plot path"),
    ("--threads", "threads", "accepted; has no effect"),
    ("--dump-correlation", "output.correlation_dump", "binary grid dump path"),
    ("--load-correlation", "output.load_correlation", "reuse a dumped grid"),
)


def _csv(cfg: RunConfig) -> str:
    """output.csv, which spectrum, sweep and dressed write."""
    if cfg.output.csv is None:
        raise ConfigurationError("no CSV output path; set output.csv or pass --output")
    return cfg.output.csv


def _loaded(cfg: RunConfig):
    """The grid dumped at output.load_correlation, or None."""
    return CorrelationGrid.load(cfg.output.load_correlation) if cfg.output.load_correlation else None


def _run_one(cfg: RunConfig):
    return stationary_spectrum(
        cfg.model,
        cfg.filter,
        cfg.numerics,
        initial=cfg.excited_atom,
        peak_fraction=cfg.output.peak_min_fraction,
        grid=_loaded(cfg),
    )


def _footer(cfg: RunConfig, result) -> list[str]:
    extra = {
        "grid.n_t": result.metadata["n_t"],
        "grid.memory_bytes": result.metadata["grid_memory_bytes"],
        "space.dim": result.metadata["dim"],
        "horizon.T": result.horizon,
        "horizon.residual_excitation": result.residual_excitation,
    }
    return echo_lines(cfg, extra)


def _check_directories(*paths) -> None:
    """FileNotFoundError (exit 2) for an output path whose directory does not exist."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _render(value) -> str:
    """A metadata value for stderr: a float to 4 digits, a pair as a/b, a dict as name=value ..."""
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "/".join(map(_render, value))
    if isinstance(value, dict):
        return " ".join(f"{name}={_render(v)}" for name, v in value.items())
    return str(value)


def _report(metadata: dict) -> str:
    """Every metadata entry as 'key value', comma separated, for the stderr lines."""
    return ", ".join(f"{key} {_render(value)}" for key, value in metadata.items())


def _spectrum(cfg: RunConfig, put) -> str:
    out = cfg.output
    _check_directories(_csv(cfg), out.correlation_dump, out.svg)
    result = _run_one(cfg)
    put(out.csv, lambda path: write_spectrum_csv(path, result, _footer(cfg, result)))
    if out.correlation_dump:
        put(out.correlation_dump, result.grid.save)
    if out.svg:
        put(out.svg, lambda path: emit_plot([("spectrum", result.deltas, result.intensity)], path))
    return (
        f"spectrum: {len(result.deltas)} points, horizon T={result.horizon:.2f}, "
        f"{_report(result.metadata)} -> {out.csv}"
    )


def _suffixed(path: str, suffix: str) -> str:
    """path with _suffix before its extension (.csv if it has none)."""
    stem, dot, ext = path.rpartition(".")
    return f"{stem}_{suffix}.{ext}" if dot else f"{path}_{suffix}.csv"


def _sweep(cfg: RunConfig, put) -> None:
    if cfg.sweep is None:
        raise ConfigurationError("sweep requires sweep.parameter and sweep.values in the config")
    _check_directories(_csv(cfg), cfg.output.svg)
    parameter = cfg.sweep.parameter
    runs = {}  # output path: (sweep value, its config), all checked before the first run
    for value in cfg.sweep.values:
        path = _suffixed(cfg.output.csv, f"{parameter}_{value:g}")
        if path in runs:
            raise ConfigurationError(f"sweep.values {runs[path][0]!r} and {value!r} both write {path}")
        run = apply_sweep_value(cfg, value)
        check_step_size(run.numerics.evolution.dt, run.model)
        runs[path] = value, run
    series = []
    summary = []
    for path, (value, run) in runs.items():
        result = _run_one(run)
        put(path, lambda temp: write_spectrum_csv(temp, result, _footer(run, result)))
        label = f"{parameter}={value:g}"
        series.append((label, result.deltas, result.intensity))
        summary.append((value, dominant_separation(result.peaks)))
        print(
            f"sweep {label}: separation {summary[-1][1]:.4f}, "
            f"wall {result.metadata['wall_clock_s']:.2f}s -> {path}",
            file=sys.stderr,
        )
    put(_suffixed(cfg.output.csv, "summary"),
        lambda path: write_summary_csv(path, parameter, summary, echo_lines(cfg)))
    if cfg.output.svg:
        put(cfg.output.svg, lambda path: emit_plot(series, path))


def _dressed(cfg: RunConfig, put) -> None:
    csv = _csv(cfg)
    sticks = dressed.predicted_lines(cfg.model, cfg.dressed_m_max)
    footer = echo_lines(cfg, {"dressed.m_max": cfg.dressed_m_max})
    put(csv, lambda path: write_sticks_csv(path, sticks, footer))


def _correlation(cfg: RunConfig, put) -> str:
    dump = cfg.output.correlation_dump
    if not dump:
        raise ConfigurationError(
            "correlation requires a dump path; set output.correlation_dump "
            "or pass --dump-correlation"
        )
    _check_directories(dump)
    loaded = _loaded(cfg)
    t0 = time.perf_counter()
    grid, metadata = correlation_grid(cfg.model, cfg.numerics, cfg.excited_atom, loaded)
    metadata["wall_clock_s"] = time.perf_counter() - t0
    put(dump, grid.save)
    return f"correlation: {_report(metadata)} -> {dump}"


#: command: (its function of (config, put), the output path keys it uses);
#: the function returns the stderr line that reports its outputs once they
#: are in place, or None.  Of the path keys, a command refuses those it does
#: not use: dressed writes no plot or grid, correlation no CSV or plot, and
#: a sweep dumps no grid, as every value runs its own
COMMANDS = {
    "spectrum": (_spectrum, ("output.csv", "output.svg", "output.correlation_dump", "output.load_correlation")),
    "sweep": (_sweep, ("output.csv", "output.svg")),
    "dressed": (_dressed, ("output.csv",)),
    "correlation": (_correlation, ("output.correlation_dump", "output.load_correlation")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of every call: parse_args keeps nothing between calls."""
    parser = argparse.ArgumentParser(
        prog="omtc",
        description="Single-photon emission spectra of two dipole-dipole "
        "coupled atoms in an optomechanical cavity",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat dotted-key config file")
    for flag, key, text in _FLAGS:
        parser.add_argument(flag, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    temporary = {}  # output path: the temporary file written for it

    def put(path, write):
        """Call write(a temporary path beside path) now; it becomes path when the command returns."""
        _check_directories(path)
        if path in temporary:
            raise ConfigurationError(f"two outputs write {path}")
        temporary[path] = f"{path}.{os.getpid()}.tmp"
        write(temporary[path])

    try:
        text = ""
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{args.config} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        given = vars(args)
        cfg = parse_config(text, {key: given[key] for _, key, _ in _FLAGS if given[key] is not None})
        command, uses = COMMANDS[args.command]
        unused = [key for _, key, _ in _FLAGS if key.startswith("output.") and key not in uses
                  and getattr(cfg.output, key.removeprefix("output."))]
        if unused:
            raise ConfigurationError(f"{args.command} takes no {unused[0]}: it uses only {' and '.join(uses)}")
        report = command(cfg, put)
        for path, temp in temporary.items():
            os.replace(temp, path)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing config or dump, an output path in a missing directory
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        for temp in temporary.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
    if report:
        print(report, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
