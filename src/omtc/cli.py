"""Command-line entry point.

Subcommands: spectrum (one full run), sweep (one run per value of a model
parameter plus a separation summary), dressed (closed-form stick lines),
correlation (simulate and dump the two-time grid, no sweep).  Exit codes:
0 on success, 2 for configuration errors and files that cannot be read or
written, 3 for numerical failures.

A spectrum or correlation run checks that the directory of each of its
outputs exists before it starts, and writes them under temporary names
that are renamed once all are written, so a run that fails leaves none.

Determinism contract: identical configs produce byte-identical output
files; timing goes to stderr only.  --threads is still accepted and
checked (>= 1) but no longer changes anything: every run is serial.
"""

import argparse
import contextlib
import errno
import os
import sys
import time

from . import dressed
from .config import RunConfig, apply_sweep_value, echo_lines, parse_config
from .dynamics import CorrelationGrid
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


def _load_config(args) -> RunConfig:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
    given = vars(args)
    return parse_config(text, {key: given[key] for _, key, _ in _FLAGS if given[key] is not None})


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
    """FileNotFoundError (exit 2) for an output path whose directory does not exist, before any run."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_all(outputs) -> None:
    """Call write(temporary path) for each (path, write) of outputs, then rename each to its path.

    The temporary file lies in its output's directory, so the rename does
    not copy.  If a write fails, every temporary file is removed: a run that
    reports failure leaves no output behind.
    """
    temporary = []
    try:
        for path, write in outputs:
            temporary.append(f"{path}.{os.getpid()}.tmp")
            write(temporary[-1])
        for (path, _), temp in zip(outputs, temporary):
            os.replace(temp, path)
    finally:
        for temp in temporary:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    if cfg.output.csv is None:
        raise ConfigurationError("no CSV output path; set output.csv or pass --output")
    _check_directories(cfg.output.csv, cfg.output.correlation_dump, cfg.output.svg)
    result = _run_one(cfg)
    outputs = [(cfg.output.csv, lambda path: write_spectrum_csv(path, result, _footer(cfg, result)))]
    if cfg.output.correlation_dump:
        outputs.append((cfg.output.correlation_dump, result.grid.save))
    if cfg.output.svg:
        outputs.append((cfg.output.svg, lambda path: emit_plot([("spectrum", result.deltas, result.intensity)], path)))
    _write_all(outputs)
    print(
        f"spectrum: {len(result.deltas)} points, horizon T={result.horizon:.2f}, "
        f"{_report(result.metadata)} -> {cfg.output.csv}",
        file=sys.stderr,
    )
    return 0


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


def _split_path(path: str) -> tuple[str, str]:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path, "csv"
    return stem, ext


def _suffix_path(path: str, parameter: str, value: float) -> str:
    stem, ext = _split_path(path)
    return f"{stem}_{parameter}_{value:g}.{ext}"


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.sweep is None:
        raise ConfigurationError("sweep requires sweep.parameter and sweep.values in the config")
    if cfg.output.csv is None:
        raise ConfigurationError("no CSV output path; set output.csv or pass --output")
    _check_directories(cfg.output.csv, cfg.output.svg)
    paths = {}  # output path: sweep value, checked before the first run
    for value in cfg.sweep.values:
        path = _suffix_path(cfg.output.csv, cfg.sweep.parameter, value)
        if path in paths:
            raise ConfigurationError(f"sweep.values {paths[path]!r} and {value!r} both write {path}")
        paths[path] = value
    series = []
    summary = []
    for path, value in paths.items():
        run_cfg = apply_sweep_value(cfg, value)
        result = _run_one(run_cfg)
        write_spectrum_csv(path, result, _footer(run_cfg, result))
        label = f"{cfg.sweep.parameter}={value:g}"
        series.append((label, result.deltas, result.intensity))
        summary.append((value, dominant_separation(result.peaks)))
        print(
            f"sweep {label}: separation {summary[-1][1]:.4f}, "
            f"wall {result.metadata['wall_clock_s']:.2f}s -> {path}",
            file=sys.stderr,
        )
    stem, ext = _split_path(cfg.output.csv)
    write_summary_csv(f"{stem}_summary.{ext}", cfg.sweep.parameter, summary, echo_lines(cfg))
    if cfg.output.svg:
        emit_plot(series, cfg.output.svg)
    return 0


def _cmd_dressed(args) -> int:
    cfg = _load_config(args)
    if cfg.output.csv is None:
        raise ConfigurationError("no CSV output path; set output.csv or pass --output")
    sticks = dressed.predicted_lines(cfg.model, cfg.dressed_m_max)
    write_sticks_csv(cfg.output.csv, sticks, echo_lines(cfg, {"dressed.m_max": cfg.dressed_m_max}))
    return 0


def _cmd_correlation(args) -> int:
    cfg = _load_config(args)
    if not cfg.output.correlation_dump:
        raise ConfigurationError(
            "correlation requires a dump path; set output.correlation_dump "
            "or pass --dump-correlation"
        )
    _check_directories(cfg.output.correlation_dump)
    loaded = _loaded(cfg)
    t0 = time.perf_counter()
    grid, metadata = correlation_grid(cfg.model, cfg.numerics, cfg.excited_atom, loaded)
    metadata["wall_clock_s"] = time.perf_counter() - t0
    _write_all([(cfg.output.correlation_dump, grid.save)])
    print(f"correlation: {_report(metadata)} -> {cfg.output.correlation_dump}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omtc",
        description="Single-photon emission spectra of two dipole-dipole "
        "coupled atoms in an optomechanical cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("spectrum", _cmd_spectrum),
        ("sweep", _cmd_sweep),
        ("dressed", _cmd_dressed),
        ("correlation", _cmd_correlation),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat dotted-key config file")
        for flag, key, text in _FLAGS:
            p.add_argument(flag, dest=key, default=None, help=text)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path in a missing directory, a missing dump
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
