"""Command-line entry point.

Subcommands: spectrum (one full run), sweep (one run per value of a model
parameter plus a separation summary), dressed (closed-form stick lines),
correlation (simulate and dump the two-time grid).  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical failures.

Determinism contract: identical configs (including --threads) produce
byte-identical output files; timing goes to stderr only.
"""

import argparse
import sys
import time
from dataclasses import replace

from . import dressed
from .config import RunConfig, apply_sweep_value, echo_lines, parse_config
from .dynamics import CorrelationGrid
from .errors import ConfigurationError, NumericalError
from .output import emit_plot, write_spectrum_csv, write_sticks_csv, write_summary_csv
from .spectrum import dominant_separation, stationary_spectrum


def _load_config(args) -> RunConfig:
    if args.config is None:
        cfg = parse_config("")
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from None
        cfg = parse_config(text)
    out = cfg.output
    if args.output is not None:
        out = replace(out, csv=args.output)
    if args.svg is not None:
        out = replace(out, svg=args.svg)
    if getattr(args, "dump_correlation", None) is not None:
        out = replace(out, correlation_dump=args.dump_correlation)
    if getattr(args, "load_correlation", None) is not None:
        out = replace(out, load_correlation=args.load_correlation)
    cfg = replace(cfg, output=out)
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigurationError("--threads must be >= 1")
        cfg = replace(cfg, threads=args.threads)
    return cfg


def _run_one(cfg: RunConfig):
    grid = None
    if cfg.output.load_correlation:
        grid = CorrelationGrid.load(cfg.output.load_correlation)
    return stationary_spectrum(
        cfg.model,
        cfg.filter,
        cfg.numerics,
        initial=cfg.excited_atom,
        threads=cfg.threads,
        peak_fraction=cfg.output.peak_min_fraction,
        grid=grid,
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


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    if cfg.output.csv is None:
        raise ConfigurationError("no CSV output path; set output.csv or pass --output")
    result = _run_one(cfg)
    write_spectrum_csv(cfg.output.csv, result, _footer(cfg, result))
    if cfg.output.correlation_dump:
        result.grid.save(cfg.output.correlation_dump)
    if cfg.output.svg:
        emit_plot([("spectrum", result.deltas, result.intensity)], cfg.output.svg)
    meta = result.metadata
    print(
        f"spectrum: {len(result.deltas)} points, horizon T={result.horizon:.2f}, "
        f"sectors {meta['forward_sector']}/{meta['adjoint_sector']}, "
        f"wall {meta['wall_clock_s']:.2f}s -> {cfg.output.csv}",
        file=sys.stderr,
    )
    return 0


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
    series = []
    summary = []
    for value in cfg.sweep.values:
        run_cfg = apply_sweep_value(cfg, value)
        result = _run_one(run_cfg)
        path = _suffix_path(cfg.output.csv, cfg.sweep.parameter, value)
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
    t0 = time.perf_counter()
    result = _run_one(cfg)
    result.grid.save(cfg.output.correlation_dump)
    print(
        f"correlation: n_t={result.metadata['n_t']}, "
        f"{result.metadata['grid_memory_bytes']/2**20:.1f} MiB, "
        f"wall {time.perf_counter() - t0:.2f}s -> {cfg.output.correlation_dump}",
        file=sys.stderr,
    )
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
        p.add_argument("--output", default=None, help="CSV output path")
        p.add_argument("--svg", default=None, help="SVG plot path")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--dump-correlation", default=None, help="binary grid dump path")
        p.add_argument("--load-correlation", default=None, help="reuse a dumped grid")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
