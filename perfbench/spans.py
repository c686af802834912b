"""Spans recorded around the calls from one omtc module into another.

The wrappers are installed from the benchmark, on the module that binds
each callee (``omtc.cli`` binds ``stationary_spectrum``, ``omtc.spectrum``
binds ``two_time_correlation`` and so on), so the program itself is not
edited.  Spans stay in memory and are written out when the worker ends.
"""

import functools
import os
import resource
import time


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _grid_counts(grid):
    return {"n_t": grid.n_t, "grid_bytes": grid.memory_bytes}


class Tracer:
    """Span list with a parent stack; ``op`` tags spans with an operation id."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []

    def wrap(self, name, fn, counts=None):
        """fn, recording a span per call; counts(result, *args) adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "rss0_kib": _maxrss_kib(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss1_kib"] = _maxrss_kib()
                self._stack.pop()
            if counts is not None:
                span.update(counts(out, *args, **kwargs))
            # bookkeeping outside [start, end]: what the wrapper adds
            span["wrapper_s"] = (span["start"] - entered) + (time.perf_counter() - span["end"])
            return out

        return traced

    def patch(self, owner, attr, name, counts=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def install(self):
        """Wrap every layer boundary that a spectrum operation crosses."""
        from omtc import cli, dynamics
        from omtc import spectrum as spectrum_mod

        self.patch(cli, "parse_config", "config.parse_config")
        self.patch(cli, "stationary_spectrum", "spectrum.stationary_spectrum")
        self.patch(
            cli, "write_spectrum_csv", "output.write_spectrum_csv",
            lambda out, path, *a, **k: {"bytes": os.path.getsize(path)},
        )
        self.patch(
            spectrum_mod, "build_space", "hilbert.build_space",
            lambda space, *a, **k: {"dim": space.dim},
        )
        for fn in ("ladder_operators", "optical_excitation_operator"):
            self.patch(spectrum_mod, fn, f"hilbert.{fn}")
        for fn in ("build_hamiltonian", "build_dissipators", "initial_state"):
            self.patch(spectrum_mod, fn, f"model.{fn}")
        self.patch(
            spectrum_mod, "two_time_correlation", "dynamics.two_time_correlation",
            lambda grid, *a, **k: _grid_counts(grid),
        )
        self.patch(spectrum_mod, "filtered_spectrum", "spectrum.filtered_spectrum")
        self.patch(
            spectrum_mod, "find_peaks", "spectrum.find_peaks",
            lambda peaks, *a, **k: {"n_peaks": len(peaks)},
        )
        self.patch(dynamics.Generator, "__init__", "dynamics.Generator.__init__")
        self.patch(
            dynamics.CorrelationGrid, "save", "dynamics.CorrelationGrid.save",
            lambda out, grid, path: {"bytes": os.path.getsize(path)},
        )
        self.patch(
            dynamics.CorrelationGrid, "load", "dynamics.CorrelationGrid.load",
            lambda grid, *a, **k: _grid_counts(grid),
        )


_CORRELATION = ("dynamics.two_time_correlation", "dynamics.CorrelationGrid.load")
_HILBERT = (
    "hilbert.build_space", "hilbert.ladder_operators", "hilbert.optical_excitation_operator",
)
_MODEL = ("model.build_hamiltonian", "model.build_dissipators", "model.initial_state")

#: per-layer metric: (unit, spans it reads, what it takes from them).
#: "time" sums span durations, "self" sums self times, "rss" sums the rise
#: of the resident high-water mark, any other word is a span field.
LAYER_METRICS = {
    "dynamics.correlation_s": ("s", ("dynamics.two_time_correlation",), "time"),
    "dynamics.correlation_rss_mib": ("MiB", ("dynamics.two_time_correlation",), "rss"),
    "dynamics.grid_bytes": ("B", _CORRELATION, "grid_bytes"),
    "dynamics.n_t": ("count", _CORRELATION, "n_t"),
    "dynamics.generator_s": ("s", ("dynamics.Generator.__init__",), "time"),
    "dynamics.grid_load_s": ("s", ("dynamics.CorrelationGrid.load",), "time"),
    "dynamics.grid_save_s": ("s", ("dynamics.CorrelationGrid.save",), "time"),
    "dynamics.dump_bytes": ("B", ("dynamics.CorrelationGrid.save",), "bytes"),
    "spectrum.sweep_s": ("s", ("spectrum.filtered_spectrum",), "time"),
    "spectrum.peaks_s": ("s", ("spectrum.find_peaks",), "time"),
    "spectrum.self_s": ("s", ("spectrum.stationary_spectrum",), "self"),
    "spectrum.n_peaks": ("count", ("spectrum.find_peaks",), "n_peaks"),
    "hilbert.build_s": ("s", _HILBERT, "time"),
    "hilbert.dim": ("count", ("hilbert.build_space",), "dim"),
    "model.build_s": ("s", _MODEL, "time"),
    "output.csv_s": ("s", ("output.write_spectrum_csv",), "time"),
    "output.csv_bytes": ("B", ("output.write_spectrum_csv",), "bytes"),
    "config.parse_s": ("s", ("config.parse_config",), "time"),
    "cli.self_s": ("s", ("cli.main",), "self"),
}

#: metrics read from the set-up phase; all others from the operations
SETUP_METRICS = ("dynamics.grid_save_s", "dynamics.dump_bytes")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _group_value(group, how) -> float:
    if how == "time":
        return sum(s["end"] - s["start"] for s, _ in group)
    if how == "self":
        return sum(t for _, t in group)
    if how == "rss":
        return sum(s["rss1_kib"] - s["rss0_kib"] for s, _ in group) / 1024.0
    return max(s[how] for s, _ in group)


def layer_values(spans) -> dict:
    """{op id: {metric: value}} for every metric whose spans ran in that op."""
    selfs = self_times(spans)
    out = {}
    for metric, (_, names, how) in LAYER_METRICS.items():
        by_op = {}
        for s, t in zip(spans, selfs):
            if s["name"] in names:
                by_op.setdefault(s["op"], []).append((s, t))
        for op, group in by_op.items():
            out.setdefault(op, {})[metric] = _group_value(group, how)
    return out


def wrapper_times(spans) -> dict:
    """{op id: seconds the wrappers spent outside the calls they time}.

    This is the tracing cost inside an operation; a span whose call raised
    has no wrapper time and adds none.
    """
    out = {}
    for s in spans:
        out[s["op"]] = out.get(s["op"], 0.0) + s.get("wrapper_s", 0.0)
    return out


def module_self_times(spans) -> dict:
    """{op id: {module: self seconds}}; modules are the span-name prefixes."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        module = s["name"].split(".", 1)[0]
        per_op = out.setdefault(s["op"], {})
        per_op[module] = per_op.get(module, 0.0) + t
    return out
