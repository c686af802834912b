"""Deterministic CSV and SVG emission.

Numeric columns are written with 12 significant digits and every file
carries a metadata footer (comment block) with the full parameter echo,
so identical configurations produce byte-identical files.  The SVG writer
is self-contained: polylines, linear axes and a text legend, no external
assets.
"""

import numpy as np

from .errors import ConfigurationError


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _write_csv(path, header: str, rows, footer_lines) -> None:
    """One '# header' line, the rows, then the metadata footer as comment lines."""
    lines = [f"# {header}", *rows, "# --- run metadata ---", *(f"# {line}" for line in footer_lines)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_spectrum_csv(path, result, footer_lines) -> None:
    # %-formatting of Python floats is byte-identical to _fmt and faster
    # than three f-strings on numpy scalars
    columns = (result.deltas, result.intensity, result.integrated_counts)
    rows = ("%.11e,%.11e,%.11e" % row for row in zip(*(c.tolist() for c in columns)))
    _write_csv(path, "delta,intensity,integrated_counts", rows, footer_lines)


def write_sticks_csv(path, sticks, footer_lines) -> None:
    rows = (f"{ln.branch:+d},{ln.m},{_fmt(ln.position)},{_fmt(ln.weight)}" for ln in sticks.lines)
    _write_csv(path, "branch,m,position,weight", rows, footer_lines)


def write_summary_csv(path, parameter, rows, footer_lines) -> None:
    lines = (f"{_fmt(value)},{_fmt(sep)}" for value, sep in rows)
    _write_csv(path, f"{parameter},peak_separation", lines, footer_lines)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("none", "6,3", "2,2", "8,3,2,3", "4,4", "1,3")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = np.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else float(t))
        t += step
    return out


def emit_plot(series, path) -> None:
    """Static SVG line plot.

    series: list of (label, x array, y array); at least two points each.
    """
    if not series:
        raise ConfigurationError("nothing to plot: no series given")
    for label, x, y in series:
        if len(x) < 2 or len(x) != len(y):
            raise ConfigurationError(
                f"series {label!r} needs at least 2 points with matching x/y"
            )
    x_lo = min(float(np.min(x)) for _, x, _ in series)
    x_hi = max(float(np.max(x)) for _, x, _ in series)
    y_lo = min(0.0, min(float(np.min(y)) for _, _, y in series))
    y_hi = max(float(np.max(y)) for _, _, y in series)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return _MT + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" y2="{_MT + ph + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + ph + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">Δ/ω_M</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_MT + ph / 2:.1f})">'
        "intensity</text>"
    )
    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = _DASHES[i % len(_DASHES)]
        pts = " ".join(f"{sx(u):.2f},{sy(v):.2f}" for u, v in zip(x, y))
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_ML + pw - 114}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
