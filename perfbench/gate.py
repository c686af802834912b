"""Correctness gate applied to the spectrum CSV of every operation.

An operation passes only if its CSV is complete and finite with
non-negative intensities, its two tallest peaks are separated by the
closed-form Rabi splitting to within 0.2 (criterion 01), its five tallest
peaks each lie within 0.15 of a dressed-state stick line (criterion 04),
and both data columns equal the output recorded at the seed commit to
roundoff.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

from omtc import dressed, spectrum
from omtc.model import ModelParams

SEPARATION_TOL = 0.2
LINE_TOL = 0.15
ORACLE_M_MAX = 8
#: the CSV carries 12 significant digits; anything beyond 1e-9 of the
#: column maximum is a change of result, not of summation order
REFERENCE_RTOL = 1e-9

HEADER = "# delta,intensity,integrated_counts"
FOOTER = "# --- run metadata ---"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class GateError(Exception):
    """The output of an operation failed a check."""


def read_spectrum_csv(path) -> tuple[np.ndarray, dict]:
    """Data rows (delta, intensity, integrated_counts) and footer items."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        raise GateError("CSV header missing")
    if FOOTER not in lines:
        raise GateError("CSV metadata footer missing (truncated file)")
    cut = lines.index(FOOTER)
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:cut]])
    except ValueError as exc:
        raise GateError(f"malformed CSV row: {exc}") from None
    footer = {}
    for ln in lines[cut + 1 :]:
        key, _, value = ln.lstrip("# ").partition(" = ")
        footer[key] = value
    return rows, footer


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.npz"
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def check(path, params: ModelParams, n_points: int) -> tuple[np.ndarray, dict]:
    """Structure and oracle checks on one CSV; returns its rows and footer."""
    rows, footer = read_spectrum_csv(path)
    if rows.shape != (n_points, 3):
        raise GateError(f"expected {n_points} rows of 3 columns, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise GateError("non-finite value in CSV")
    deltas, intensity = rows[:, 0], rows[:, 1]
    if np.any(intensity < 0):
        raise GateError(f"negative intensity {intensity.min():.3e}")

    peaks = spectrum.find_peaks(
        SimpleNamespace(deltas=deltas, intensity=intensity), spectrum.DEFAULT_PEAK_FRACTION
    )
    separation = spectrum.dominant_separation(peaks)
    rabi = dressed.rabi_separation(params)
    if abs(separation - rabi) > SEPARATION_TOL:
        raise GateError(f"dominant separation {separation:.4f} vs Rabi {rabi:.4f}")
    lines = dressed.predicted_lines(params, ORACLE_M_MAX).positions()
    for p in sorted(peaks, key=lambda p: p.height, reverse=True)[:5]:
        miss = float(np.min(np.abs(lines - p.position)))
        if miss > LINE_TOL:
            raise GateError(f"peak at {p.position:.4f} misses the stick lines by {miss:.4f}")
    return rows, footer


def compare(rows: np.ndarray, reference) -> None:
    """Both data columns equal the recorded output to roundoff."""
    if reference is None:
        raise GateError("no reference output recorded for these inputs")
    if reference.shape != rows.shape or not np.array_equal(reference[:, 0], rows[:, 0]):
        raise GateError("detuning grid differs from the reference output")
    for col, name in ((1, "intensity"), (2, "integrated_counts")):
        ref = reference[:, col]
        worst = float(np.max(np.abs(rows[:, col] - ref)))
        if worst > REFERENCE_RTOL * float(np.max(np.abs(ref))):
            raise GateError(f"{name} differs from the reference output by {worst:.3e}")
