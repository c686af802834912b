"""Shared fixtures and the acceptance report hook.

The three strong-strong-coupling reference runs (J = 0, 0.5, 1) feed
several acceptance criteria, so they are computed once per session and
only their derived quantities are kept.
"""

import os
import sys
import warnings

# One BLAS thread: the suite's matvecs are small, and with more threads
# each one pays the pool's spin-waits (seconds per run on a busy 2-core
# machine).  BLAS reads these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before tests/conftest.py, so the BLAS thread "
        "limits set there have no effect",
        stacklevel=1,
    )

from types import SimpleNamespace

import pytest
from hypothesis import settings

from omtc.dynamics import EvolutionConfig
from omtc.model import ModelParams
from omtc.spectrum import (
    FilterParams,
    NumericsConfig,
    filtered_spectrum,
    find_peaks,
    stationary_spectrum,
)

ACCEPTANCE_LOG = []

# same examples on every run, so a failure reproduces on the next one
settings.register_profile("omtc", derandomize=True, deadline=None)
settings.load_profile("omtc")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LOG


def run_point(
    params: ModelParams,
    dt=0.02,
    t_max=400.0,
    N_m=8,
    method="expm",
    n_points=321,
    leak=1e-4,
    initial=1,
    peak_fraction=0.02,
):
    numerics = NumericsConfig(
        evolution=EvolutionConfig(dt=dt, t_max=t_max, method=method, leak_tolerance=leak),
        N_c=1,
        N_m=N_m,
        excitation_cap=1,
    )
    filt = FilterParams(n_points=n_points)
    return stationary_spectrum(
        params, filt, numerics, initial=initial, peak_fraction=peak_fraction
    )


@pytest.fixture(scope="session")
def fig2_runs():
    """Reference runs at the strong-strong coupling point for J = 0, 0.5, 1."""
    out = {}
    for J in (0.0, 0.5, 1.0):
        params = ModelParams(J=J)
        result = run_point(params)
        fine = FilterParams(n_points=1281)
        fine_N, _ = filtered_spectrum(
            result.grid, fine.deltas(), fine.Gamma, result.horizon
        )
        fine_result = SimpleNamespace(deltas=fine.deltas(), intensity=fine_N)
        fine_peaks = find_peaks(fine_result, 0.002)
        result.grid = None  # ~63 MiB of factor stacks each; keep only derived data
        out[J] = SimpleNamespace(
            params=params,
            result=result,
            peaks=result.peaks,
            fine_peaks=fine_peaks,
        )
    return out
