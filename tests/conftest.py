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
from hypothesis import strategies as st

from omtc.dynamics import EvolutionConfig
from omtc.hilbert import build_space
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


@st.composite
def model_points(draw):
    """Small spaces with every dissipation channel switched on, or the mechanical ones off.

    gamma_M = 0 leaves no jump inside the readout and operand sectors, so
    expm correlation runs take the factored stepper there.
    """
    N_m = draw(st.integers(0, 2))
    gamma_a = draw(st.floats(0.02, 0.3))
    params = ModelParams(
        g_a=draw(st.floats(0.2, 2.4)),
        g_M=draw(st.floats(0.1, 1.2)),
        delta_ac=draw(st.floats(-1.0, 1.0)),
        J=draw(st.floats(-1.0, 1.0)),
        kappa=draw(st.floats(0.05, 0.5)),
        gamma_a=gamma_a,
        gamma_a_coop=draw(st.floats(-1.0, 1.0)) * gamma_a,
        gamma_M=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3))),
        # the thermal weight must fit the phonon cutoff
        Mbar=draw(st.floats(1e-4, 1e-3 if N_m == 0 else 0.03)),
    )
    cap = draw(st.sampled_from([1, None]))
    initial = draw(st.sampled_from([1, 2, "symmetric", "antisymmetric"]))
    return params, build_space(1, N_m, cap), initial


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
