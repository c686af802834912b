"""Which scipy modules and numpy.ma a spectrum run loads, each run in a fresh interpreter.

scipy.sparse and scipy.linalg serve only the stepped passes (the sector
blocks, and expm of them); both are imported on first use, so importing the
package and running a spectrum on jump-free sectors, rk4 or expm, loads no
scipy module at all, nor does a dark start, whose empty operand sector the
D and spectral forms take.  The package itself never loads numpy.ma (np.unique would, through
np.ma.is_masked); scipy does, so only the stepped runs have it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL = "numerics.N_m = 2\nnumerics.t_max = 10\nfilter.n_points = 41\n"

_PROBE = """
import json, sys
from omtc import cli
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m == "numpy.ma")
imported = loaded()
rc = cli.main(["spectrum", "--config", sys.argv[1], "--output", sys.argv[2]])
ran = loaded()
print(json.dumps({"rc": rc, "imported": imported, "ran": ran}))
"""


def _run(tmp_path, config: str):
    """(the scipy modules and numpy.ma after import and after the run, the propagator of the run)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cfg), str(tmp_path / "out.csv")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0, proc.stderr
    propagator = proc.stderr.split("propagator ")[1].split(",")[0]
    return set(out["imported"]), set(out["ran"]), propagator


@pytest.mark.parametrize(
    "extra, propagator, loaded, not_loaded",
    [
        ("", "spectral/spectral", set(), {"scipy", "numpy.ma"}),
        # the D form steps W in the eigenbasis of A, with no expm
        ("numerics.method = expm\n", "factored/separable", set(), {"scipy", "numpy.ma"}),
        # mechanical losses put jumps inside both sectors, so both passes
        # step; importing scipy.sparse loads numpy.ma
        ("model.gamma_M = 0.05\n", "rk4/rk4", {"numpy.ma"}, {"scipy.linalg"}),
        ("model.gamma_M = 0.05\nnumerics.method = expm\n", "dense/dense",
         {"scipy.sparse", "scipy.linalg", "numpy.ma"}, set()),
        # a dark start has an empty operand sector, which the kernels take
        ("model.excited_atom = antisymmetric\n", "spectral/spectral", set(), {"scipy", "numpy.ma"}),
        ("model.excited_atom = antisymmetric\nnumerics.method = expm\n", "factored/separable", set(),
         {"scipy", "numpy.ma"}),
    ],
)
def test_scipy_modules_loaded_by_a_spectrum_run(tmp_path, extra, propagator, loaded, not_loaded):
    imported, ran, used = _run(tmp_path, SMALL + extra)
    assert used == propagator
    assert not imported & {"scipy", "numpy.ma"}
    assert loaded <= ran
    assert not ran & not_loaded


_VACUUM_PROBE = """
import json, sys
import numpy as np
from omtc.config import parse_config
from omtc.dynamics import Generator, two_time_correlation
from omtc.hilbert import build_space, ladder_operators, optical_excitation_operator
from omtc.model import build_dissipators, build_hamiltonian
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = parse_config(fh.read(), {})
num = cfg.numerics
space = build_space(num.N_c, num.N_m, num.excitation_cap)
gen = Generator(build_hamiltonian(cfg.model, space), build_dissipators(cfg.model, space))
vac = np.zeros((space.dim, space.dim), dtype=complex)
vac[0, 0] = 1.0
grid = two_time_correlation(vac, gen, num.evolution, ladder_operators(space)["a"],
                            monitor=optical_excitation_operator(space), kappa=cfg.model.kappa)
G, A = grid.lag_sums(cfg.filter.Gamma, grid.n_t - 1)
print(json.dumps({"propagator": grid.run["propagator"], "columns": grid.run["columns"],
                  "zero": not (grid.D.any() or G.any() or A.any()),
                  "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_photonless_vacuum_with_expm_loads_no_scipy(tmp_path):
    # the photonless vacuum's rho0[P, P] is exactly zero (P is empty): the
    # D form takes it with no columns, as the spectral form does with rk4,
    # and its grid is exactly zero without the stepped dense/dense pass
    from test_config_cli import FAST

    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST)
    proc = subprocess.run(
        [sys.executable, "-c", _VACUUM_PROBE, str(cfg)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"propagator": "factored/separable", "columns": [0, 0], "zero": True, "scipy": []}
