"""The helpers in tools/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from omtc.config import FilterParams, NumericsConfig
from omtc.dynamics import EvolutionConfig
from omtc.model import ModelParams
from omtc.spectrum import stationary_spectrum

ROOT = Path(__file__).resolve().parent.parent


def test_north_star_point_keeps_each_run_record():
    # the North-star point alone, cold in a fresh interpreter, as the
    # tool's main() runs each point
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "north_star.py"), "--point", "Mbar=0"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    point = json.loads(proc.stdout.splitlines()[-1])
    small = stationary_spectrum(
        ModelParams(), FilterParams(n_points=3),
        NumericsConfig(evolution=EvolutionConfig(dt=0.02, t_max=0.1, method="expm"), N_m=0),
    )
    assert len(point["runs"]) == len(point["wall_s"]) == 3
    for run in point["runs"]:
        assert set(run) == set(small.metadata)
        assert run["n_t"] == 8519 and run["propagator"] == "factored/separable"
