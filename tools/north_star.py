"""Time the North-star points in-process and print one JSON object.

    python3 tools/north_star.py

The North-star point is ``configs/reference.cfg`` with
``numerics.method = expm``: N_m = 8, dt = 0.02 and the leak stop at 1e-4
within t_max = 400, so n_t = 8519.  It runs as given (``Mbar = 0``, a pure
start), with ``model.Mbar = 0.5``, a thermal start of rank 9, and with the
file's own ``numerics.method = rk4``, the default; ``dark`` is that rk4
point from ``model.excited_atom = antisymmetric``, the dark state of the
atoms' exchange basis, whose spectrum is exactly zero.  A further point has
mechanical losses: ``configs/mechanical_losses.cfg`` at its first sweep
value ``gamma_M = 0.05`` (``expm``), whose jumps keep both passes on the
stepped dense path (``dense/dense``), and the same point with ``rk4``
(``rk4/rk4``).  Each point runs cold, in a fresh interpreter of its own
with ``PYTHONDONTWRITEBYTECODE=1`` (so ``src/omtc`` compiles from source, as
in ``perfbench/``) and BLAS pinned to one thread: it imports the package
from this checkout's ``src/``, then makes RUNS = 3
``omtc.spectrum.stationary_spectrum`` calls, the first of which pays every
lazy import.  Per point the output holds the import seconds, ``ru_maxrss``
in MiB after the imports and after the last run, the public scipy
submodules loaded by then, the wall seconds of every run and their median,
and the whole ``metadata`` record of every run (``runs``): among others its
stage seconds, ``n_t``, columns, propagator and ``grid_memory_bytes``, the
bytes the grid keeps, to read next to ``ru_maxrss``.  Run one point alone
with ``python3 tools/north_star.py --point NAME``, NAME one of
``Mbar=0``, ``Mbar=0.5``, ``rk4``, ``dark``, ``gamma_M=0.05`` and
``gamma_M=0.05 rk4``.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
#: name: (numerics.method, extra config lines) of the configs/reference.cfg points
POINTS = {"Mbar=0": ("expm", ""), "Mbar=0.5": ("expm", "model.Mbar = 0.5\n"), "rk4": ("rk4", ""),
          "dark": ("rk4", "model.excited_atom = antisymmetric\n")}
#: name: numerics.method of the configs/mechanical_losses.cfg points, at gamma_M = 0.05
MECHANICAL = {"gamma_M=0.05": "expm", "gamma_M=0.05 rk4": "rk4"}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _config(name: str):
    from dataclasses import replace

    from omtc.config import apply_sweep_value, parse_config

    if name in MECHANICAL:
        cfg = parse_config((ROOT / "configs" / "mechanical_losses.cfg").read_text(encoding="utf-8"))
        if cfg.sweep.values[0] != 0.05 or cfg.numerics.evolution.method != "expm":
            raise SystemExit("configs/mechanical_losses.cfg no longer sweeps from gamma_M = 0.05 with expm")
        cfg = apply_sweep_value(cfg, 0.05)
        evolution = replace(cfg.numerics.evolution, method=MECHANICAL[name])
        return replace(cfg, numerics=replace(cfg.numerics, evolution=evolution))
    text = (ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    if "numerics.method = rk4" not in text or "model.Mbar = 0\n" not in text:
        raise SystemExit("configs/reference.cfg no longer sets numerics.method = rk4 and model.Mbar = 0")
    method, extra = POINTS[name]
    text = text.replace("numerics.method = rk4", f"numerics.method = {method}")
    return parse_config(text.replace("model.Mbar = 0\n", "") + extra)


def run_point(name: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from omtc.spectrum import stationary_spectrum

    import_s, import_rss = time.perf_counter() - t0, _maxrss_mib()
    cfg = _config(name)
    walls, runs = [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        result = stationary_spectrum(cfg.model, cfg.filter, cfg.numerics, initial=cfg.excited_atom)
        walls.append(time.perf_counter() - t0)
        runs.append(result.metadata)
        del result  # so that a run's grid does not add to the next one's peak
    return {
        "import_s": import_s,
        "import_rss_mib": import_rss,
        "scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy.") and m.count(".") == 1
                                and not m.split(".")[1].startswith("_")),
        "wall_s": walls,
        "wall_s_median": float(np.median(walls)),
        "runs": runs,
        "peak_rss_mib": _maxrss_mib(),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--point"]:
        print(json.dumps(run_point(argv[1]), sort_keys=True))
        return 0
    points = {}
    for name in (*POINTS, *MECHANICAL):
        out = subprocess.run([sys.executable, __file__, "--point", name], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout
        points[name] = json.loads(out.splitlines()[-1])
    print(json.dumps({
        "point": "configs/reference.cfg with numerics.method = expm, and as given (rk4, also from "
                 "the dark antisymmetric start); "
                 "configs/mechanical_losses.cfg at gamma_M = 0.05 (expm, and rk4)",
        "points": points,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
