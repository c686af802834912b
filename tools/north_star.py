"""Time the North-star point in-process and print one JSON object.

    python3 tools/north_star.py

The North-star point is ``configs/reference.cfg`` with
``numerics.method = expm``: N_m = 8, dt = 0.02 and the leak stop at 1e-4
within t_max = 400, so n_t = 8519.  Each of the RUNS = 3 runs is one
``omtc.spectrum.stationary_spectrum`` call, imported from this checkout's
``src/``, with BLAS pinned to one thread as in ``perfbench/``.  The output
holds the wall seconds of every run and their median, ``ru_maxrss`` of the
process after the last run in MiB (import and all runs included), and
``n_t``.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from omtc.config import parse_config  # noqa: E402
from omtc.spectrum import stationary_spectrum  # noqa: E402

RUNS = 3


def main() -> int:
    text = (ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    if "numerics.method = rk4" not in text:
        raise SystemExit("configs/reference.cfg no longer sets numerics.method = rk4")
    cfg = parse_config(text.replace("numerics.method = rk4", "numerics.method = expm"))
    walls, n_t = [], None
    for _ in range(RUNS):
        t0 = time.perf_counter()
        result = stationary_spectrum(cfg.model, cfg.filter, cfg.numerics, initial=cfg.excited_atom)
        walls.append(time.perf_counter() - t0)
        n_t = result.metadata["n_t"]
        del result  # so that a run's grid does not add to the next one's peak
    print(json.dumps({
        "point": "configs/reference.cfg with numerics.method = expm",
        "wall_s": walls,
        "wall_s_median": float(np.median(walls)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "n_t": n_t,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
