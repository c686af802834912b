"""n_t scaling series at the reference point (traced, not gated).

    python3 perfbench/scaling.py

Runs the reference point (expm, N_m = 8, dt = 0.02) with the leak stop
off, so n_t = t_max / dt + 1, once per t_max, each in a fresh process.
Reports the two_time_correlation span, the CPU time of the operation, the
packed grid size and the resident high-water mark against n_t, with the
least-squares exponent of each in log-log.  The t_max values give
n_t = 1251 .. 10001; t_max = 400 (n_t = 20001) needs a 3.0 GiB grid, above
the program's 2 GiB budget, and exits with code 3.
"""

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from run import environment, worker_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
T_MAX = (25, 50, 100, 200)
CONFIG = "numerics.method = expm\nnumerics.leak_tolerance = 0\nnumerics.t_max = {t_max}\n"


def measure_point(t_max: float) -> dict:
    """One traced spectrum run in this process (the child side)."""
    from omtc import cli
    from spans import Tracer, layer_values

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench" / "work") as tmp:
        cfg = Path(tmp) / "scaling.cfg"
        cfg.write_text(CONFIG.format(t_max=t_max), encoding="utf-8")
        c0 = time.process_time()
        rc = tracer.wrap("cli.main", cli.main)(
            ["spectrum", "--config", str(cfg), "--output", str(Path(tmp) / "out.csv"),
             "--threads", "1"]
        )
        cpu = time.process_time() - c0
    if rc != 0:
        raise SystemExit(f"t_max={t_max}: omtc exited with code {rc}")
    values = layer_values(tracer.spans)[0]
    return {
        "t_max": t_max,
        "n_t": values["dynamics.n_t"],
        "hilbert.dim": values["hilbert.dim"],
        "dynamics.correlation_s": values["dynamics.correlation_s"],
        "cpu_s": cpu,
        "dynamics.grid_bytes": values["dynamics.grid_bytes"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(measure_point(args.point)))
        return 0

    (ROOT / ".perfbench" / "work").mkdir(parents=True, exist_ok=True)
    points = []
    for t_max in T_MAX:
        out = subprocess.run(
            [sys.executable, __file__, "--point", str(t_max)],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
        )
        if out.returncode != 0:
            print(out.stderr[-2000:], file=sys.stderr)
            return 1
        points.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print("  ".join(f"{k} {v:.6g}" for k, v in points[-1].items()), flush=True)

    metrics = ("dynamics.correlation_s", "cpu_s", "dynamics.grid_bytes", "peak_rss_mib")
    n_t = [p["n_t"] for p in points]
    fits = {m: exponent(n_t, [p[m] for p in points]) for m in metrics}
    for m, k in fits.items():
        print(f"exponent of {m} in n_t: {k:.3f}")
    stamp = environment({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "scaling.json").write_text(
        json.dumps({"environment": stamp, "points": points, "exponents": fits}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
