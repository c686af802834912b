"""Record the reference outputs that the gate compares every operation with.

    python3 perfbench/record_reference.py

Runs every input a seed can draw once, checks it against the dressed-state
oracle and rewrites perfbench/reference/<workload>.npz.  Run it only at a
commit whose outputs define correct results; a change that moves the
outputs beyond roundoff must fail the gate, not re-record it.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import WORKER_SETTINGS  # noqa: E402

os.environ.update(WORKER_SETTINGS)

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from omtc import cli  # noqa: E402
from omtc.model import ModelParams  # noqa: E402
from worker import prepare  # noqa: E402


def record(name: str) -> None:
    arrays = {}
    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    for inputs in workloads.entries(name):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            out_csv = Path(tmp) / "spectrum.csv"
            rc = cli.main(prepare(inputs, Path(tmp), out_csv, cli.main))
            if rc != 0:
                raise SystemExit(f"{name} {inputs['key']}: omtc exited with code {rc}")
            params = ModelParams(**workloads.model_params(inputs))
            rows, _ = gate.check(out_csv, params, workloads.n_points(inputs))
        arrays[inputs["key"]] = rows
        print(f"{name} {inputs['key']}: recorded {len(rows)} rows", flush=True)
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(gate.REFERENCE_DIR / f"{name}.npz", **arrays)


if __name__ == "__main__":
    for name in workloads.WORKLOADS:
        record(name)
