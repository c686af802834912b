"""One benchmark worker process: set up a workload, then run operations.

Started by run.py with a JSON spec as its only argument.  It reports one
JSON object per line on stdout: ``ready`` when set-up is done, with its
``time.monotonic()`` (a system-wide clock on Linux), one ``op``
per operation with the resident high-water mark after it, and ``done``
(with every span, when traced).  The program's own stderr goes wherever the parent
points it.
"""

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import gate
import omtc
import workloads
from omtc import cli
from omtc.model import ModelParams
from spans import Tracer


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def prepare(inputs: dict, work: Path, out_csv: Path, main_call) -> list[str]:
    """Write the workload's configs (and dump its grid); returns the op argv."""
    argv = [
        "spectrum", "--config", _write(work / "op.cfg", workloads.operation_config(inputs)),
        "--output", str(out_csv), "--threads", "1",
    ]
    if workloads.reloads_dump(inputs):
        dump = str(work / "grid.bin")
        sim_cfg = _write(work / "sim.cfg", workloads.simulation_config(inputs))
        rc = main_call(["correlation", "--config", sim_cfg, "--dump-correlation", dump,
                        "--threads", "1"])
        if rc != 0:
            raise RuntimeError(f"omtc correlation exited with code {rc}")
        argv += ["--load-correlation", dump]
    return argv


def main() -> int:
    spec = json.loads(sys.argv[1])
    root, work = Path(spec["root"]), Path(spec["workdir"])
    if Path(omtc.__file__).resolve().parent != (root / "src" / "omtc").resolve():
        emit("error", message=f"imported omtc from {omtc.__file__}, not from the checkout")
        return 2
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        main_call = tracer.wrap("cli.main", cli.main)
    else:
        main_call = cli.main

    inputs = spec["inputs"]
    out_csv = work / "spectrum.csv"
    argv = prepare(inputs, work, out_csv, main_call)
    reference = gate.load_references(inputs["workload"]).get(inputs["key"])
    params = ModelParams(**workloads.model_params(inputs))
    emit(
        "ready",
        t=time.monotonic(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )

    budget = spec["budget_s"]
    start = time.perf_counter()
    op_id = 0
    while budget > 0:
        if tracer is not None:
            tracer.op = op_id
        out_csv.unlink(missing_ok=True)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc, error = main_call(argv), None
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        counts = {}
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if tracer is not None:
            tracer.op = "gate"
        if error is None:
            try:
                rows, footer = gate.check(out_csv, params, workloads.n_points(inputs))
                gate.compare(rows, reference)
                counts = {
                    "hilbert.dim": int(footer["space.dim"]),
                    "dynamics.n_t": int(footer["grid.n_t"]),
                    "dynamics.grid_bytes": int(footer["grid.memory_bytes"]),
                }
            except Exception as exc:  # any failed check fails the operation
                error = f"{type(exc).__name__}: {exc}"
        emit("op", id=op_id, wall_s=t1 - t0, cpu_s=c1 - c0, ok=error is None,
             error=error, counts=counts,
             maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        op_id += 1
        # end where the run is closest to its budget: one more operation at
        # the mean pace so far would end more than half an operation past it
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / op_id) >= budget:
            break
    emit("done", spans=tracer.spans if tracer is not None else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
