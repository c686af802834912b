"""omtc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each set-up happens in a fresh worker process (worker.py).  An untraced
run sets up five times and reports the median set-up time: two set-up-only
workers, then the measuring worker, which runs operations for ``--seconds``
and reports per-operation wall and CPU time, its resident high-water mark
and every failed check, then two more set-up-only workers, so that the
set-ups sample the machine before and after the operations.
A traced run (``--trace 1``) runs one untraced and one traced worker for
half the time each and reports the per-layer metrics of spans.py plus the
tracing overhead.  The last line of stdout is one JSON object; the full
record, with an environment stamp, goes to .perfbench/results/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up-only workers spawned before and after the measuring worker
SETUP_BEFORE, SETUP_AFTER = 2, 2
#: Settings every worker runs with; one BLAS thread keeps runs on a shared
#: 2-core box steady.
WORKER_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: hard stop for a whole run, below the 180 s a run may take
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(Exception):
    """A worker failed to set up or to report; the run has no result."""


def worker_env() -> dict:
    """Environment of a worker: the checkout's src/ first, then WORKER_SETTINGS."""
    pythonpath = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return {**os.environ, "PYTHONPATH": pythonpath, **WORKER_SETTINGS}


def run_worker(inputs, workdir: Path, budget_s: float, trace: bool, deadline) -> dict:
    """Spawn one worker and collect its set-up time and reports."""
    workdir.mkdir()
    spec = {
        "root": str(ROOT), "workdir": str(workdir), "inputs": inputs,
        "budget_s": budget_s, "trace": trace,
    }
    log_path = workdir.parent / f"{workdir.name}.stderr"
    out = {"ops": [], "setup_s": None, "done": None}
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=log, env=worker_env(), cwd=ROOT,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish before the run deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    shutil.rmtree(workdir)
    for line in stdout.splitlines():
        event = json.loads(line)
        kind = event.pop("event")
        if kind == "ready":
            out["setup_s"] = event.pop("t") - t_spawn
            out["env"] = event
        elif kind == "op":
            out["ops"].append(event)
        elif kind == "done":
            out["done"] = event
        elif kind == "error":
            raise BenchError(event["message"])
    if proc.returncode != 0 or out["done"] is None or out["setup_s"] is None:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker exited with code {proc.returncode}\n{tail}")
    return out


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def environment(versions) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "worker_settings": WORKER_SETTINGS,
        **versions,
    }


def per_op(ops, key) -> float:
    """Seconds per operation over a whole run: total time over operations.

    This is the inverse of throughput.  The host changes speed for seconds
    at a time, so a run's operation times fall into a few levels; their
    median jumps from one level to another with the mix, while this moves
    in proportion to it.
    """
    return sum(op[key] for op in ops) / len(ops)


def end_to_end(setups, worker) -> dict:
    return {
        "wall_s": per_op(worker["ops"], "wall_s"),
        "cpu_s": per_op(worker["ops"], "cpu_s"),
        # the high-water mark over the whole run, read after the last operation
        "peak_rss_mib": worker["ops"][-1]["maxrss_kib"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics, tracing costs and per-module self-time shares."""
    recorded = traced["done"]["spans"]
    values = spans.layer_values(recorded)
    op_ids = [op["id"] for op in traced["ops"]]
    metrics = {}
    for name in spans.LAYER_METRICS:
        if name in spans.SETUP_METRICS:
            metrics[name] = values.get("setup", {}).get(name, 0.0)
        elif name == "dynamics.correlation_rss_mib":
            # a high-water mark rises mostly in the first operation
            metrics[name] = max(values.get(i, {}).get(name, 0.0) for i in op_ids)
        else:
            metrics[name] = statistics.median(values.get(i, {}).get(name, 0.0) for i in op_ids)
    modules = spans.module_self_times(recorded)
    metrics["trace.overhead_s"] = (
        per_op(traced["ops"], "wall_s") - per_op(untraced["ops"], "wall_s")
    )
    wrapper = spans.wrapper_times(recorded)
    metrics["trace.wrapper_s"] = statistics.median(wrapper.get(i, 0.0) for i in op_ids)
    shares = {}
    for op in traced["ops"]:
        for module, t in modules.get(op["id"], {}).items():
            shares.setdefault(module, []).append(t / op["wall_s"])
    return metrics, {m: statistics.median(v) for m, v in sorted(shares.items())}


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "s"
    return spans.LAYER_METRICS[name][0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "omtc" / "cli.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inputs = workloads.draw(args.workload, args.seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = Path(tmp)
            if args.trace:
                untraced = run_worker(inputs, tmp / "w0", args.seconds / 2, False, deadline)
                traced = run_worker(inputs, tmp / "w1", args.seconds / 2, True, deadline)
                workers, measured = [untraced, traced], traced
            else:
                budgets = [0.0] * SETUP_BEFORE + [args.seconds] + [0.0] * SETUP_AFTER
                workers = [
                    run_worker(inputs, tmp / f"w{i}", budget, False, deadline)
                    for i, budget in enumerate(budgets)
                ]
                measured = workers[SETUP_BEFORE]
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for w in workers for op in w["ops"]]
    failed = sum(not op["ok"] for op in ops)
    counts = next((op["counts"] for op in ops if op["ok"]), {})
    setups = [w["setup_s"] for w in workers]
    if args.trace:
        metrics, shares = per_layer(*workers)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, shares = end_to_end(setups, measured), None
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs,
        "config": workloads.operation_config(inputs),
        "environment": environment(workers[0]["env"]), "counts": counts,
        "setup_s": setups, "ops": ops, "metrics": metrics, "module_shares": shares,
        "spans": measured["done"]["spans"] if args.trace else None,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    walls = [op["wall_s"] for op in measured["ops"]]
    print(f"workload {args.workload}, seed {args.seed}: J={inputs['J']:g}, "
          f"Gamma={inputs['Gamma']:g}, {counts}")
    print(f"  operations {len(ops)}, failed {failed}, error_rate {failed / len(ops):.4f} (1)")
    if not args.trace:
        tail = tail_percentile(walls)
        tail_text = (
            f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile below 11 samples"
        )
        print(f"  wall_s over {len(walls)} operations: mean {metrics['wall_s']:.4f} s "
              f"(reported), median {statistics.median(walls):.4f} s, {tail_text}")
    else:
        print("  self-time share per module: "
              + ", ".join(f"{m} {v:.1%}" for m, v in shares.items()))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
