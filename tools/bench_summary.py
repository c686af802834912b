"""Summarize perfbench result files of two commits into one BENCH_<label>.json.

    python3 tools/bench_summary.py --label blocked_powers \
        --parent PARENT_RESULTS --change CHANGE_RESULTS \
        [--north-star PARENT_JSON CHANGE_JSON]

PARENT_RESULTS and CHANGE_RESULTS are directories of the records that
``perfbench/run.py`` writes to ``.perfbench/results/``
(``<workload>-seed<n>-trace<0|1>.json``), one set per commit, run as
alternating pairs with the same seeds.  That directory outlives a commit,
so the records of each side must all carry one ``environment.git_commit``,
and the two sides' commits must differ: run each side in a git checkout of
its own commit, with a fresh results directory.  The output holds, per
workload and side, the median and quartiles of every end-to-end metric
over the untraced runs, the number of pairs the change won, two verdicts,
the per-layer metrics of each side's traced runs with their spans of
set-up and of the first SPAN_OPS operations, and each side's environment
stamp.  The verdicts, per workload and metric (every one lower-better):

- ``gain_shown``: the change is lower in at least 9 of 10 pairs
  (GAIN_PAIRS) and its median lies below the parent's by more than the parent's
  interquartile range, what a claimed gain must show;
- ``within_bound``: the change's median is at most the parent's times
  1 + the metric's bound in BENCHMARK.json, what every metric must keep.
With --north-star it also holds each side's ``tools/north_star.py`` output,
the North-star point that the workloads are scaled down from.
"""

import argparse
import json
from pathlib import Path

import numpy as np

METRICS = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s")
#: pairs that the change must win for gain_shown, of so many: 9 of 10
GAIN_PAIRS = (9, 10)
#: BENCHMARK.json, whose end_to_end entries give each metric's bound
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: operations of a traced run whose spans are kept; a run makes hundreds
SPAN_OPS = 3


def load(directory: Path) -> dict:
    """{(workload, seed, trace): record} for every result file in a directory.

    SystemExit, naming the commits, unless every record carries the same
    environment.git_commit.
    """
    out = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        out[record["workload"], record["seed"], record["trace"]] = record
    commits = commit_of(out)
    if len(commits) != 1:
        raise SystemExit(f"{directory}: records of {len(commits)} commits, not one: {', '.join(commits) or 'none'}")
    return out


def commit_of(records: dict) -> list:
    """The sorted environment.git_commit values of records."""
    return sorted({record["environment"]["git_commit"] for record in records.values()})


def summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _head(spans: list) -> list:
    """The spans before the first one of operation SPAN_OPS; a prefix, so parent indices hold."""
    cut = next((i for i, span in enumerate(spans) if span["op"] == SPAN_OPS), len(spans))
    return spans[:cut]


def bounds() -> dict:
    """{metric: relative bound} of the end-to-end metrics in BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def verdicts(old: list, new: list, bound: float) -> dict:
    """gain_shown and within_bound (see the module docstring) of one metric's paired values."""
    parent, change = summary(old), summary(new)
    won = sum(b < a for a, b in zip(old, new))
    return {
        "gain_shown": bool(won * GAIN_PAIRS[1] >= GAIN_PAIRS[0] * len(old)
                           and parent["median"] - change["median"] > parent["q3"] - parent["q1"]),
        "within_bound": bool(change["median"] <= parent["median"] * (1.0 + bound)),
    }


def build(parent: dict, change: dict) -> dict:
    workloads, bound = {}, bounds()
    for workload in sorted({key[0] for key in parent}):
        seeds = sorted(s for w, s, t in parent if w == workload and t == 0
                       and (w, s, t) in change)
        if not seeds:
            continue
        entry = {"seeds": seeds, "failed_ops": {
            side: sum(not op["ok"] for s in seeds for op in records[workload, s, 0]["ops"])
            for side, records in (("parent", parent), ("change", change))
        }}
        for name in METRICS:
            old = [parent[workload, s, 0]["metrics"][name] for s in seeds]
            new = [change[workload, s, 0]["metrics"][name] for s in seeds]
            entry[name] = {
                "parent": summary(old),
                "change": summary(new),
                "change_lower_in_pairs": sum(b < a for a, b in zip(old, new)),
                **verdicts(old, new, bound[name]),
            }
        traced = {}
        for side, records in (("parent", parent), ("change", change)):
            for (w, seed, trace), record in records.items():
                if w == workload and trace == 1:
                    traced[side] = {"seed": seed, "per_layer": record["metrics"],
                                    "module_shares": record["module_shares"],
                                    "spans": _head(record["spans"])}
        if traced:
            entry["traced"] = traced
        workloads[workload] = entry
    any_parent, any_change = next(iter(parent.values())), next(iter(change.values()))
    return {
        "environment": {"parent": any_parent["environment"],
                        "change": any_change["environment"]},
        "seconds": any_parent["seconds"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--north-star", type=Path, nargs=2, metavar=("PARENT_JSON", "CHANGE_JSON"))
    args = parser.parse_args(argv)
    out = Path(__file__).resolve().parent.parent / f"BENCH_{args.label}.json"
    parent, change = load(args.parent), load(args.change)
    if commit_of(parent) == commit_of(change):
        raise SystemExit(f"parent and change records both come from commit {commit_of(parent)[0]}")
    data = build(parent, change)
    if args.north_star:
        data["north_star"] = {
            side: json.loads(path.read_text(encoding="utf-8"))
            for side, path in zip(("parent", "change"), args.north_star)
        }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
