"""The helpers in tools/, run as a user runs them."""

import importlib.util
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


def _north_star_point(name: str, n_t: int, propagator: str) -> dict:
    """One point of tools/north_star.py, cold in a fresh interpreter as its main() runs each.

    Each of its three runs keeps the whole metadata record, with the given
    n_t and propagator.
    """
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "north_star.py"), "--point", name],
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
        assert run["n_t"] == n_t and run["propagator"] == propagator
    return point


def test_north_star_point_keeps_each_run_record():
    _north_star_point("Mbar=0", 8519, "factored/separable")


def test_north_star_dark_point_loads_no_scipy():
    # the dark start's empty operand sector takes the spectral form, so the
    # point stays off the stepped path and scipy
    assert _north_star_point("dark", 9212, "spectral/spectral")["scipy_modules"] == []


def _code_lines(tmp_path, source: str) -> dict:
    """tools/code_lines.py's row for one module holding source."""
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    row = next(line.split() for line in proc.stdout.splitlines() if line.startswith("mod.py"))
    return dict(zip(("wc", "tokens", "ast", "docs"), map(int, row[1:])))


CODE = '''import os


class Thing:
    def method(self, x):
        return os.sep + x


TEXT = """a string
that is no docstring"""
'''

DOCUMENTED = '''"""Module docstring,
over two lines."""

import os

# a comment


class Thing:
    """Class docstring."""

    def method(self, x):
        """Method docstring,

        over three lines.
        """

        # a comment on its own line
        return os.sep + x  # and one after code


TEXT = """a string
that is no docstring"""
'''


def test_code_lines_counts_code_not_documentation(tmp_path):
    # the string over two lines is code: its token counts on both lines,
    # its AST node on the first only
    code = _code_lines(tmp_path, CODE)
    assert code == {"wc": CODE.count("\n"), "tokens": 6, "ast": 5, "docs": 0}
    documented = _code_lines(tmp_path, DOCUMENTED)
    assert documented == {"wc": DOCUMENTED.count("\n"), "tokens": 6, "ast": 5, "docs": 7}


def _records(directory: Path, commits: dict, wall_s=None) -> Path:
    """Result records of perfbench/run.py, reduced to what bench_summary reads, one per seed: commit.

    Every metric reads 1.0, but wall_s, where given, {seed: value}.
    """
    directory.mkdir(parents=True)
    for seed, commit in commits.items():
        metrics = dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mib", "setup_s"), 1.0)
        metrics["wall_s"] = (wall_s or {}).get(seed, 1.0)
        record = {"workload": "resweep", "seed": seed, "trace": 0, "seconds": 16,
                  "environment": {"git_commit": commit}, "ops": [{"ok": True}],
                  "metrics": metrics}
        (directory / f"resweep-seed{seed}-trace0.json").write_text(json.dumps(record), encoding="utf-8")
    return directory


def _bench_summary(parent: Path, change: Path):
    label = "test_refused_summary"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_summary.py"), "--label", label,
         "--parent", str(parent), "--change", str(change)],
        capture_output=True, text=True,
    )
    assert not (ROOT / f"BENCH_{label}.json").exists()
    return proc


def test_bench_summary_refuses_records_of_two_commits(tmp_path):
    # a results directory outlives its commit: a side whose records name
    # two commits is refused, and the error names both
    parent = _records(tmp_path / "parent", {1: "aaa111", 2: "aaa111"})
    change = _records(tmp_path / "change", {1: "bbb222", 2: "ccc333"})
    proc = _bench_summary(parent, change)
    assert proc.returncode != 0
    assert "records of 2 commits, not one: bbb222, ccc333" in proc.stderr


def test_bench_summary_refuses_one_commit_on_both_sides(tmp_path):
    parent = _records(tmp_path / "parent", {1: "aaa111"})
    change = _records(tmp_path / "change", {1: "aaa111"})
    proc = _bench_summary(parent, change)
    assert proc.returncode != 0
    assert "parent and change records both come from commit aaa111" in proc.stderr


def _summary_of(tmp_path, parent_wall: list, change_wall: list) -> dict:
    """bench_summary's resweep entry for paired wall_s values (seeds 1, 2, ..), every other metric level."""
    spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sides = []
    for side, commit, wall in (("parent", "aaa111", parent_wall), ("change", "bbb222", change_wall)):
        seeds = range(1, len(wall) + 1)
        sides.append(tool.load(_records(tmp_path / side, dict.fromkeys(seeds, commit), dict(zip(seeds, wall)))))
    return tool.build(*sides)["workloads"]["resweep"]


PARENT_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.0325


def test_bench_summary_shows_a_gain(tmp_path):
    # 20% lower in every pair: shown, and within the bound; every other
    # metric is level, so neither shown nor out of bound
    entry = _summary_of(tmp_path, PARENT_WALL, [0.8 * x for x in PARENT_WALL])
    assert entry["wall_s"]["change_lower_in_pairs"] == 10
    assert entry["wall_s"]["gain_shown"] and entry["wall_s"]["within_bound"]
    assert not entry["cpu_s"]["gain_shown"] and entry["cpu_s"]["within_bound"]


def test_bench_summary_gain_needs_nine_pairs_and_the_parents_spread(tmp_path):
    # lower in 8 of 10 pairs by far more than the spread: not shown
    eight = [0.8 * x for x in PARENT_WALL[:8]] + [1.1 * x for x in PARENT_WALL[8:]]
    assert not _summary_of(tmp_path / "eight", PARENT_WALL, eight)["wall_s"]["gain_shown"]
    # lower in every pair, but the medians 0.03 apart, inside the IQR
    close = [x - 0.03 for x in PARENT_WALL]
    entry = _summary_of(tmp_path / "close", PARENT_WALL, close)["wall_s"]
    assert entry["change_lower_in_pairs"] == 10 and not entry["gain_shown"]
    # 9 of 10 pairs and 0.2 apart: shown
    nine = [0.8 * x for x in PARENT_WALL[:9]] + [1.1 * PARENT_WALL[9]]
    assert _summary_of(tmp_path / "nine", PARENT_WALL, nine)["wall_s"]["gain_shown"]


def test_bench_summary_within_bound(tmp_path):
    # BENCHMARK.json bounds wall_s at 0.25: a median 24% higher is within
    # it, 26% higher is not
    for factor, within in ((1.24, True), (1.26, False)):
        entry = _summary_of(tmp_path / str(factor), PARENT_WALL, [factor * x for x in PARENT_WALL])
        assert entry["wall_s"]["within_bound"] is within and not entry["wall_s"]["gain_shown"]
