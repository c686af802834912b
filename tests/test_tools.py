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


def _records(directory: Path, commits: dict) -> Path:
    """Result records of perfbench/run.py, reduced to what bench_summary reads, one per seed: commit."""
    directory.mkdir()
    for seed, commit in commits.items():
        record = {"workload": "resweep", "seed": seed, "trace": 0, "seconds": 16,
                  "environment": {"git_commit": commit}, "ops": [{"ok": True}],
                  "metrics": dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mib", "setup_s"), 1.0)}
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
