import subprocess
import sys

import numpy as np
import pytest

from omtc.cli import main
from omtc.config import apply_sweep_value, echo_lines, parse_config
from omtc.errors import ConfigurationError
from omtc.output import emit_plot

# small, fast model for end-to-end runs: guard allows dt <= 0.1 at g_a = 1
FAST = """
model.g_a = 1.0
model.g_M = 0.4
model.kappa = 0.3
model.gamma_a = 0.1
numerics.dt = 0.05
numerics.t_max = 30
numerics.N_m = 2
numerics.method = expm
filter.Gamma = 0.05
filter.delta_min = -4
filter.delta_max = 4
filter.n_points = 81
"""


class TestParseConfig:
    def test_empty_reproduces_reference_defaults(self):
        cfg = parse_config("")
        assert cfg.model.g_a == 2.4
        assert cfg.model.g_M == 1.2
        assert cfg.model.kappa == 0.2
        assert cfg.model.gamma_a == 0.05
        assert cfg.model.delta_ac == 0.0
        assert cfg.model.gamma_M == 0.0
        assert cfg.model.Mbar == 0.0
        assert cfg.model.J == 0.0
        assert cfg.filter.Gamma == 0.01
        assert cfg.filter.n_points == 321
        assert (cfg.filter.delta_min, cfg.filter.delta_max) == (-8.0, 8.0)
        assert cfg.numerics.evolution.dt == 0.02
        assert cfg.numerics.N_m == 8
        assert cfg.numerics.excitation_cap == 1

    def test_only_j_set_keeps_reference_point(self):
        cfg = parse_config("model.J = 1.0\n")
        assert cfg.model.J == 1.0
        assert cfg.model.g_a == 2.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("model.g_b = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("model.J = 1\nmodel.J = 2\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="model.g_a"):
            parse_config("model.g_a = strong\n")

    def test_cp_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("model.gamma_a_coop = 0.1\nmodel.gamma_a = 0.05\n")

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("numerics.dt = 0\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmodel.J = 0.5\n")
        assert cfg.model.J == 0.5

    def test_sweep_section(self):
        cfg = parse_config("sweep.parameter = J\nsweep.values = 0, 0.5, 1.0\n")
        assert cfg.sweep.parameter == "J"
        assert cfg.sweep.values == (0.0, 0.5, 1.0)
        swept = apply_sweep_value(cfg, 0.5)
        assert swept.model.J == 0.5

    def test_sweep_parameter_whitelist(self):
        with pytest.raises(ConfigurationError):
            parse_config("sweep.parameter = g_a\nsweep.values = 1\n")

    def test_sweep_requires_both_keys(self):
        with pytest.raises(ConfigurationError):
            parse_config("sweep.parameter = J\n")

    def test_uncapped_space(self):
        cfg = parse_config("numerics.excitation_cap = none\n")
        assert cfg.numerics.excitation_cap is None

    def test_dressed_and_threads_keys(self):
        cfg = parse_config("dressed.m_max = 4\nthreads = 2\n")
        assert cfg.dressed_m_max == 4
        assert cfg.threads == 2

    def test_echo_lines_cover_model(self):
        lines = echo_lines(parse_config(""))
        keys = {ln.split(" = ")[0] for ln in lines}
        assert "model.g_a" in keys
        assert "numerics.dt" in keys
        assert "filter.Gamma" in keys
        assert "schema" in keys


class TestCliSpectrum:
    def test_end_to_end(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# delta,intensity,integrated_counts"
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 81
        first = data[0].split(",")
        assert float(first[0]) == -4.0
        assert len(data[0].split(",")) == 3
        assert any("model.g_a = 1.0" in ln for ln in lines)

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
            out = tmp_path / name
            code = main(
                ["spectrum", "--config", str(cfg), "--output", str(out), "--threads", threads]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_svg_emission(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "spec.csv"
        svg = tmp_path / "spec.svg"
        assert main(
            ["spectrum", "--config", str(cfg), "--output", str(out), "--svg", str(svg)]
        ) == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert "polyline" in body
        assert "intensity" in body

    def test_missing_output_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        assert main(["spectrum", "--config", str(cfg)]) == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.nope = 1\n")
        assert main(["spectrum", "--config", str(cfg), "--output", "x.csv"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "numerics.max_grid_bytes = 100\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert not out.exists()

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "spec.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "omtc.cli", "spectrum", "--config", str(cfg),
             "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestCliCorrelation:
    def test_dump_and_reuse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        direct = tmp_path / "direct.csv"
        reused = tmp_path / "reused.csv"
        assert main(
            ["spectrum", "--config", str(cfg), "--output", str(direct),
             "--dump-correlation", str(dump)]
        ) == 0
        assert main(
            ["spectrum", "--config", str(cfg), "--output", str(reused),
             "--load-correlation", str(dump)]
        ) == 0
        assert direct.read_bytes() == reused.read_bytes()

    def test_stderr_reports_sectors(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        out = tmp_path / "out.csv"
        main(["spectrum", "--config", str(cfg), "--output", str(out),
              "--dump-correlation", str(dump)])
        assert "sectors 90/27," in capsys.readouterr().err
        main(["spectrum", "--config", str(cfg), "--output", str(out),
              "--load-correlation", str(dump)])
        assert "sectors None/None," in capsys.readouterr().err
        assert "sectors" not in out.read_text()

    def test_correlation_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        assert main(
            ["correlation", "--config", str(cfg), "--dump-correlation", str(dump)]
        ) == 0
        assert dump.stat().st_size > 48

    def test_loading_with_wrong_parameters_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        main(["correlation", "--config", str(cfg), "--dump-correlation", str(dump)])
        cfg2 = tmp_path / "other.cfg"
        cfg2.write_text(FAST.replace("model.g_a = 1.0", "model.g_a = 1.1"))
        code = main(
            ["spectrum", "--config", str(cfg2), "--output", str(tmp_path / "o.csv"),
             "--load-correlation", str(dump)]
        )
        assert code == 2


class TestCliSweep:
    def test_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "sweep.parameter = J\nsweep.values = 0, 0.4\n")
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        assert main(
            ["sweep", "--config", str(cfg), "--output", str(out), "--svg", str(svg)]
        ) == 0
        assert (tmp_path / "sweep_J_0.csv").exists()
        assert (tmp_path / "sweep_J_0.4.csv").exists()
        summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "# J,peak_separation"
        values = [float(ln.split(",")[0]) for ln in summary if not ln.startswith("#")]
        assert values == [0.0, 0.4]
        body = svg.read_text()
        assert body.count("<polyline") == 2

    def test_sweep_without_section_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        assert main(["sweep", "--config", str(cfg), "--output", "s.csv"]) == 2


class TestCliDressed:
    def test_stick_csv(self, tmp_path):
        out = tmp_path / "sticks.csv"
        assert main(["dressed", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# branch,m,position,weight"
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        branches = {r[0] for r in rows}
        assert branches == {"+1", "-1"}
        weights = np.array([float(r[3]) for r in rows])
        assert weights.sum() <= 0.2 + 1e-12


class TestEmitPlot:
    def test_empty_series_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ConfigurationError):
            emit_plot([], path)
        assert not path.exists()

    def test_short_series_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ConfigurationError):
            emit_plot([("x", np.array([1.0]), np.array([2.0]))], path)
        assert not path.exists()

    def test_single_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.linspace(0, 1, 20)
        emit_plot([("demo", x, np.sin(x))], path)
        body = path.read_text()
        assert body.count("<polyline") == 1
        assert "viewBox" in body
