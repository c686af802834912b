import errno
import struct
import subprocess
import sys
from dataclasses import fields
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from omtc.cli import _parser, main
from omtc.config import (
    _KNOWN_KEYS,
    _SCHEMA,
    RunConfig,
    apply_sweep_value,
    echo_lines,
    parse_config,
)
from omtc.model import ModelParams
from omtc.spectrum import NumericsConfig, canonical_param_string, two_time_correlation
from omtc.errors import ConfigurationError, NumericalError
from omtc.output import emit_plot, write_spectrum_csv

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

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


def _never(*args, **kwargs):
    raise AssertionError("the propagation ran")


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
        # the dataclasses hold the only defaults
        assert cfg == RunConfig()

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

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_grid_budget_must_be_positive(self, tmp_path, monkeypatch, capsys, raw):
        # a budget of no bytes refuses every run: a config error at parse
        # time, not a numerical failure once the model is built
        monkeypatch.setattr("omtc.spectrum.two_time_correlation", _never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + f"numerics.max_grid_bytes = {raw}\n")
        assert main(["spectrum", "--config", str(cfg), "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: config error at numerics.*: max_grid_bytes must be > 0, got {raw}\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "key, raw",
        [("filter.Gamma", "nan"), ("filter.Gamma", "inf"), ("numerics.dt", "nan"),
         ("numerics.t_max", "inf"), ("numerics.t_max", "nan"), ("filter.delta_max", "inf"),
         ("numerics.leak_tolerance", "nan"), ("model.kappa", "-inf"), ("sweep.values", "0, nan")],
    )
    def test_non_finite_number_rejected(self, key, raw):
        # every float key goes through one parser, so none reaches a run
        text = f"sweep.parameter = J\n{key} = {raw}\n"
        with pytest.raises(ConfigurationError, match=f"^config error at {key}: expected a finite number"):
            parse_config(text)

    def test_two_filter_points_rejected(self):
        # find_peaks fits a parabola to three neighbouring points
        with pytest.raises(ConfigurationError, match="at filter.*: n_points must be >= 3, got 2"):
            parse_config("filter.n_points = 2\n")
        assert parse_config("filter.n_points = 3\n").filter.n_points == 3

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
        # the footer's echo of it parses back
        (echoed,) = [ln for ln in echo_lines(cfg) if ln.startswith("numerics.excitation_cap")]
        assert echoed == "numerics.excitation_cap = None"
        assert parse_config(echoed).numerics.excitation_cap is None

    def test_dressed_and_threads_keys(self):
        cfg = parse_config("dressed.m_max = 4\nthreads = 2\n")
        assert cfg.dressed_m_max == 4
        assert cfg.threads == 2

    def test_threads_key_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="threads"):
            parse_config("threads = 0\n")

    def test_every_model_field_in_hash_keys_and_footer(self):
        cfg = parse_config("")
        hashed = {item.split("=")[0] for item in
                  canonical_param_string(cfg.model, cfg.numerics, 1).split(";")}
        echoed = {ln.split(" = ")[0] for ln in echo_lines(cfg)}
        for f in fields(ModelParams):
            assert f.name in hashed
            assert f"model.{f.name}" in _KNOWN_KEYS
            assert f"model.{f.name}" in echoed

    def test_hash_text_unchanged(self):
        # dumps written before the field list was derived must still load
        assert canonical_param_string(ModelParams(), NumericsConfig(), 1) == (
            "g_a=2.4;g_M=1.2;delta_ac=0.0;J=0.0;kappa=0.2;gamma_a=0.05;"
            "gamma_a_coop=0.0;gamma_M=0.0;Mbar=0.0;N_c=1;N_m=8;cap=1;dt=0.02;"
            "t_max=400.0;method=rk4;leak=0.0001;initial=1"
        )

    @pytest.mark.parametrize(
        "text",
        # the configs keep the default filter, so FAST (with a start and a
        # cap that are not the defaults) covers the filter keys
        [p.read_text(encoding="utf-8") for p in CONFIGS]
        + [FAST + "model.excited_atom = antisymmetric\nnumerics.excitation_cap = none\n"],
        ids=[p.name for p in CONFIGS] + ["FAST"],
    )
    def test_echo_lines_parse_back(self, text):
        cfg = parse_config(text)
        echoed = parse_config("\n".join(ln for ln in echo_lines(cfg) if not ln.startswith("schema")))
        assert echoed.model == cfg.model
        assert echoed.numerics == cfg.numerics
        assert echoed.filter == cfg.filter
        assert echoed.excited_atom == cfg.excited_atom

    def test_every_key_resolves_to_a_field(self):
        paths = {key: path for key, path, _, _ in _SCHEMA}
        cfg = parse_config("sweep.parameter = J\nsweep.values = 1\n")
        for key in _KNOWN_KEYS:
            *parents, name = paths[key].split(".")
            assert name in {f.name for f in fields(reduce(getattr, parents, cfg))}, key

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

    def test_non_finite_number_exits_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("filter.Gamma = 0.05", "filter.Gamma = nan"))
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 2
        assert "config error at filter.Gamma: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--output", "{missing}/out.csv"],
            ["correlation", "--dump-correlation", "{missing}/grid.bin"],
            ["spectrum", "--output", "{tmp}/out.csv", "--svg", "{missing}/plot.svg"],
            ["spectrum", "--output", "{tmp}/out.csv", "--load-correlation", "{missing}/grid.bin"],
            ["dressed", "--output", "{missing}/sticks.csv"],
        ],
        ids=["output", "dump", "svg", "load", "sticks"],
    )
    def test_file_error_exit_code(self, tmp_path, capsys, args):
        # a path that cannot be opened is the user's to fix, as a config
        # error is: one line and exit 2, not a traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in args]
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1
        # the path named is the one given, never a temporary one beside it
        assert err.endswith(repr(next(a for a in argv if "missing" in a)) + "\n")

    def test_missing_config_file_is_a_file_error(self, tmp_path, capsys):
        missing = str(tmp_path / "none.cfg")
        assert main(["spectrum", "--config", missing, "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"file error: [Errno 2] No such file or directory: {missing!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe = 1\n")
        out = tmp_path / "d.csv"
        assert main(["dressed", "--config", str(bad), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {bad} is not UTF-8 text (invalid start byte at byte 0)\n"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "command, flag, key",
        [("dressed", "--svg", "output.svg"),
         ("dressed", "--dump-correlation", "output.correlation_dump"),
         ("dressed", "--load-correlation", "output.load_correlation"),
         ("correlation", "--output", "output.csv"),
         ("correlation", "--svg", "output.svg")],
    )
    @pytest.mark.parametrize("given_as", ["flag", "key"])
    def test_unused_outputs_refused(self, tmp_path, monkeypatch, capsys, command, flag, key, given_as):
        # an output the command would never write is refused, as a flag or
        # as a config key, before anything runs or is written
        monkeypatch.setattr("omtc.spectrum.two_time_correlation", _never)
        monkeypatch.setattr("omtc.dressed.predicted_lines", _never)
        cfg = tmp_path / "run.cfg"
        path = str(tmp_path / "extra.out")
        cfg.write_text(FAST + (f"{key} = {path}\n" if given_as == "key" else ""))
        own = ["--output", str(tmp_path / "d.csv")] if command == "dressed" else \
            ["--dump-correlation", str(tmp_path / "grid.bin")]
        extra = [flag, path] if given_as == "flag" else []
        assert main([command, "--config", str(cfg), *own, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} takes no {key}: it uses only ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_dark_start_writes_a_zero_spectrum(self, tmp_path, capsys, method):
        # the antisymmetric start is one dark state of the exchange basis,
        # which never couples to the cavity: the operand sector is empty,
        # the empty product Q0 x P, so the run takes the D or the spectral
        # form, and the spectrum is exactly zero
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", method) + "model.excited_atom = antisymmetric\n")
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 0
        err = capsys.readouterr().err
        propagator = {"expm": "factored/separable", "rk4": "spectral/spectral"}[method]
        assert ", adjoint_sector 0, " in err and f"propagator {propagator}," in err
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 81 and all(float(v) == 0.0 for row in rows for v in row[1:])

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "correlation"])
    def test_missing_output_directory_exits_before_the_run(self, tmp_path, monkeypatch, capsys, command):
        # the dump's directory is missing: the run is refused before the
        # model is built, and the CSV, whose directory exists, is not written
        def never(*args, **kwargs):
            raise AssertionError("the propagation ran")

        monkeypatch.setattr("omtc.spectrum.two_time_correlation", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FAST + "sweep.parameter = J\nsweep.values = 0\n")
        # each command with the outputs it takes: a sweep writes no dump, so
        # its plot's directory is the missing one, and correlation no CSV
        args = {"spectrum": ["--output", "ok.csv", "--dump-correlation", "missing/grid.bin"],
                "sweep": ["--output", "ok.csv", "--svg", "missing/plot.svg"],
                "correlation": ["--dump-correlation", "missing/grid.bin"]}[command]
        assert main([command, "--config", "f.cfg", *args]) == 2
        err = capsys.readouterr().err
        assert err == "file error: [Errno 2] No such file or directory: " + repr(args[-1]) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]

    @pytest.mark.parametrize("failing", ["save", "emit_plot"])
    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch, capsys, failing):
        # the CSV is written first; a later output that fails takes it back,
        # and no temporary file stays behind
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        target = "omtc.grid.CorrelationGrid.save" if failing == "save" else "omtc.cli.emit_plot"
        monkeypatch.setattr(target, full)
        (tmp_path / "f.cfg").write_text(FAST)
        out = [str(tmp_path / name) for name in ("ok.csv", "grid.bin", "plot.svg")]
        assert main(["spectrum", "--config", str(tmp_path / "f.cfg"), "--output", out[0],
                     "--dump-correlation", out[1], "--svg", out[2]]) == 2
        assert capsys.readouterr().err == "file error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]
        assert main(["spectrum", "--config", str(tmp_path / "f.cfg"), "--output", out[0]]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg", "ok.csv"]

    @pytest.mark.parametrize("command", ["dressed", "correlation"])
    def test_half_written_output_is_removed(self, tmp_path, monkeypatch, capsys, command):
        # the one output fails half way: neither it nor its temporary file stays
        def half(path, *args):
            Path(path).write_bytes(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        if command == "dressed":
            monkeypatch.setattr("omtc.cli.write_sticks_csv", half)
        else:
            monkeypatch.setattr("omtc.grid.CorrelationGrid.save", lambda grid, path: half(path))
        (tmp_path / "f.cfg").write_text(FAST)
        output = ["--output", str(tmp_path / "out.csv")] if command == "dressed" else \
            ["--dump-correlation", str(tmp_path / "grid.bin")]
        assert main([command, "--config", str(tmp_path / "f.cfg"), *output]) == 2
        assert capsys.readouterr().err == "file error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]

    def test_two_outputs_with_one_path_rejected(self, tmp_path, capsys):
        # the dump would replace the CSV written under the same name
        (tmp_path / "f.cfg").write_text(FAST)
        out = str(tmp_path / "out.bin")
        assert main(["spectrum", "--config", str(tmp_path / "f.cfg"), "--output", out,
                     "--dump-correlation", out]) == 2
        assert capsys.readouterr().err == f"config error: two outputs write {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]

    def test_threads_flag_must_be_positive(self, tmp_path, capsys):
        # the flag goes through the threads key's parser and check
        out = tmp_path / "sticks.csv"
        assert main(["dressed", "--output", str(out), "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "correlation"])
    def test_two_filter_points_exit_before_propagation(self, tmp_path, monkeypatch, capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("the propagation ran")

        monkeypatch.setattr("omtc.spectrum.two_time_correlation", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("filter.n_points = 81", "filter.n_points = 2")
                       + "sweep.parameter = J\nsweep.values = 0\n")
        out, dump = tmp_path / "out.csv", tmp_path / "grid.bin"
        assert main([command, "--config", str(cfg), "--output", str(out),
                     "--dump-correlation", str(dump)]) == 2
        assert "n_points must be >= 3" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "numerics.max_grid_bytes = 100\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert not out.exists()

    def test_expm_block_budget_checked_before_expm(self, tmp_path, monkeypatch, capsys):
        # N_m = 2, t_max = 2, with mechanical losses, so both sectors are
        # stepped densely: in the exchange basis the factor stacks need
        # 32 * 41 * 21 B = 27.6 kB, the dense expm sector blocks
        # 8 * 50^2 B = 20 kB (real forward: the 49-entry rho_11 block of
        # the bright states and the one dark state, and p) plus
        # 16 * 21^2 B = 7.1 kB (complex adjoint), and their b-th powers as
        # much again: 81.7 kB.  Without the powers it would be 54.6 kB,
        # under the 70 kB budget, and expm would run.
        def not_yet(*args, **kwargs):
            raise AssertionError("expm or its squarings ran before the budget check")

        monkeypatch.setattr("scipy.linalg.expm", not_yet)
        monkeypatch.setattr("omtc.dynamics._power", not_yet)
        small = FAST.replace("numerics.t_max = 30", "numerics.t_max = 2")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(small + "model.gamma_M = 0.05\nnumerics.max_grid_bytes = 70000\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "dense expm blocks and their powers 0.1 MiB" in err
        assert "or method rk4" in err  # rk4 would build no dense block
        assert not out.exists()
        # without mechanical losses the run takes the D form, which steps
        # elementwise powers and builds no propagator: only its stack counts,
        # 16 * 41 * 3 B = 1968 B (|Q0| = 3, s = 1), and neither expm nor
        # a squaring runs
        cfg.write_text(small + "numerics.max_grid_bytes = 1967\n")
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "(factor stacks 0.0 MiB for n_t <= 41)" in err
        # the message advises rk4 only where dense expm blocks count
        assert "dense" not in err and "rk4" not in err
        cfg.write_text(small + "numerics.max_grid_bytes = 1968\n")
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 0
        assert "propagator factored/separable" in capsys.readouterr().err
        cfg.write_text(
            small.replace("expm", "rk4") + "model.gamma_M = 0.05\nnumerics.max_grid_bytes = 70000\n"
        )
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 0

    @pytest.mark.parametrize("call, block", [(0, "forward")])
    def test_corrupted_factored_power_fails_smoke_check(self, tmp_path, monkeypatch, capsys,
                                                        call, block):
        # without mechanical losses the run takes the D form; its forward
        # pass steps the powers of the |P| = 7 eigenvalues g of K_L at
        # N_m = 2 (six bright states and the dark one of the start) by g^b (grid._elementwise_power), made once
        from omtc import grid

        power, calls = grid._elementwise_power, []

        def corrupted(g, b):
            calls.append(len(g))
            P = power(g, b)
            return P * (1 + 1e-6) if len(calls) == call + 1 else P

        monkeypatch.setattr("omtc.grid._elementwise_power", corrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert f"disagree on the {block} E^b smoke test" in capsys.readouterr().err
        assert calls == [7]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_corrupted_step_eigenvalues_fail_smoke_check(self, tmp_path, monkeypatch, capsys,
                                                         method):
        # the D form steps W by exp(alpha dt) over the eigenvalues alpha of
        # A, the spectral form Z by r(h (alpha_i + beta_j)); eigenvalues off
        # by 1e-4 relative, with exact eigenvectors, move node 1 away from
        # the Taylor reference.  The check of node b steps node b - 1 by the
        # form's own factors, so it leans on this one.
        eig = np.linalg.eig

        def corrupted(F):
            alpha, V = eig(F)
            return alpha * (1 + 1e-4), V

        monkeypatch.setattr("numpy.linalg.eig", corrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", method))
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert "disagree on the forward smoke test" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_eigenphase_fails_smoke_check(self, tmp_path, monkeypatch, capsys):
        # the D form's K_0^{-k} is the phase exp(i lam t_k); eigenvalues off
        # by 1e-4 relative move C[1][0] and C[b][0], not C[1][1]
        from omtc import dynamics

        eigenphases = dynamics._eigenphases

        def corrupted(A0):
            lam, V = eigenphases(A0)
            return lam * (1 + 1e-4) + 1e-4, V

        monkeypatch.setattr("omtc.dynamics._eigenphases", corrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert "disagree on the separable kernel smoke test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("call, block", [(0, "forward"), (1, "adjoint")])
    def test_corrupted_spectral_power_fails_smoke_check(self, tmp_path, monkeypatch, capsys,
                                                        call, block):
        # rk4 without mechanical losses takes the spectral form: the forward
        # pass steps its blocks by G^b (grid._elementwise_power), and
        # the grid starts a block of U rows at lo > 0 from N o H^lo
        # (grid._squared_powers), U_b in the smoke check; made in that
        # order, spoil one
        from omtc import grid

        calls = []

        def spoiled(size):  # the factor of a power of a vector of that size
            calls.append(size)
            return 1 + 1e-6 if len(calls) == call + 1 else 1

        elementwise_power, squared_powers = grid._elementwise_power, grid._squared_powers

        def corrupted_power(g, b):
            return elementwise_power(g, b) * spoiled(len(g))

        def corrupted_powers(g, exponents):  # H^0 = 1 is no power
            factor = spoiled(len(g))
            return squared_powers(g, exponents) * np.where(np.array(exponents)[:, None] > 0, factor, 1)

        monkeypatch.setattr("omtc.grid._elementwise_power", corrupted_power)
        monkeypatch.setattr("omtc.grid._squared_powers", corrupted_powers)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", "rk4"))
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert f"disagree on the {block} E^b smoke test" in capsys.readouterr().err
        assert calls[:2] == [49, 21]  # |P|^2 and |Q0| |P| at N_m = 2, exchange basis
        assert not out.exists()

    @pytest.mark.parametrize("block", ["forward", "adjoint"])
    def test_corrupted_expm_power_fails_smoke_check(self, tmp_path, monkeypatch, capsys, block):
        # with mechanical losses both sectors are stepped densely; the
        # forward power is real and the adjoint one complex; spoil one
        from omtc import dynamics

        power = dynamics._power

        def corrupted(E, b):
            P = power(E, b)
            return P * (1 + 1e-6) if np.isrealobj(P) == (block == "forward") else P

        monkeypatch.setattr("omtc.dynamics._power", corrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "model.gamma_M = 0.05\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert f"disagree on the {block} E^b smoke test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, kernel", [("expm", "dense"), ("rk4", "rk4")])
    def test_spoiled_operand_map_fails_smoke_check(self, tmp_path, monkeypatch, capsys, method,
                                                   kernel):
        # with mechanical losses the stepped form reads the operands
        # a rho(t_k) through a_map; its first stored entry carries the first
        # diagonal coordinate, 2.5e-3 one step after the start, so 1e-3
        # relative moves C[1][1] by about 2.5e-6.  Only the kernel check
        # pairs the operands with the reference.
        from omtc import dynamics

        init = dynamics._SteppedForm.__init__

        def spoiled(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.a_map.data[0] *= 1 + 1e-3

        monkeypatch.setattr("omtc.dynamics._SteppedForm.__init__", spoiled)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", method) + "model.gamma_M = 0.05\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert f"disagree on the {kernel} kernel smoke test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, kernel", [("expm", "dense"), ("rk4", "rk4")])
    @pytest.mark.parametrize("entry", [25, 38])
    def test_spoiled_late_operand_map_entry_fails_smoke_check(self, tmp_path, monkeypatch, capsys,
                                                              method, kernel, entry):
        # these entries of a_map (25 of the 39 in the exchange basis, and
        # the last) read coordinates that one step from the photon start
        # leaves near zero, so doubling one moves C[1][k] and
        # C[b][k] by less than the kernel check's tolerance; the operands of
        # node b, checked against a rho(t_b) of its own state, carry them
        from omtc import dynamics

        init = dynamics._SteppedForm.__init__

        def spoiled(self, *args, **kwargs):
            init(self, *args, **kwargs)
            assert len(self.a_map.data) == 39
            self.a_map.data[entry] *= 2.0

        monkeypatch.setattr("omtc.dynamics._SteppedForm.__init__", spoiled)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", method) + "model.gamma_M = 0.05\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert f"disagree on the {kernel} kernel smoke test" in capsys.readouterr().err
        assert not out.exists()

    def test_spoiled_flux_row_fails_smoke_check(self, tmp_path, monkeypatch, capsys):
        # the last row of the forward block is the flux f into the dropped
        # population p; a 1e-4 relative error moves p by ~5e-7 in one step.
        # Only the dense stepper reads the block, hence mechanical losses.
        # M is spoiled wherever a sector is split, the readout sector or its
        # hull.
        from omtc import dynamics

        split = dynamics._ForwardSector._split

        def spoiled(self, *args):
            split(self, *args)
            self.M.data[self.M.indptr[-2] :] *= 1 + 1e-4  # the block is built from M

        monkeypatch.setattr("omtc.dynamics._ForwardSector._split", spoiled)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "model.gamma_M = 0.05\n")
        out = tmp_path / "never.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert "disagree on the forward dropped-population smoke test" in capsys.readouterr().err
        assert not out.exists()
        # without mechanical losses the D form carries p by the trace and
        # steps no flux row; its set-up trace-row check on M reads it
        cfg.write_text(FAST)
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        assert "does not preserve the trace of the readout sector" in capsys.readouterr().err
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


class TestCommandLine:
    @pytest.mark.parametrize("argv", [[], ["spectra", "--output", "x.csv"]], ids=["none", "unknown"])
    def test_command_required(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "{spectrum,sweep,dressed,correlation}" in capsys.readouterr().err

    def test_help_lists_commands_and_options(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert "{spectrum,sweep,dressed,correlation}" in text
        for flag in ("--config", "--output", "--svg", "--threads", "--dump-correlation",
                     "--load-correlation"):
            assert flag in text


    def test_one_parser_keeps_no_state_between_calls(self, tmp_path):
        # main builds its parser once, and a flag given to one call is no
        # default of the next: the second call writes no plot and no dump
        assert _parser() is _parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        svg, dump = tmp_path / "spec.svg", tmp_path / "grid.bin"
        assert main(["spectrum", "--config", str(cfg), "--output", str(tmp_path / "first.csv"),
                     "--svg", str(svg), "--dump-correlation", str(dump)]) == 0
        svg.unlink()
        dump.unlink()
        assert main(["spectrum", "--config", str(cfg), "--output", str(tmp_path / "second.csv")]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["first.csv", "run.cfg", "second.csv"]
        assert "output.svg" not in (tmp_path / "second.csv").read_text()


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

    @pytest.mark.parametrize(
        "method, version, extra",
        [
            pytest.param("expm", 3, "", id="expm-3"),
            pytest.param("rk4", 4, "", id="rk4-4"),
            pytest.param("rk4", 2, "model.gamma_M = 0.05\n", id="rk4-2"),
        ],
    )
    def test_dump_round_trip_by_form(self, tmp_path, method, version, extra):
        # without mechanical losses expm dumps the D form (version 3) and rk4
        # the spectral form, X with the factors N and H (version 4); with
        # them rk4 steps both passes and dumps the U and X stacks (version
        # 2).  Each reloads to the same CSV, byte for byte, but for the
        # footer's grid.memory_bytes of the forms whose reload leaves its
        # stacks in the dump: the computed spectral grid keeps N, H, M
        # (|R_a| = 21 each), Z0 and G (|P|^2 = 49 each), 16 * 161 B, and the
        # reload N and H, 16 * 2 * 21 B; the stepped grid keeps U and X,
        # 16 * 2 * 601 * 21 B, and the reload nothing
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST.replace("expm", method) + extra)
        dump = tmp_path / "grid.bin"
        direct, reused = tmp_path / "direct.csv", tmp_path / "reused.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(direct),
                     "--dump-correlation", str(dump)]) == 0
        assert int.from_bytes(dump.read_bytes()[8:12], "little") == version
        assert main(["spectrum", "--config", str(cfg), "--output", str(reused),
                     "--load-correlation", str(dump)]) == 0
        if version == 3:
            assert direct.read_bytes() == reused.read_bytes()
        else:
            old, new = direct.read_text().splitlines(), reused.read_text().splitlines()
            assert len(old) == len(new)
            assert [(a, b) for a, b in zip(old, new) if a != b] == [
                {4: ("# grid.memory_bytes = 2576", "# grid.memory_bytes = 672"),
                 2: ("# grid.memory_bytes = 403872", "# grid.memory_bytes = 0")}[version]
            ]

    def test_stderr_reports_sectors(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        out = tmp_path / "out.csv"
        main(["spectrum", "--config", str(cfg), "--output", str(out),
              "--dump-correlation", str(dump)])
        err = capsys.readouterr().err
        # every metadata entry as "key value", in the record's order
        # in the exchange basis: the bright states and the start's dark one
        assert ", forward_sector 49, adjoint_sector 21, propagator factored/separable, " in err
        assert float(err.split("smoke_max_diff ")[1].split(",")[0]) < 1e-8
        # the pure start has rank s = 1, and D is |Q0| s = 3 wide, one
        # column per zero-photon state, N_m + 1 = 3
        assert ", columns 1/3, smoke_max_diff " in err
        # seconds per stage, in pipeline order, after the health values;
        # the D form has no adjoint pass
        stages = err.split(", stage_s ")[1].split(", window_capture ")[0]
        names, times = zip(*(item.split("=") for item in stages.split()))
        assert names == ("model", "setup", "smoke", "forward", "sweep")
        assert all(float(t) >= 0 for t in times)
        main(["spectrum", "--config", str(cfg), "--output", str(out),
              "--load-correlation", str(dump)])
        err = capsys.readouterr().err
        assert ("forward_sector None, adjoint_sector None, propagator None, columns None, "
                "smoke_max_diff None, stage_s None, window_capture ") in err
        text = out.read_text()
        assert "sector" not in text and "propagator" not in text and "smoke" not in text
        assert "columns" not in text and "stage" not in text
        cfg.write_text(FAST.replace("expm", "rk4") + "model.gamma_M = 0.05\n")
        main(["correlation", "--config", str(cfg), "--dump-correlation", str(dump)])
        err = capsys.readouterr().err
        assert err.startswith("correlation: n_t ")
        assert "propagator rk4/rk4, columns None/None, smoke_max_diff " in err
        cfg.write_text(FAST + "model.gamma_M = 0.05\n")
        main(["spectrum", "--config", str(cfg), "--output", str(out)])
        err = capsys.readouterr().err
        assert "propagator dense/dense, columns None/None, smoke_max_diff " in err
        names = err.split(", stage_s ")[1].split(", window_capture ")[0].split()
        assert [name.split("=")[0] for name in names] == ["model", "setup", "smoke", "forward",
                                                          "adjoint", "sweep"]

    def test_stderr_reports_window_capture_and_clips(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out.csv"
        main(["spectrum", "--config", str(cfg), "--output", str(out)])
        err = capsys.readouterr().err
        assert "window_capture 0." in err and "clipped_points " in err
        text = out.read_text()
        assert "capture" not in text and "clipped" not in text

    def test_correlation_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump = tmp_path / "grid.bin"
        assert main(
            ["correlation", "--config", str(cfg), "--dump-correlation", str(dump)]
        ) == 0
        assert dump.stat().st_size > 48

    def test_correlation_stops_at_the_grid(self, tmp_path, monkeypatch, capsys):
        # no sweep and no peaks: the dump is the one a spectrum run writes,
        # and a reload of it is dumped again unchanged
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        spectrum_dump, dump, again = tmp_path / "spectrum.bin", tmp_path / "grid.bin", tmp_path / "again.bin"
        assert main(["spectrum", "--config", str(cfg), "--output", str(tmp_path / "out.csv"),
                     "--dump-correlation", str(spectrum_dump)]) == 0
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("the correlation command swept the filter")

        monkeypatch.setattr("omtc.spectrum.filtered_spectrum", never)
        monkeypatch.setattr("omtc.spectrum.find_peaks", never)
        assert main(["correlation", "--config", str(cfg), "--dump-correlation", str(dump)]) == 0
        assert dump.read_bytes() == spectrum_dump.read_bytes()
        err = capsys.readouterr().err
        assert err.startswith("correlation: n_t ") and ", propagator factored/separable, " in err
        assert "sweep=" not in err and "window_capture" not in err and "clipped_points" not in err
        assert main(["correlation", "--config", str(cfg), "--load-correlation", str(dump),
                     "--dump-correlation", str(again)]) == 0
        assert again.read_bytes() == dump.read_bytes()
        assert ", propagator None, " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "offset, value",
        [(24, 0.0), (24, float("nan")), (32, float("nan")), (32, float("inf")), (32, -1.0)],
        ids=["dt=0", "dt=nan", "kappa=nan", "kappa=inf", "kappa=-1"],
    )
    def test_bad_header_scalars_rejected_on_load(self, tmp_path, capsys, offset, value):
        # the header's dt (bytes 24-31) and kappa (bytes 32-39) scale every
        # sum of the sweep: a zero or non-finite dt, a non-finite or
        # negative kappa is a corrupt dump
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST)
        dump, out = tmp_path / "grid.bin", tmp_path / "never.csv"
        assert main(["correlation", "--config", str(cfg), "--dump-correlation", str(dump)]) == 0
        data = bytearray(dump.read_bytes())
        data[offset : offset + 8] = struct.pack("<d", value)
        dump.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["spectrum", "--config", str(cfg), "--output", str(out),
                     "--load-correlation", str(dump)]) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("values", ["0.5, 0.5000001", "0.4, 0, 0.4"])
    def test_values_with_one_file_name_rejected(self, tmp_path, monkeypatch, capsys, values):
        # the per-value files are named with %g: two values that print
        # alike would overwrite one file, so the sweep exits before its
        # first run
        def never(*args, **kwargs):
            raise AssertionError("the propagation ran")

        monkeypatch.setattr("omtc.spectrum.two_time_correlation", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + f"sweep.parameter = J\nsweep.values = {values}\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 2
        first, second = values.split(", ")[0], values.split(", ")[-1]
        assert f"sweep.values {float(first)!r} and {float(second)!r} both write " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_step_size_checked_for_every_value_before_the_first_run(self, tmp_path, monkeypatch, capsys):
        # J = 100 needs dt <= 0.001: the sweep exits before J = 0 runs
        monkeypatch.setattr("omtc.spectrum.two_time_correlation", _never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "sweep.parameter = J\nsweep.values = 0, 100\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "sweep.csv")]) == 2
        assert capsys.readouterr().err == "config error: dt=0.05 too coarse for couplings (need dt <= 0.001)\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_failed_second_run_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        # the first value's CSV is written before the second run fails; the
        # failure takes it back, and no summary, plot or temporary file stays
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("trace drift")
            return two_time_correlation(*args, **kwargs)

        monkeypatch.setattr("omtc.spectrum.two_time_correlation", second_fails)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "sweep.parameter = J\nsweep.values = 0, 0.4\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "sweep.csv"),
                     "--svg", str(tmp_path / "sweep.svg")]) == 3
        assert capsys.readouterr().err.endswith("\nnumerical failure: trace drift\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "flag, key",
        [("--dump-correlation", "output.correlation_dump"),
         ("--load-correlation", "output.load_correlation")],
    )
    def test_dump_keys_refused(self, tmp_path, monkeypatch, capsys, flag, key):
        # a dump holds one value's grid: a sweep would write none, or load
        # the first value's grid for every value
        monkeypatch.setattr("omtc.spectrum.two_time_correlation", _never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "sweep.parameter = J\nsweep.values = 0, 0.5\n")
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "sweep.csv"),
                     flag, str(tmp_path / "grid.bin")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: sweep takes no {key}:")
        assert list(tmp_path.iterdir()) == [cfg]

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


class TestWriteSpectrumCsv:
    def test_rows_match_per_value_format(self, tmp_path):
        rng = np.random.default_rng(7)
        columns = rng.normal(size=(3, 50)) * 10.0 ** rng.integers(-300, 300, size=(3, 50))
        columns[:, :3] = [[-0.0, 5e-324, 1e300]] * 3
        result = SimpleNamespace(
            deltas=columns[0], intensity=columns[1], integrated_counts=columns[2]
        )
        path = tmp_path / "out.csv"
        write_spectrum_csv(path, result, ["footer"])
        expected = ["# delta,intensity,integrated_counts"] + [
            f"{d:.11e},{n:.11e},{c:.11e}" for d, n, c in zip(*columns)
        ] + ["# --- run metadata ---", "# footer"]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
