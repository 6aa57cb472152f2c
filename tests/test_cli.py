import dataclasses
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helmfem import cli, verify
from helmfem.assemble import BlockSystem
from helmfem.cli import ConfigError, main, parse_config
from helmfem.grid import build_grid
from helmfem.solve import SolutionField, solve
from helmfem.sparse import PcgConfig
from helmfem.verify import ConvergenceStudy, RotationSweepRow, SweepCell

REPO = Path(__file__).resolve().parents[1]

MINIMAL = """
[domain]
nx = 9

[coefficients]
kind = constant
l = 1 + 1i
m = 2 + 2i

[boundary]
kind = dirichlet
f = exp(x + y)
"""

ACOUSTIC = """
[domain]
nx = 9

[coefficients]
kind = acoustic
rho = 2 + 2i
kappa = 1 - 3i
omega = 1

[boundary]
kind = dirichlet
f = 0
"""

ROBIN_BAR = """
[domain]
nx = 8
ny = 8

[coefficients]
kind = bar
width = 0.25
l_bar = -0.5 + 0.0027i
m_bar = 63.9923 + 0.7039i
l_bg = 1 + 0.1i
m_bg = 63.9923 + 0.7039i

[boundary]
kind = robin
a = -1 + 0.3333333333333333i
g = 3.333i
"""


class TestParseConfig:
    def test_minimal_dirichlet_defaults(self):
        spec, study = parse_config(MINIMAL)
        assert spec.nx == spec.ny == 9
        assert spec.domain == (0.0, 1.0, 0.0, 1.0)
        assert spec.pcg == PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-12)
        assert spec.mode == "implicit"
        assert spec.rotation == "auto"
        assert spec.bc.kind == "dirichlet"
        val = spec.bc.f(0.0, 0.0)
        assert complex(val) == pytest.approx(1.0)

    def test_robin_benchmark_config(self):
        spec, _ = parse_config(ROBIN_BAR)
        assert spec.bc.kind == "robin"
        assert spec.bc.a == pytest.approx(-1 + 1j / 3)
        assert complex(spec.bc.g(0.0, 0.0)) == pytest.approx(3.333j)
        grid = spec.build_grid()
        fld = spec.build_field(grid)
        assert set(np.unique(fld.lxx)) == {-0.5 + 0.0027j, 1 + 0.1j}

    def test_imaginary_literals(self):
        spec, _ = parse_config(ROBIN_BAR.replace("g = 3.333i", "g = .5i + 1 + .25i - 2.i"))
        assert complex(spec.bc.g(0.0, 0.0)) == pytest.approx(1 - 1.25j)

    def test_robin_positive_real_part_rejected(self, tmp_path, capsys):
        # a = 0 is no Robin condition: a config error
        zero = ROBIN_BAR.replace("a = -1 + 0.3333333333333333i", "a = 0")
        with pytest.raises(ConfigError, match="nonzero"):
            parse_config(zero)
        (tmp_path / "zero.ini").write_text(zero)
        assert run_cli(["solve", "--config", tmp_path / "zero.ini", "--out", tmp_path / "o"]) == 2
        # Re(a) > 0 puts c = -i/a in the lower half-plane: inadmissible unrotated
        positive = (ROBIN_BAR.replace("a = -1 + 0.3333333333333333i", "a = 1")
                    + "\n[solver]\ntheta = off\n")
        (tmp_path / "positive.ini").write_text(positive)
        capsys.readouterr()
        assert run_cli(["solve", "--config", tmp_path / "positive.ini",
                        "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith("admissibility error:")

    def test_unknown_key_reports_line(self):
        bad = MINIMAL + "\n[solver]\nrel_tol = 1e-8\nrellto = 1e-8\n"
        with pytest.raises(ConfigError, match=r"rellto.*line \d+"):
            parse_config(bad)

    def test_inner_rel_tol_is_not_a_key(self):
        # the nested A1 tolerance is derived from rel_tol
        with pytest.raises(ConfigError, match=r"unknown key 'inner_rel_tol'.*line \d+"):
            parse_config(MINIMAL + "\n[solver]\ninner_rel_tol = 1e-12\n")

    def test_max_iter_is_not_a_key(self, tmp_path):
        # PCG stops after PcgConfig.iter_limit iterations; no setting changes it
        text = MINIMAL + "\n[solver]\nmax_iter = 100\n"
        with pytest.raises(ConfigError, match=r"unknown key 'max_iter'.*line \d+"):
            parse_config(text)
        cfg = tmp_path / "problem.ini"
        cfg.write_text(text)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("text, key", [
        (MINIMAL.replace("m = 2 + 2i", "m = 2 + 2i\nl1 = 5 + 5i"), "l1"),
        (MINIMAL.replace("m = 2 + 2i", "m = 2 + 2i\naxis = q"), "axis"),
        (MINIMAL.replace("kind = constant\n", "").replace("m = 2 + 2i", "m = 2 + 2i\nseed = 3"),
         "seed"),
        (ACOUSTIC.replace("omega = 1", "omega = 1\nl = 1 + 1i"), "l"),
        (MINIMAL.replace("f = exp(x + y)", "f = exp(x + y)\ng = 7"), "g"),
        (MINIMAL.replace("f = exp(x + y)", "f = exp(x + y)\na = 3"), "a"),
        (MINIMAL.replace("kind = dirichlet\n", "") + "a = 3\n", "a"),
        (ROBIN_BAR.replace("g = 3.333i", "g = 3.333i\nf = 1"), "f"),
    ], ids=["constant-l1", "constant-axis", "default-constant-seed", "acoustic-l",
            "dirichlet-g", "dirichlet-a", "default-dirichlet-a", "robin-f"])
    def test_key_not_read_by_kind_rejected(self, tmp_path, text, key):
        line = 1 + [ln.split("=")[0].strip() for ln in text.splitlines()].index(key)
        with pytest.raises(ConfigError, match=rf"'{key}'.*not read by kind.*line {line}\)"):
            parse_config(text)
        cfg = tmp_path / "problem.ini"
        cfg.write_text(text)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")

    def test_default_section_rejected(self):
        # configparser would copy [DEFAULT] keys into every other section
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_config("[DEFAULT]\nrel_tol = 1e-6\n" + MINIMAL)

    def test_structural_error_has_line_number(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[domain]\nnx 9\n")

    def test_expression_typo_rejected(self):
        bad = MINIMAL.replace("exp(x + y)", "exp(x + z)")
        with pytest.raises((ConfigError, Exception), match="unknown name"):
            parse_config(bad)

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="coefficients"):
            parse_config("[domain]\nnx = 5\n")

    def test_study_lists(self):
        text = MINIMAL + "\n[study]\nn_list = 9, 17, 33\ntol_list = 1e-4, 1e-8\nexact = exp(x+y)\n"
        _, study = parse_config(text)
        assert study["n_list"] == [9, 17, 33]
        assert study["tol_list"] == [1e-4, 1e-8]
        assert complex(study["exact"](0.0, 0.0)) == pytest.approx(1.0)


def run_cli(args):
    return main([str(a) for a in args])


class TestRun:
    def write(self, tmp_path, text, name="problem.ini"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_solve_writes_artifacts(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        rows = (out / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,u_re,u_im"
        assert len(rows) == 1 + 9 * 9
        meta = (out / "meta.txt").read_text()
        assert "theta_applied" in meta and "block_residual_rel" in meta
        assert (out / "residuals.csv").exists()

    def test_solve_deterministic_output(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["solve", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["solve", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    def test_convergence_command(self, tmp_path):
        text = MINIMAL + "\n[study]\nn_list = 9, 17, 33\nexact = exp(x + y)\n"
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["convergence", "--config", cfg, "--out", out]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header, three rows, slope line
        assert lines[-1].startswith("# slope = ")
        slope = float(lines[-1].split("=")[1])
        assert 1.5 < slope < 2.5

    def test_spectrum_command(self, tmp_path):
        text = """
[domain]
nx = 8

[coefficients]
kind = random
lo = 0
hi = 10
seed = 2

[boundary]
kind = dirichlet
f = 0
"""
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 0
        assert (out / "spectrum_raw.csv").exists()
        assert (out / "spectrum_preconditioned.csv").exists()
        pre = np.loadtxt(out / "spectrum_preconditioned.csv", delimiter=",", skiprows=1)
        assert pre[:, 1].min() >= 1.0 - 1e-8

    def test_pcg_sweep_command(self, tmp_path):
        text = MINIMAL + "\n[study]\nn_list = 8, 12\ntol_list = 1e-6, 1e-10\n"
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["pcg-sweep", "--config", cfg, "--out", out]) == 0
        rows = (out / "pcg_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert (out / "pcg_flatness.txt").exists()

    def test_rotation_sweep_command(self, tmp_path):
        text = MINIMAL.replace("l = 1 + 1i", "l = 3 + 2i").replace("m = 2 + 2i", "m = 1 + 4i")
        text += "\n[study]\ntheta_list = -0.3, 0, 0.5, 2.5\n"
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["rotation-sweep", "--config", cfg, "--out", out]) == 0
        rows = (out / "rotation_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert rows[-1].split(",")[1] == "0"  # theta = 2.5 flagged inadmissible

    def test_omega_sweep_command(self, tmp_path):
        text = ACOUSTIC + "\n[study]\nomega_list = 1, 8\ncells_per_wavelength = 4\n"
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["omega-sweep", "--config", cfg, "--out", out]) == 0
        rows = (out / "omega_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2

    def test_exit_code_config_error(self, tmp_path):
        cfg = self.write(tmp_path, "[domain]\nnx = 9\n")
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert run_cli(["solve", "--config", tmp_path / "nope.ini",
                        "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    def test_exit_code_admissibility(self, tmp_path, command):
        text = (MINIMAL.replace("l = 1 + 1i", "l = 1").replace("m = 2 + 2i", "m = -1")
                + "\n[solver]\ntheta = off\n")
        cfg = self.write(tmp_path, text)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 3

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, out):
        cfg = self.write(tmp_path, MINIMAL)
        (tmp_path / "afile").write_text("")
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / out]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, text", [
        ("solve", MINIMAL.replace("nx = 9", "nx = 1")),
        ("spectrum", MINIMAL.replace("nx = 9", "nx = 1")),
        ("spectrum", MINIMAL.replace("nx = 9", "nx = 40")),  # 1 444 unknowns, over 900
        ("convergence", MINIMAL + "\n[study]\nn_list = 9, 17\nexact = exp(x + y)\n"),
        ("omega-sweep", ACOUSTIC + "\n[study]\nomega_list = 1, -2\n"),
        ("solve", MINIMAL + "\n[solver]\ntheta = nan\n"),
        ("solve", MINIMAL + "\n[solver]\ntheta = inf\n"),
        ("rotation-sweep", MINIMAL + "\n[study]\ntheta_list = 0, nan\n"),
        ("omega-sweep", ACOUSTIC + "\n[study]\nomega_list = 1, 8\ncells_per_wavelength = 0\n"),
        ("omega-sweep", ACOUSTIC + "\n[study]\nomega_list = 1, 8\ncells_per_wavelength = -5\n"),
    ], ids=["solve-nx1", "spectrum-nx1", "spectrum-nx40", "convergence-two-grids",
            "omega-sweep-negative", "solve-theta-nan", "solve-theta-inf",
            "rotation-sweep-theta-nan", "omega-sweep-cells-0", "omega-sweep-cells-negative"])
    def test_bad_input_is_config_error(self, tmp_path, capsys, command, text):
        cfg = self.write(tmp_path, text)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, text", [
        ("pcg-sweep", MINIMAL + "\n[solver]\ntheta = nan\n"
                      "\n[study]\nn_list = 5, 9\ntol_list = 1e-4, 1e-8\n"),
        ("pcg-sweep", MINIMAL + "\n[study]\nn_list = 5, 9\ntol_list = 1e-4, 1e-8, 0\n"),
        ("omega-sweep", ACOUSTIC + "\n[study]\nomega_list = 1, 2, -4\n"),
        ("omega-sweep", ACOUSTIC + "\n[study]\nomega_list = 1, inf\n"),
        ("rotation-sweep", MINIMAL + "\n[study]\ntheta_list = 0, nan\n"),
    ], ids=["pcg-sweep-theta-nan", "pcg-sweep-tol-0", "omega-sweep-negative-last",
            "omega-sweep-inf-last", "rotation-sweep-theta-nan"])
    def test_study_checks_cells_before_first_solve(self, tmp_path, capsys, monkeypatch,
                                                    command, text):
        calls = []
        real = verify.solve
        monkeypatch.setattr(verify, "solve", lambda spec: calls.append(spec) or real(spec))
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "failures.txt").exists()
        assert calls == []

    def test_pcg_sweep_single_node_grid_fails_its_cell(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL + "\n[study]\nn_list = 1, 9\ntol_list = 1e-8\n")
        out = tmp_path / "out"
        assert run_cli(["pcg-sweep", "--config", cfg, "--out", out]) == 4
        assert "[setup]" in (out / "failures.txt").read_text()
        rows = (out / "pcg_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2
        assert rows[1].startswith("1,") and rows[1].split(",")[2] == ""

    def pcg_ini(self, old, new):
        text = (REPO / "configs" / "paper" / "pcg.ini").read_text()
        assert old in text
        return text.replace(old, new)

    def test_pcg_sweep_solves_with_configured_boundary(self, tmp_path):
        text = self.pcg_ini("kind = dirichlet\nf = 1", "kind = neumann\ng = 1").replace(
            "n_list = 20, 40, 80\ntol_list = 1e-4, 1e-8, 1e-12",
            "n_list = 20, 40\ntol_list = 1e-8")
        out = tmp_path / "out"
        assert run_cli(["pcg-sweep", "--config", self.write(tmp_path, text), "--out", out]) == 0
        spec, _ = parse_config(text)
        expected = [solve(dataclasses.replace(spec, nx=n, ny=n, pcg=PcgConfig(rel_tol=1e-8)))
                    .info.iters_outer for n in (20, 40)]
        rows = (out / "pcg_sweep.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_pcg_sweep_non_finite_boundary_data_fails_each_cell(self, tmp_path):
        text = self.pcg_ini("f = 1", "f = exp(1000*x)")
        out = tmp_path / "out"
        assert run_cli(["pcg-sweep", "--config", self.write(tmp_path, text), "--out", out]) == 4
        failures = (out / "failures.txt").read_text().strip().splitlines()
        assert len(failures) == 9 and all("[setup]" in line for line in failures)

    def test_exit_code_solver_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(PcgConfig, "iter_limit", lambda self, n: 1)
        cfg = self.write(tmp_path, MINIMAL)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 4

    def test_exit_code_residual_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(BlockSystem, "block_residual", lambda self, a_re, a_im: 1.0)
        cfg = self.write(tmp_path, MINIMAL)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.startswith("solver error: [residual]")

    def test_tight_rel_tol_solves(self, tmp_path):
        # the nested tolerance follows rel_tol down to 1e-15
        cfg = self.write(tmp_path, MINIMAL + "\n[solver]\nrel_tol = 1e-13\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        assert "rel_tol = 1e-13" in (out / "meta.txt").read_text()

    def test_sweep_failures_write_manifest_and_partial_results(self, tmp_path):
        text = (MINIMAL.replace("l = 1 + 1i", "l = 1").replace("m = 2 + 2i", "m = -1")
                + "\n[solver]\ntheta = off\n[study]\nn_list = 6, 8\ntol_list = 1e-8\n")
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["pcg-sweep", "--config", cfg, "--out", out]) == 4
        assert (out / "failures.txt").exists()
        rows = (out / "pcg_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2  # table still written, cells carry errors
        assert "admissib" in rows[1]

    def test_overrides(self, tmp_path):
        text = MINIMAL + "\n[solver]\nmode = direct\nrel_tol = 1e-8\ntheta = 0.1\n"
        cfg = self.write(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        meta = (out / "meta.txt").read_text()
        assert "mode = direct" in meta
        assert "theta_applied = 0.1" in meta
        assert "rel_tol = 1e-08" in meta

    @pytest.mark.parametrize("line, message", [
        ("rel_tol = 0", "rel_tol"),
        ("rel_tol = 2", "rel_tol"),
        ("theta = foo", "foo"),
        ("mode = fast", "mode"),
    ], ids=["rel_tol-0", "rel_tol-2", "theta-foo", "mode-fast"])
    def test_bad_override_is_config_error(self, tmp_path, capsys, line, message):
        cfg = self.write(tmp_path, MINIMAL + f"\n[solver]\n{line}\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (out / "solution.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    @pytest.mark.parametrize("line, bad", [
        ("f = exp(x + y)", "f = exp(1000*x)"),
        ("l = 1 + 1i", "l = exp(1000) + 1i"),
    ], ids=["f", "l"])
    def test_non_finite_data_is_config_error(self, tmp_path, capsys, command, line, bad):
        cfg = self.write(tmp_path, MINIMAL.replace(line, bad))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_rotation_sweep_validates_before_oracle(self, tmp_path, monkeypatch):
        # bad boundary data fails the first solve before the fine-grid
        # oracle ever runs on it
        calls = []
        oracle = verify.galerkin_oracle
        monkeypatch.setattr(verify, "galerkin_oracle",
                            lambda *args: calls.append(args) or oracle(*args))
        text = (MINIMAL.replace("f = exp(x + y)", "f = exp(1000*x)")
                + "\n[study]\ntheta_list = 0, 0.5\n")
        cfg = self.write(tmp_path, text)
        assert run_cli(["rotation-sweep", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert calls == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg = self.write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out, "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_keeps_order(self, tmp_path):
        text = ACOUSTIC + "\n[study]\nomega_list = 1, 4, 8\ncells_per_wavelength = 4\n"
        cfg = self.write(tmp_path, text)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run_cli(["omega-sweep", "--config", cfg, "--out", seq]) == 0
        assert run_cli(["omega-sweep", "--config", cfg, "--out", par, "--jobs", "3"]) == 0
        assert (seq / "omega_sweep.csv").read_bytes() == (par / "omega_sweep.csv").read_bytes()


class TestArtifactFormat:
    """Byte-exact output of every artifact writer on hand-built input.

    One rule formats every cell: a float at 17 significant digits, None
    as an empty cell, anything else through str."""

    def written(self, tmp_path, writer, data):
        path = tmp_path / "artifact"
        writer(data, path)
        return path.read_text()

    def field(self, info=None, theta=0.0):
        grid = build_grid((0, 1, 0, 0.5), 2, 2)
        return SolutionField(grid=grid, u=np.array([1 + 2j, 0.1 - 0.5j, 1 / 3, -2j]),
                             free_nodes=np.arange(4), theta_applied=theta, info=info)

    def test_solution_csv(self, tmp_path):
        assert self.written(tmp_path, cli.write_solution_csv, self.field()) == (
            "x,y,u_re,u_im\n"
            "0,0,1,2\n"
            "1,0,0.10000000000000001,-0.5\n"
            "0,0.5,0.33333333333333331,0\n"
            "1,0.5,-0,-2\n")

    def test_solve_meta(self, tmp_path):
        info = SimpleNamespace(
            bc_kind="robin", mode="direct", n_free=4, iters_rhs=0, iters_outer=3,
            iters_imag=0, inner_iterations=0, residual_rel=1e-11 / 3, rel_tol=1e-10,
            wall_time=0.25)
        assert self.written(tmp_path, cli.write_meta, self.field(info, theta=0.1)) == (
            "nx = 2\nny = 2\nhx = 1\nhy = 0.5\n"
            "theta_applied = 0.10000000000000001\n"
            "bc_kind = robin\nmode = direct\nn_free = 4\n"
            "iters_rhs = 0\niters_outer = 3\niters_imag = 0\ninner_iterations = 0\n"
            "block_residual_rel = 3.3333333333333331e-12\n"
            "rel_tol = 1e-10\nwall_time_s = 0.250000\n")

    def test_residual_csv(self, tmp_path):
        assert self.written(tmp_path, cli.write_residual_csv, np.array([0.5, 1e-3, 1 / 3])) == (
            "iteration,relative_residual\n1,0.5\n2,0.001\n3,0.33333333333333331\n")

    def test_spectrum_csv(self, tmp_path):
        assert self.written(tmp_path, cli.write_spectrum_csv, np.array([1.0, 2.5, 1 / 3])) == (
            "index,eigenvalue\n0,1\n1,2.5\n2,0.33333333333333331\n")

    def test_convergence_csv(self, tmp_path):
        study = ConvergenceStudy(rows=[
            (5, 0.25, SimpleNamespace(v2=0.1)),
            (9, 0.125, SimpleNamespace(v2=0.026)),
            (17, 0.0625, SimpleNamespace(v2=0.0066)),
        ], slope=1.96)
        assert self.written(tmp_path, cli.write_convergence_csv, study) == (
            "n,h,v2_error,slope_so_far\n"
            "5,0.25,0.10000000000000001,\n"
            "9,0.125,0.025999999999999999,1.9434164716336328\n"
            "17,0.0625,0.0066,1.9606950826518175\n"
            "# slope = 1.96\n")

    def test_convergence_csv_zero_error(self, tmp_path):
        study = ConvergenceStudy(rows=[
            (5, 0.25, SimpleNamespace(v2=0.1)), (9, 0.125, SimpleNamespace(v2=0.0)),
        ], slope=None)
        assert self.written(tmp_path, cli.write_convergence_csv, study) == (
            "n,h,v2_error,slope_so_far\n"
            "5,0.25,0.10000000000000001,\n"
            "9,0.125,0,undefined\n"
            "# slope = undefined\n")

    def test_pcg_sweep_csv(self, tmp_path):
        cells = [SweepCell((8, 1e-4), 5),
                 SweepCell((12, 1e-8), None, "[admissibility] not admissible")]
        assert self.written(tmp_path, cli.write_pcg_sweep_csv, cells) == (
            "n,tol,outer_iterations,error\n"
            "8,0.0001,5,\n"
            "12,1e-08,,[admissibility] not admissible\n")

    def test_rotation_sweep_csv(self, tmp_path):
        rows = [RotationSweepRow(-0.5, True, 1e-3, 2e-9),
                RotationSweepRow(0.0, True, 0.1, 0.0),
                RotationSweepRow(2.5, False)]
        assert self.written(tmp_path, cli.write_rotation_sweep_csv, rows) == (
            "theta,admissible,error_vs_oracle,max_diff_vs_base\n"
            "-0.5,1,0.001,2.0000000000000001e-09\n"
            "0,1,0.10000000000000001,0\n"
            "2.5,0,,\n")

    def test_omega_sweep_csv(self, tmp_path):
        rows = [SweepCell((1.0, 9), (SimpleNamespace(v2=0.1), 7)),
                SweepCell((30.0, 27), None, "[step 4 (Schur solve)] no convergence")]
        assert self.written(tmp_path, cli.write_omega_sweep_csv, rows) == (
            "omega,n,v2_error,outer_iterations,error\n"
            "1,9,0.10000000000000001,7,\n"
            "30,27,,,[step 4 (Schur solve)] no convergence\n")

    def test_command_meta(self, tmp_path):
        cfg = tmp_path / "problem.ini"
        cfg.write_text(MINIMAL.replace("nx = 9", "nx = 5"))
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 0
        lines = (out / "meta.txt").read_text().splitlines()
        assert lines.pop(3).startswith("wall_time_s = ")
        assert lines == ["command = spectrum", f"config = {cfg}", "jobs = 1", "exit_code = 0"]


class TestShippedConfigs:
    """The configs shipped for the reference figures must at least parse
    and declare runnable studies; the heavyweight ones are exercised at
    reduced size elsewhere."""

    @pytest.mark.parametrize("name", [
        "dirichlet_layered.ini", "robin_bar.ini", "evals.ini", "pcg.ini",
        "rot_pic.ini", "acoust.ini", "table1.ini",
    ])
    def test_parses(self, name):
        spec, study = parse_config((REPO / "configs" / "paper" / name).read_text())
        assert spec.bc is not None

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "helmfem.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout
        # the config is the only source of solver settings
        assert not any(flag in proc.stdout for flag in ("--mode", "--tol", "--theta"))
