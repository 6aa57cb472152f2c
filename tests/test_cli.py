import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmfem.cli import ConfigError, main, parse_config
from helmfem.sparse import PcgConfig

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
        assert spec.pcg == PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-12, max_iter=0)
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

    def test_robin_positive_real_part_rejected(self):
        bad = ROBIN_BAR.replace("a = -1 + 0.3333333333333333i", "a = 1")
        with pytest.raises(ConfigError, match="negative real part"):
            parse_config(bad)

    def test_unknown_key_reports_line(self):
        bad = MINIMAL + "\n[solver]\nrel_tol = 1e-8\nrellto = 1e-8\n"
        with pytest.raises(ConfigError, match=r"rellto.*line \d+"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")

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
        assert study.n_list == [9, 17, 33]
        assert study.tol_list == [1e-4, 1e-8]
        assert complex(study.exact(0.0, 0.0)) == pytest.approx(1.0)


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
        text = """
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

[study]
omega_list = 1, 8
cells_per_wavelength = 4
"""
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

    def test_exit_code_admissibility(self, tmp_path):
        text = MINIMAL.replace("l = 1 + 1i", "l = 1").replace("m = 2 + 2i", "m = -1")
        cfg = self.write(tmp_path, text)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o",
                        "--theta", "off"]) == 3

    def test_exit_code_solver_failure(self, tmp_path):
        text = MINIMAL + "\n[solver]\nmax_iter = 1\n"
        cfg = self.write(tmp_path, text)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 4

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
        cfg = self.write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out,
                        "--mode", "direct", "--tol", "1e-8", "--theta", "0.1"]) == 0
        meta = (out / "meta.txt").read_text()
        assert "mode = direct" in meta
        assert "theta_applied = 0.1" in meta

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "0", "rel_tol"),
        ("--tol", "2", "rel_tol"),
        ("--theta", "foo", "foo"),
    ])
    def test_bad_override_is_config_error(self, tmp_path, capsys, flag, value, message):
        cfg = self.write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", cfg, "--out", out, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    @pytest.mark.parametrize("line, bad", [
        ("f = exp(x + y)", "f = exp(1000*x)"),
        ("l = 1 + 1i", "l = exp(1000) + 1i"),
    ], ids=["f", "l"])
    def test_non_finite_data_is_config_error(self, tmp_path, capsys, command, line, bad):
        cfg = self.write(tmp_path, MINIMAL.replace(line, bad))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_jobs_flag_keeps_order(self, tmp_path):
        text = """
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

[study]
omega_list = 1, 4, 8
cells_per_wavelength = 4
"""
        cfg = self.write(tmp_path, text)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run_cli(["omega-sweep", "--config", cfg, "--out", seq]) == 0
        assert run_cli(["omega-sweep", "--config", cfg, "--out", par, "--jobs", "3"]) == 0
        assert (seq / "omega_sweep.csv").read_bytes() == (par / "omega_sweep.csv").read_bytes()


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
