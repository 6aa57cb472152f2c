import importlib
from pathlib import Path

import numpy as np
import pytest

from helmfem import (
    AcousticParams, CoefficientField, DirichletBC, NeumannBC, ProblemSpec,
    RobinBC, SolutionField, assemble_system, build_grid, constitutive_spectrum,
    convergence_study, galerkin_oracle, omega_sweep, pcg_iteration_sweep, rotation_sweep,
    schur_spectrum, solve, v_norm_error,
)
from helmfem import Multigrid, verify
from helmfem.cli import parse_config

PCG_INI = Path(__file__).resolve().parents[1] / "configs" / "paper" / "pcg.ini"
ROT_PIC_INI = PCG_INI.with_name("rot_pic.ini")


def count_setup_work(monkeypatch):
    """Grid sizes of the assemblies that setup runs, and one entry per
    Multigrid built, from here on."""
    solve_mod = importlib.import_module("helmfem.solve")   # the package shadows it
    assembled, built = [], []
    assemble, init = solve_mod.assemble_system, Multigrid.__init__
    monkeypatch.setattr(solve_mod, "assemble_system",
                        lambda grid, *args: assembled.append(grid.nx) or assemble(grid, *args))
    monkeypatch.setattr(Multigrid, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    return assembled, built
UNIT = (0.0, 1.0, 0.0, 1.0)

MANUFACTURED = dict(
    coeff=lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j),
    bc=DirichletBC(f=lambda x, y: np.exp(x + y) + 0j),
)
EXACT = lambda x, y: np.exp(x + y) + 0j
EXACT_GRAD = lambda x, y: (np.exp(x + y), np.exp(x + y))


class TestVNorm:
    def test_field_against_itself_is_zero(self):
        sol = solve(ProblemSpec(nx=9, ny=9, **MANUFACTURED))
        rep = v_norm_error(
            sol,
            lambda x, y: sol.evaluate(np.column_stack([np.ravel(x), np.ravel(y)])).reshape(np.shape(x)),
            lambda x, y: _grad_of(sol, x, y),
        )
        assert rep.v2 < 1e-24

    def test_zero_field_closed_form(self):
        # V^2 of e^(x+y) on the unit square: int 3 e^(2x+2y) = 3 (e^2-1)^2 / 4
        g = build_grid(UNIT, 17, 17)
        zero = SolutionField(grid=g, u=np.zeros(g.n_nodes, dtype=complex),
                             free_nodes=np.arange(g.n_nodes))
        rep = v_norm_error(zero, EXACT, EXACT_GRAD)
        closed = 3.0 * (np.e ** 2 - 1.0) ** 2 / 4.0
        assert rep.v2 == pytest.approx(closed, rel=1e-6)

    def test_decomposition_identity(self):
        sol = solve(ProblemSpec(nx=9, ny=9, **MANUFACTURED))
        rep = v_norm_error(sol, EXACT, EXACT_GRAD)
        assert rep.v2 == pytest.approx(rep.h1_re ** 2 + rep.h1_im ** 2, abs=1e-12)

    def test_fd_gradient_fallback(self):
        sol = solve(ProblemSpec(nx=9, ny=9, **MANUFACTURED))
        with_grad = v_norm_error(sol, EXACT, EXACT_GRAD)
        without = v_norm_error(sol, EXACT)
        assert without.v2 == pytest.approx(with_grad.v2, rel=1e-4)

    def test_monotone_decrease(self):
        v2s = [v_norm_error(solve(ProblemSpec(nx=n, ny=n, **MANUFACTURED)),
                            EXACT, EXACT_GRAD).v2 for n in (9, 17, 33)]
        assert v2s[0] > v2s[1] > v2s[2]


def _grad_of(sol, x, y):
    pts = np.column_stack([np.ravel(x), np.ravel(y)])
    g = sol.gradient(pts)
    return g[:, 0].reshape(np.shape(x)), g[:, 1].reshape(np.shape(x))


class TestGalerkinOracle:
    def test_zero_dirichlet(self):
        g = build_grid(UNIT, 5, 5)
        f = CoefficientField.constant(g, 1 + 1j, 1 + 1j)
        np.testing.assert_array_equal(galerkin_oracle(g, f, DirichletBC(f=0.0)), 0.0)

    def test_single_unknown_by_hand(self):
        # 3x3 grid with h = 1, L = M = i, f = 1: the complex scale cancels
        # and the center value is (8/3 - 5/9) / (8/3 + 4/9) = 19/28
        g = build_grid((0, 2, 0, 2), 3, 3)
        f = CoefficientField.constant(g, 1j, 1j)
        u = galerkin_oracle(g, f, DirichletBC(f=1.0))
        assert u[4] == pytest.approx(19.0 / 28.0, abs=1e-14)

    def test_lower_half_plane_field_matches_auto_rotated_solve(self):
        # the oracle solves the unrotated system, so it needs no admissible
        # field: Im L = 0 and Im M < 0 here
        spec = ProblemSpec(nx=5, ny=5, rotation="auto",
                           coeff=lambda g: CoefficientField.constant(g, 1.0, 1 - 1j),
                           bc=DirichletBC(f=lambda x, y: np.cos(x) + 1j * np.sin(y)))
        sol = solve(spec)
        assert sol.theta_applied != 0.0
        oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), spec.bc)
        assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-9

    def test_65x65_agrees_with_direct_solve(self):
        spec = ProblemSpec(nx=65, ny=65,
                           coeff=lambda g: CoefficientField.random(g, 0.0, 10.0, 5),
                           bc=DirichletBC(f=lambda x, y: np.cos(x) + 1j * np.sin(y)),
                           rotation="off", mode="direct")
        sol = solve(spec)
        oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), spec.bc)
        assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_agreement_ten_random_draws_per_bc(self):
        rng = np.random.default_rng(7)
        gdata = lambda x, y: np.cos(x) + 1j * np.sin(y)
        for bc in (DirichletBC(f=gdata), NeumannBC(g=gdata), RobinBC(a=-2 + 1j, g=gdata)):
            for _ in range(10):
                L = rng.uniform(0.3, 4) + 1j * rng.uniform(0.3, 4)
                M = rng.uniform(0.3, 4) + 1j * rng.uniform(0.3, 4)
                spec = ProblemSpec(nx=10, ny=10,
                                   coeff=lambda g, L=L, M=M: CoefficientField.constant(g, L, M),
                                   bc=bc, rotation="off")
                sol = solve(spec)
                oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), bc)
                assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-8


class TestConvergence:
    def test_manufactured_rate_near_two(self):
        study = convergence_study(ProblemSpec(**MANUFACTURED), [9, 17, 33],
                                  EXACT, EXACT_GRAD)
        assert 1.8 <= study.slope <= 2.2

    @pytest.mark.parametrize("kind", ["neumann", "robin"])
    def test_manufactured_natural_bc_rate_near_two(self, kind):
        # u = e^(x+y) with flux data g = v.n = i L du/dn (du/dn = +u on the
        # sides x = 1 and y = 1, -u on x = 0 and y = 0); Robin data u + a g
        L, a = 1 + 1j, -1 + 1j / 3

        def flux(x, y):
            x, y = np.asarray(x), np.asarray(y)
            sign = np.where(np.isclose(x, 1.0) | np.isclose(y, 1.0), 1.0, -1.0)
            return 1j * L * sign * np.exp(x + y)

        bc = (NeumannBC(g=flux) if kind == "neumann"
              else RobinBC(a=a, g=lambda x, y: EXACT(x, y) + a * flux(x, y)))
        spec = ProblemSpec(coeff=MANUFACTURED["coeff"], bc=bc)
        study = convergence_study(spec, [9, 17, 33], EXACT, EXACT_GRAD)
        assert 1.8 <= study.slope <= 2.2

    def test_zero_data_slope_undefined(self):
        spec = ProblemSpec(coeff=MANUFACTURED["coeff"], bc=DirichletBC(f=0.0))
        study = convergence_study(spec, [5, 9, 17], lambda x, y: 0j,
                                  lambda x, y: (0j, 0j))
        assert study.slope is None
        assert all(rep.v2 == 0.0 for _, _, rep in study.rows)

    def test_needs_three_grids(self):
        with pytest.raises(ValueError):
            convergence_study(ProblemSpec(**MANUFACTURED), [9, 17], EXACT)
        with pytest.raises(ValueError):
            convergence_study(ProblemSpec(**MANUFACTURED), [17, 17, 33], EXACT)


class TestConstitutiveSpectrum:
    def test_reference_moduli(self):
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(g, 3 + 4j, 5 + 12j)
        spec = constitutive_spectrum(f, 0)
        np.testing.assert_allclose(spec.eigenvalues, [-13, -5, -5, 5, 5, 13], atol=1e-12)
        assert spec.max_deviation < 1e-12

    def test_real_z_diagnostic_limit(self):
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(g, 2.0 + 0j, -3.0 + 0j)
        spec = constitutive_spectrum(f, 0)
        np.testing.assert_allclose(np.abs(spec.eigenvalues), [3, 2, 2, 2, 2, 3], atol=1e-12)
        assert spec.max_deviation < 1e-12

    def test_random_diagonal_z(self):
        g = build_grid(UNIT, 2, 2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.uniform(-5, 5, 6)
            f = CoefficientField(
                lxx=np.array([vals[0] + 1j * vals[1]]),
                lyy=np.array([vals[2] + 1j * vals[3]]),
                m=np.array([vals[4] + 1j * vals[5]]),
                scalar_l=False)
            assert constitutive_spectrum(f, 0).max_deviation < 1e-12


class TestSchurSpectrum:
    def test_zero_a2_gives_unit_spectrum(self):
        g = build_grid(UNIT, 6, 6)
        f = CoefficientField.constant(g, 2j, 3j)
        system = assemble_system(g, f, DirichletBC(f=0.0))
        spec = schur_spectrum(system)
        np.testing.assert_allclose(spec.preconditioned, 1.0, atol=1e-10)

    def test_preconditioning_shrinks_spread(self):
        g = build_grid(UNIT, 8, 8)
        f = CoefficientField.random(g, 0, 10, seed=1)
        system = assemble_system(g, f, DirichletBC(f=0.0))
        spec = schur_spectrum(system)
        assert spec.preconditioned.min() >= 1.0 - 1e-8
        assert spec.preconditioned_spread < spec.raw_spread

    def test_figure_coefficient_case_finite_positive(self):
        from helmfem import setup
        _, system = setup(ProblemSpec(
            nx=8, ny=8, bc=DirichletBC(f=0.0), rotation="auto",
            coeff=lambda g: CoefficientField.constant(g, 2 + 0.003j, -3 + 0.0004j)))
        spec = schur_spectrum(system)
        assert np.all(np.isfinite(spec.raw))
        assert spec.raw.min() > 0
        assert spec.preconditioned.min() >= 1.0 - 1e-8

    def test_size_guard(self):
        g = build_grid(UNIT, 40, 40)
        f = CoefficientField.constant(g, 1j, 1j)
        system = assemble_system(g, f, DirichletBC(f=0.0))
        with pytest.raises(ValueError):
            schur_spectrum(system)


class TestPcgSweep:
    def test_zero_a2_converges_immediately(self):
        cells, flatness = pcg_iteration_sweep((2j, 3j), [8, 12], [1e-8])
        assert all(c.ok and c.value <= 2 for c in cells)

    def test_iterations_nondecreasing_in_tightness(self):
        cells, _ = pcg_iteration_sweep((2 + 1j, 1 + 2j), [12], [1e-4, 1e-8, 1e-12])
        by_tol = {c.params[1]: c.value for c in cells}
        assert by_tol[1e-4] <= by_tol[1e-8] <= by_tol[1e-12]

    def test_flatness_across_grid_sizes(self):
        cells, flatness = pcg_iteration_sweep((3 + 2j, 1 + 4j), [10, 20, 40], [1e-8])
        assert flatness[1e-8] <= 5

    def test_pcg_ini_outer_counts_pinned(self):
        # the paper's outer counts for configs/paper/pcg.ini, flat in n;
        # any change to the inner A1 solve must leave them as they are
        spec, study = parse_config(PCG_INI.read_text())
        cells, flatness = pcg_iteration_sweep(spec.coeff, study["n_list"], study["tol_list"],
                                              domain=spec.domain, rotation=spec.rotation,
                                              mode=spec.mode)
        expected = {1e-4: 5, 1e-8: 7, 1e-12: 9}
        assert {c.params: c.value for c in cells} == {
            (n, tol): its for tol, its in expected.items() for n in (20, 40, 80)}
        assert flatness == dict.fromkeys(expected, 0)

    def test_pcg_ini_sets_up_each_grid_once(self, monkeypatch):
        # every tolerance reuses its grid's system and V-cycle
        spec, study = parse_config(PCG_INI.read_text())
        assembled, built = count_setup_work(monkeypatch)
        cells, _ = pcg_iteration_sweep(spec.coeff, study["n_list"], study["tol_list"],
                                       domain=spec.domain, rotation=spec.rotation,
                                       mode=spec.mode, bc=spec.bc)
        assert all(c.ok for c in cells) and len(cells) == 9
        assert [c.params for c in cells] == [
            (n, tol) for tol in study["tol_list"] for n in study["n_list"]]
        assert assembled == [20, 40, 80]
        assert len(built) == 3

    def test_failed_setup_fails_each_cell_of_its_grid(self):
        cells, flatness = pcg_iteration_sweep((1.0 + 0j, 1j), [1, 6], [1e-4, 1e-8])
        failed = [c for c in cells if not c.ok]
        assert [c.params for c in failed] == [(1, 1e-4), (1, 1e-8)]
        assert failed[0].error == failed[1].error and failed[0].error.startswith("[setup]")
        assert flatness == {1e-4: 0, 1e-8: 0}

    def test_cell_failures_recorded_not_fatal(self):
        # inadmissible coefficients with rotation off: every cell fails,
        # but the sweep still returns a full table
        cells, flatness = pcg_iteration_sweep((1.0 + 0j, -1.0 + 0j), [6, 8], [1e-8],
                                              rotation="off")
        assert len(cells) == 2
        assert all((not c.ok) and "admissib" in c.error for c in cells)
        assert flatness == {}


class TestRotationSweep:
    def spec(self):
        return ProblemSpec(
            nx=10, ny=10,
            coeff=lambda g: CoefficientField.constant(g, 3 + 2j, 1 + 4j),
            bc=DirichletBC(
                f=lambda x, y: np.cos(1.5 * x) * np.cos(1.5 * x) + 1j * np.sin(x) * np.sin(y)))

    def test_theta_zero_equals_plain_solve(self):
        rows, base_err = rotation_sweep(self.spec(), [0.0])
        assert rows[0].admissible
        assert rows[0].max_diff_vs_base == 0.0
        assert rows[0].error_vs_oracle == pytest.approx(base_err)

    def test_inadmissible_angles_flagged(self):
        # admissible arc for (3+2i, 1+4i) is theta in (-0.588, 1.816)
        rows, _ = rotation_sweep(self.spec(), [-1.0, 0.5, 2.0])
        assert [r.admissible for r in rows] == [False, True, False]
        assert rows[0].error_vs_oracle is None

    def test_rot_pic_assembles_once(self, monkeypatch):
        # every angle turns the theta = 0 system; each nonzero angle builds
        # the V-cycle of its own A1, theta = 0 reuses the base solve's
        spec, study = parse_config(ROT_PIC_INI.read_text())
        assembled, built = count_setup_work(monkeypatch)
        rows, _ = rotation_sweep(spec, study["theta_list"])
        assert all(r.admissible for r in rows) and len(rows) == 15
        assert assembled == [spec.nx]
        assert len(built) == 1 + sum(1 for t in study["theta_list"] if t != 0.0)

    def test_flat_error_inside_arc(self):
        thetas = [-0.4, 0.0, 0.6, 1.2, 1.7]
        rows, base_err = rotation_sweep(self.spec(), thetas)
        for r in rows:
            assert r.admissible
            assert r.error_vs_oracle <= 2.0 * base_err
            assert r.max_diff_vs_base < 1e-8


class TestOmegaSweep:
    def test_error_grows_with_frequency(self):
        acoustic = AcousticParams(rho=2 + 2j, kappa=1 - 3j, omega=1.0)
        rows = omega_sweep(acoustic, [1.0, 30.0], cells_per_wavelength=5.0)
        assert all(r.ok for r in rows)
        low, high = rows[0].value[0].v2, rows[1].value[0].v2
        assert high > low

    @pytest.mark.parametrize("cells", [0.0, -5.0, np.nan, np.inf])
    def test_cells_per_wavelength_must_be_positive_and_finite(self, monkeypatch, cells):
        monkeypatch.setattr(verify, "solve", lambda spec: pytest.fail("solve was called"))
        acoustic = AcousticParams(rho=2 + 2j, kappa=1 - 3j, omega=1.0)
        with pytest.raises(ValueError, match="cells_per_wavelength"):
            omega_sweep(acoustic, [1.0, 4.0], cells_per_wavelength=cells)

    def test_single_omega_matches_plain_solve(self):
        acoustic = AcousticParams(rho=2 + 2j, kappa=1 - 3j, omega=4.0)
        rows = omega_sweep(acoustic, [4.0], cells_per_wavelength=5.0)
        (omega, n), (rep, iters) = rows[0].params, rows[0].value
        spec = ProblemSpec(
            nx=n, ny=n,
            coeff=acoustic,
            bc=DirichletBC(f=lambda x, y: np.exp(1j * 4.0 * np.asarray(x))),
            rotation="off")
        sol = solve(spec)
        assert iters == sol.info.iters_outer
