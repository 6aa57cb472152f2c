import dataclasses

import numpy as np
import pytest

from helmfem import (
    CoefficientField, DirichletBC, NeumannBC, PcgConfig, ProblemSpec, RobinBC,
    SolveError, build_grid, galerkin_oracle, saddle_functional_Y, solve,
)
from helmfem.assemble import BlockSystem

from fem_helpers import element_blocks, eval_basis

UNIT = (0.0, 1.0, 0.0, 1.0)

# manufactured solution: with L = 1+i and M = 2(1+i) the real field
# u = e^(x+y) satisfies div(L grad u) = M u identically
MANUFACTURED = dict(
    coeff=lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j),
    bc=DirichletBC(f=lambda x, y: np.exp(x + y) + 0j),
)

LAYERED = dict(
    coeff=lambda g: CoefficientField.layered(
        g, "y", 0.5, low=(3 + 2j, 1 + 4j), high=(0.5 + 0.001j, 3 + 7j)),
    bc=DirichletBC(
        f=lambda x, y: np.cos(1.5 * x) * np.cos(1.5 * x) + 1j * np.sin(x) * np.sin(y)),
)


class TestSolveBasics:
    def test_zero_data_gives_zero_solution(self):
        # no special case: both A1 solves return zeros for a zero vector
        for mode in ("implicit", "direct"):
            spec = ProblemSpec(nx=7, ny=7, mode=mode,
                               coeff=lambda g: CoefficientField.constant(g, 2 + 1j, 1 + 3j),
                               bc=DirichletBC(f=0.0))
            sol = solve(spec)
            np.testing.assert_array_equal(sol.u, 0.0)
            assert sol.info.iters_outer == 0
            assert sol.info.residual_rel == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="implicit or direct"):
            ProblemSpec(mode="fast")

    def test_manufactured_h1_error_small(self):
        from helmfem import v_norm_error
        spec = ProblemSpec(nx=17, ny=17, **MANUFACTURED)
        sol = solve(spec)
        exact = lambda x, y: np.exp(x + y) + 0j
        grad = lambda x, y: (np.exp(x + y), np.exp(x + y))
        rep = v_norm_error(sol, exact, grad)
        norm = np.sqrt(3.0) * (np.e ** 2 - 1) / 2.0  # H1 norm of e^(x+y)
        assert rep.h1_re / norm < 0.05
        assert rep.h1_im / norm < 1e-9  # solution is real

    def test_manufactured_error_decreases(self):
        from helmfem import v_norm_error
        exact = lambda x, y: np.exp(x + y) + 0j
        grad = lambda x, y: (np.exp(x + y), np.exp(x + y))
        errs = [v_norm_error(solve(ProblemSpec(nx=n, ny=n, **MANUFACTURED)), exact, grad).v2
                for n in (9, 17, 33)]
        assert errs[0] > errs[1] > errs[2]

    def test_layered_matches_oracle(self):
        spec = ProblemSpec(nx=12, ny=12, **LAYERED)
        sol = solve(spec)
        g = sol.grid
        oracle = galerkin_oracle(g, LAYERED["coeff"](g), LAYERED["bc"])
        rel = np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8

    def test_block_residual_reported_and_small(self):
        sol = solve(ProblemSpec(nx=12, ny=12, **LAYERED))
        assert sol.info.residual_rel <= 10 * sol.info.rel_tol

    def test_direct_mode_agrees(self):
        imp = solve(ProblemSpec(nx=9, ny=9, **LAYERED, mode="implicit"))
        dire = solve(ProblemSpec(nx=9, ny=9, **LAYERED, mode="direct"))
        assert np.abs(imp.u - dire.u).max() < 1e-9
        assert dire.info.inner_iterations == 0


class TestEvaluate:
    def make_solution(self):
        return solve(ProblemSpec(nx=9, ny=9, **LAYERED))

    def test_boundary_nodes_reproduce_data(self):
        sol = self.make_solution()
        g = sol.grid
        f = LAYERED["bc"].f
        for nid in g.boundary_nodes[::3]:
            x, y = g.nodes[nid]
            assert sol.evaluate((x, y)) == pytest.approx(complex(f(x, y)), abs=1e-14)

    def test_element_center_is_corner_average(self):
        sol = self.make_solution()
        g = sol.grid
        for e in (0, 5, 20):
            corners = g.elements[e]
            center = g.nodes[corners].mean(axis=0)
            assert sol.evaluate(center) == pytest.approx(sol.u[corners].mean(), abs=1e-13)

    def test_zero_field(self):
        spec = ProblemSpec(nx=5, ny=5,
                           coeff=lambda g: CoefficientField.constant(g, 1j, 1j),
                           bc=DirichletBC(f=0.0))
        sol = solve(spec)
        pts = np.array([[0.1, 0.2], [0.7, 0.9], [1.0, 0.0]])
        np.testing.assert_array_equal(sol.evaluate(pts), 0.0)

    def test_outside_domain_rejected(self):
        sol = self.make_solution()
        with pytest.raises(ValueError):
            sol.evaluate((1.2, 0.3))

    def test_array_matches_single_points(self):
        sol = self.make_solution()
        rng = np.random.default_rng(3)
        shared_edges = [(0.25, 0.3), (0.6, 0.5), (0.375, 0.625)]  # h = 1/8
        domain_corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pts = np.vstack([rng.uniform(0.0, 1.0, (20, 2)), shared_edges, domain_corners])
        values = sol.evaluate(pts)
        grads = sol.gradient(pts)
        assert values.shape == (len(pts),) and grads.shape == (len(pts), 2)
        g = sol.grid
        for k, p in enumerate(pts):
            assert values[k] == sol.evaluate(p)
            np.testing.assert_array_equal(grads[k], sol.gradient(p))
            # reference: the hat functions of the holding element, one by one
            corners = g.elements[g.element_of_point(*p)]
            hats = [eval_basis(g, node, p) for node in corners]
            value = sum(sol.u[c] * v for c, (v, _) in zip(corners, hats))
            grad = sum(sol.u[c] * d for c, (_, d) in zip(corners, hats))
            assert values[k] == pytest.approx(value, rel=1e-14, abs=1e-14)
            np.testing.assert_allclose(grads[k], grad, rtol=1e-14, atol=1e-13)

    def test_array_with_one_outside_point_rejected(self):
        sol = self.make_solution()
        pts = np.array([[0.1, 0.2], [0.5, 1.5], [0.7, 0.9]])
        with pytest.raises(ValueError, match="outside domain"):
            sol.evaluate(pts)
        with pytest.raises(ValueError, match="outside domain"):
            sol.gradient(pts)


class TestSaddleFunctional:
    def test_zero_fields(self):
        g = build_grid(UNIT, 5, 5)
        f = CoefficientField.constant(g, 1 + 1j, 1 + 1j)
        z = np.zeros(g.n_nodes)
        assert saddle_functional_Y(g, f, z, z) == 0.0

    def test_pure_imaginary_coefficients_positive(self):
        g = build_grid(UNIT, 5, 5)
        f = CoefficientField.constant(g, 2j, 3j)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.n_nodes)
        z = np.zeros(g.n_nodes)
        y = saddle_functional_Y(g, f, u, z)
        assert y > 0
        # mirrored sign in the imaginary slot
        assert saddle_functional_Y(g, f, z, u) == pytest.approx(-y)

    def test_matches_quadratic_form_of_full_matrices(self):
        g = build_grid(UNIT, 4, 4)
        f = CoefficientField.constant(g, 1 + 2j, 3 + 1j)
        n = g.n_nodes
        a1 = np.zeros((n, n))
        a2 = np.zeros((n, n))
        for e in range(g.n_elements):
            l1, l2 = element_blocks(g, f, e)
            idx = g.elements[e]
            a1[np.ix_(idx, idx)] += l1
            a2[np.ix_(idx, idx)] += l2
        rng = np.random.default_rng(1)
        ur = rng.standard_normal(n)
        ui = rng.standard_normal(n)
        expected = ur @ a1 @ ur + 2 * ur @ a2 @ ui - ui @ a1 @ ui
        assert saddle_functional_Y(g, f, ur, ui) == pytest.approx(expected, rel=1e-12)

    def test_saddle_property_at_solution(self):
        spec = ProblemSpec(nx=9, ny=9, **LAYERED)
        sol = solve(spec)
        g = sol.grid
        fld = spec.coeff(g)
        ur, ui = sol.u.real, sol.u.imag
        y0 = saddle_functional_Y(g, fld, ur, ui)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = np.zeros(g.n_nodes)
            s[g.interior_nodes] = rng.standard_normal(len(g.interior_nodes))
            quad = saddle_functional_Y(g, fld, s, np.zeros_like(s))
            up = saddle_functional_Y(g, fld, ur + s, ui) - y0
            down = saddle_functional_Y(g, fld, ur, ui + s) - y0
            assert up == pytest.approx(quad, rel=1e-6)
            assert down == pytest.approx(-quad, rel=1e-6)


class TestRotationHandling:
    def coeff(self):
        return lambda g: CoefficientField.constant(g, 3 + 2j, 1 + 4j)

    def test_rotation_invariance_dirichlet(self):
        base = solve(ProblemSpec(nx=10, ny=10, coeff=self.coeff(),
                                 bc=LAYERED["bc"], rotation=0.0))
        for theta in (-0.5, 0.3, 1.2, 1.7):
            sol = solve(ProblemSpec(nx=10, ny=10, coeff=self.coeff(),
                                    bc=LAYERED["bc"], rotation=theta))
            diff = np.abs(sol.u - base.u).max() / np.abs(base.u).max()
            assert diff < 1e-8
            assert sol.theta_applied == theta

    def test_rotation_invariance_neumann_robin(self):
        gdata = lambda x, y: np.exp(0.2 * x) + 1j * np.asarray(y)
        for bc in (NeumannBC(g=gdata), RobinBC(a=-1 + 1j / 3, g=gdata)):
            base = solve(ProblemSpec(nx=8, ny=8, coeff=self.coeff(), bc=bc, rotation=0.0))
            sol = solve(ProblemSpec(nx=8, ny=8, coeff=self.coeff(), bc=bc, rotation=0.6))
            assert np.abs(sol.u - base.u).max() / np.abs(base.u).max() < 1e-8

    def test_auto_rotation_fixes_lower_half_plane(self):
        spec = ProblemSpec(nx=8, ny=8,
                           coeff=lambda g: CoefficientField.constant(g, -3 - 2j, -1 - 4j),
                           bc=DirichletBC(f=1.0), rotation="auto")
        sol = solve(spec)
        assert abs(sol.theta_applied) > 1.0
        # same solution as the admissible mirrored problem solved directly
        ref = solve(dataclasses.replace(
            spec, coeff=lambda g: CoefficientField.constant(g, 3 + 2j, 1 + 4j),
            rotation=0.0))
        assert np.abs(sol.u - ref.u).max() / np.abs(ref.u).max() < 1e-8

    def test_rotation_off_rejects_inadmissible(self):
        spec = ProblemSpec(nx=5, ny=5,
                           coeff=lambda g: CoefficientField.constant(g, 1.0, 1j),
                           bc=DirichletBC(f=0.0), rotation="off")
        with pytest.raises(SolveError) as exc:
            solve(spec)
        assert exc.value.stage == "admissibility"

    def test_infeasible_coefficients_error(self):
        spec = ProblemSpec(nx=5, ny=5,
                           coeff=lambda g: CoefficientField.constant(g, 1.0, -1.0),
                           bc=DirichletBC(f=0.0), rotation="auto")
        with pytest.raises(SolveError) as exc:
            solve(spec)
        assert exc.value.stage == "rotation"
        assert "L and M:" in str(exc.value) and "Robin" not in str(exc.value)

    def test_rotation_breaking_robin_sign_reported(self):
        # L, M and the Robin term c = -i/a span 192.5 degrees: no rotation
        # turns all three into the upper half-plane
        spec = ProblemSpec(nx=5, ny=5,
                           coeff=lambda g: CoefficientField.constant(g, -3 - 2j, -1 - 4j),
                           bc=RobinBC(a=-1 - 0.5j, g=1.0), rotation="auto")
        with pytest.raises(SolveError) as exc:
            solve(spec)
        assert exc.value.stage == "rotation"
        assert "L, M and the Robin constant c = -i/a:" in str(exc.value)

    def test_auto_rotation_sees_robin_constant(self):
        # the max-margin angle of L and M alone (-2.528) turns c = -i/a into
        # the lower half-plane; the angle of L, M and c together solves it
        spec = ProblemSpec(nx=9, ny=9,
                           coeff=lambda g: CoefficientField.constant(g, -3 - 2j, -1 - 4j),
                           bc=RobinBC(a=-1 + 0.1j, g=1.0), rotation="auto")
        sol = solve(spec)
        assert sol.theta_applied == pytest.approx(-1.498, abs=1e-3)
        oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), spec.bc)
        assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-10


class TestOracleEquivalence:
    def test_all_bc_kinds_match_oracle(self):
        rng = np.random.default_rng(42)
        gdata = lambda x, y: np.exp(0.3 * x) + 2j * np.asarray(y)
        cases = [DirichletBC(f=LAYERED["bc"].f), NeumannBC(g=gdata),
                 RobinBC(a=-1 + 1j / 3, g=gdata)]
        for bc in cases:
            for _ in range(3):
                L = rng.uniform(0.5, 3) + 1j * rng.uniform(0.5, 3)
                M = rng.uniform(0.5, 3) + 1j * rng.uniform(0.5, 3)
                fld = None
                spec = ProblemSpec(
                    nx=12, ny=12,
                    coeff=lambda g, L=L, M=M: CoefficientField.constant(g, L, M),
                    bc=bc, rotation="off")
                sol = solve(spec)
                oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), bc)
                rel = np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle)
                assert rel < 1e-8


class TestMultigridInnerSolves:
    @pytest.mark.parametrize("n", [17, 20])
    def test_same_outer_iterations_as_exact_inner_solves(self, n):
        # multigrid-preconditioned inner PCG against direct A1 solves
        gdata = lambda x, y: np.exp(0.3 * x) + 2j * np.asarray(y)
        cases = [LAYERED, dict(coeff=lambda g: CoefficientField.random(g, 0.0, 10.0, 3),
                               bc=NeumannBC(g=gdata)),
                 dict(coeff=lambda g: CoefficientField.random(g, 0.0, 10.0, 4),
                      bc=RobinBC(a=-1 + 1j / 3, g=gdata))]
        for case in cases:
            imp = solve(ProblemSpec(nx=n, ny=n, **case, mode="implicit"))
            dire = solve(ProblemSpec(nx=n, ny=n, **case, mode="direct"))
            assert imp.info.iters_outer == dire.info.iters_outer
            assert imp.info.inner_iterations <= 25 * (imp.info.iters_outer + 2)
            diff = np.linalg.norm(imp.u - dire.u) / np.linalg.norm(dire.u)
            assert diff <= 10 * imp.info.rel_tol


class TestGeneralizedGeometry:
    def test_diagonal_l_matches_oracle(self):
        # distinct Lxx/Lyy exercise the anisotropic coefficient path end to end
        spec = ProblemSpec(
            nx=10, ny=10,
            coeff=lambda g: CoefficientField.constant(g, (2 + 1j, 0.5 + 2j), 1 + 3j),
            bc=DirichletBC(f=lambda x, y: np.cos(x) + 1j * np.sin(y)),
            rotation="off")
        sol = solve(spec)
        oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), spec.bc)
        assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_rectangle_domain_anisotropic_spacing(self):
        # non-square domain with nx != ny gives hx != hy
        spec = ProblemSpec(
            domain=(0.0, 2.0, -1.0, 0.5), nx=13, ny=8,
            coeff=lambda g: CoefficientField.constant(g, 1 + 2j, 2 + 1j),
            bc=NeumannBC(g=lambda x, y: np.asarray(x) + 1j * np.asarray(y)),
            rotation="off")
        sol = solve(spec)
        assert sol.grid.hx != sol.grid.hy
        oracle = galerkin_oracle(sol.grid, spec.coeff(sol.grid), spec.bc)
        assert np.linalg.norm(sol.u - oracle) / np.linalg.norm(oracle) < 1e-8
        assert sol.info.residual_rel < 1e-9

    def test_manufactured_on_rectangle(self):
        # u = e^(x+y) stays exact on any rectangle for L = 1+i, M = 2(1+i)
        from helmfem import v_norm_error
        spec = ProblemSpec(domain=(0.0, 2.0, 0.0, 1.0), nx=33, ny=17,
                           **MANUFACTURED)
        sol = solve(spec)
        rep = v_norm_error(sol, lambda x, y: np.exp(x + y) + 0j,
                           lambda x, y: (np.exp(x + y), np.exp(x + y)))
        ref = v_norm_error(
            solve(ProblemSpec(domain=(0.0, 2.0, 0.0, 1.0), nx=17, ny=9, **MANUFACTURED)),
            lambda x, y: np.exp(x + y) + 0j,
            lambda x, y: (np.exp(x + y), np.exp(x + y)))
        assert rep.v2 < ref.v2 / 3.5  # h^2 rate in the squared norm: ~1/4 per halving


class TestSolveContract:
    """solve returns only a block residual of at most 10 * rel_tol."""

    @pytest.mark.parametrize("mode", ["implicit", "direct"])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_small_margin_is_refined_into_the_contract(self, eps, mode):
        # Im L = Im M = eps makes A1 nearly singular: step 6 amplifies the
        # outer error by about 1/eps, far past the contract
        spec = ProblemSpec(nx=17, ny=17, mode=mode, rotation="off",
                           coeff=lambda g: CoefficientField.constant(g, 1 + eps * 1j,
                                                                     2 + eps * 1j),
                           bc=DirichletBC(f=1.0))
        info = solve(spec).info
        assert info.residual_rel <= 10 * info.rel_tol
        assert info.refinements >= 1

    def test_admissible_margin_needs_no_refinement(self):
        assert solve(ProblemSpec(nx=9, ny=9, **LAYERED)).info.refinements == 0

    def test_residual_that_never_drops_fails_at_stage_residual(self, monkeypatch):
        monkeypatch.setattr(BlockSystem, "block_residual", lambda self, a_re, a_im: 1.0)
        with pytest.raises(SolveError, match="after 3 refinement rounds") as exc:
            solve(ProblemSpec(nx=9, ny=9, **LAYERED))
        assert exc.value.stage == "residual"


class TestFailurePropagation:
    def test_stage_label_on_outer_failure(self, monkeypatch):
        monkeypatch.setattr(PcgConfig, "iter_limit", lambda self, n: 2)
        spec = ProblemSpec(nx=9, ny=9, **LAYERED,
                           pcg=PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-12))
        with pytest.raises(SolveError) as exc:
            solve(spec)
        assert "step" in str(exc.value)

    def test_materialized_field_must_match_grid(self):
        f = CoefficientField.constant(build_grid(UNIT, 4, 4), 1j, 1j)
        spec = ProblemSpec(nx=9, ny=9, coeff=f, bc=DirichletBC(f=0.0))
        with pytest.raises(SolveError):
            solve(spec)

    @pytest.mark.parametrize("L, M", [(complex(np.nan, 1.0), 2 + 2j), (1 + 1j, complex(2.0, np.inf))])
    def test_non_finite_coefficients_rejected_at_setup(self, L, M):
        spec = ProblemSpec(nx=9, ny=9, coeff=lambda g: CoefficientField.constant(g, L, M),
                           bc=DirichletBC(f=1.0))
        with pytest.raises(SolveError, match="non-finite") as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    @pytest.mark.parametrize("bc", [
        DirichletBC(f=lambda x, y: np.where(np.asarray(x) == 0.0, np.nan, 1.0) + 0j),
        NeumannBC(g=complex(np.inf, 0.0)),
        RobinBC(a=-1 + 1j / 3, g=lambda x, y: np.where(np.asarray(y) == 1.0, np.nan, 1.0)),
    ], ids=["dirichlet", "neumann", "robin"])
    def test_non_finite_boundary_data_rejected_at_setup(self, bc):
        spec = ProblemSpec(nx=9, ny=9, bc=bc,
                           coeff=lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j))
        with pytest.raises(SolveError, match="non-finite") as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    @pytest.mark.parametrize("bc, coeff, message", [
        (DirichletBC(f="1"), lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j),
         "number or callable"),
        # auto rotation turns these coefficients by pi/4; the data fails first
        (NeumannBC(g="1"), lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j),
         "number or callable"),
        (DirichletBC(f=1.0), lambda g: CoefficientField.constant(build_grid(UNIT, 4, 4), 1j, 1j),
         "elements"),
        # assembly runs before the angle is checked: stage setup, not rotation
        (DirichletBC(f="1"), lambda g: CoefficientField.constant(g, 1.0, -1.0),
         "number or callable"),
    ], ids=["string-data", "rotated-string-data", "wrong-size-field", "inadmissible-string-data"])
    def test_bad_input_fails_at_setup(self, bc, coeff, message):
        spec = ProblemSpec(nx=5, ny=5, bc=bc, coeff=coeff)
        with pytest.raises(SolveError, match=message) as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_rotation_angle_rejected_at_setup(self, theta):
        spec = ProblemSpec(nx=5, ny=5, rotation=theta, **MANUFACTURED)
        with pytest.raises(SolveError, match="finite") as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    def test_single_node_grid_rejected_at_setup(self):
        spec = ProblemSpec(nx=1, ny=1, bc=DirichletBC(f=1.0),
                           coeff=lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j))
        with pytest.raises(SolveError, match="at least 2 nodes") as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    def test_missing_boundary_condition_rejected_at_setup(self):
        spec = ProblemSpec(nx=9, ny=9, bc=None,
                           coeff=lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j))
        with pytest.raises(SolveError) as exc:
            solve(spec)
        assert exc.value.stage == "setup"

    def test_materialized_field_accepted_when_matching(self):
        f = CoefficientField.constant(build_grid(UNIT, 9, 9), 1 + 1j, 2 + 2j)
        spec = ProblemSpec(nx=9, ny=9, coeff=f, bc=DirichletBC(f=0.0), rotation="off")
        sol = solve(spec)
        np.testing.assert_array_equal(sol.u, 0.0)
