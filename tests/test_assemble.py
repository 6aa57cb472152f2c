import numpy as np
import pytest
import scipy.sparse as sps

from helmfem import (
    AssemblyError, CoefficientField, DirichletBC, NeumannBC, ProblemSpec, RobinBC,
    assemble_system, build_grid, element_blocks, rotate, solve,
)
from helmfem.assemble import element_templates

UNIT = (0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def symbolic_templates():
    """Independent oracle: exact bilinear shape-product integrals on the
    unit square via symbolic integration."""
    import sympy as sp

    x, y = sp.symbols("x y")
    shapes = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
    stiff = sp.zeros(4, 4)
    mass = sp.zeros(4, 4)
    for k in range(4):
        for j in range(4):
            integrand_s = (sp.diff(shapes[k], x) * sp.diff(shapes[j], x)
                           + sp.diff(shapes[k], y) * sp.diff(shapes[j], y))
            stiff[k, j] = sp.integrate(integrand_s, (x, 0, 1), (y, 0, 1))
            mass[k, j] = sp.integrate(shapes[k] * shapes[j], (x, 0, 1), (y, 0, 1))
    return (np.array(stiff, dtype=float), np.array(mass, dtype=float))


def unit_element_grid():
    # 2x2 grid on the unit square: one element with h = 1
    return build_grid(UNIT, 2, 2)


class TestElementBlocks:
    def test_pure_imaginary_coefficients(self, symbolic_templates):
        stiff, mass = symbolic_templates
        g = unit_element_grid()
        f = CoefficientField.constant(g, 1j, 1j)
        a1, a2 = element_blocks(g, f, 0)
        np.testing.assert_allclose(a2, 0.0, atol=1e-15)
        np.testing.assert_allclose(a1, stiff + mass, atol=1e-14)
        assert a1[0, 0] == pytest.approx(2.0 / 3.0 + 1.0 / 9.0)

    def test_real_parts_go_to_a2(self, symbolic_templates):
        stiff, mass = symbolic_templates
        g = unit_element_grid()
        a1, a2 = element_blocks(g, CoefficientField.constant(g, 2 + 3j, 4 + 5j), 0)
        np.testing.assert_allclose(a2, 2 * stiff + 4 * mass, atol=1e-13)
        np.testing.assert_allclose(a1, 3 * stiff + 5 * mass, atol=1e-13)

    def test_four_fold_symmetry_on_square_element(self):
        g = unit_element_grid()
        a1, a2 = element_blocks(g, CoefficientField.constant(g, 1 + 2j, 3 + 4j), 0)
        perm = np.array([1, 2, 3, 0])  # one quarter turn of the corner ordering
        for loc in (a1, a2):
            np.testing.assert_allclose(loc[np.ix_(perm, perm)], loc, atol=1e-15)

    def test_anisotropic_diagonal_l(self, symbolic_templates):
        # distinct Lxx/Lyy weight the x- and y-stiffness parts separately
        g = unit_element_grid()
        f = CoefficientField.constant(g, (2j, 3j), 1j)
        a1, _ = element_blocks(g, f, 0)
        sx, sy, mc = element_templates(1.0, 1.0)
        np.testing.assert_allclose(a1, 2 * sx + 3 * sy + mc, atol=1e-14)

    def test_element_out_of_range(self):
        g = unit_element_grid()
        f = CoefficientField.constant(g, 1j, 1j)
        with pytest.raises(ValueError):
            element_blocks(g, f, 1)


class TestAssembleDirichlet:
    def test_single_interior_node(self):
        # 3x3 grid with h = 1: A1 entry is the sum of the four adjacent
        # element diagonal contributions
        g = build_grid((0, 2, 0, 2), 3, 3)
        f = CoefficientField.constant(g, 1j, 1j)
        sys_ = assemble_system(g, f, DirichletBC(f=0.0))
        assert sys_.n == 1
        expected = 0.0
        for e in range(4):
            a1loc, a2loc = element_blocks(g, f, e)
            corner = int(np.flatnonzero(g.elements[e] == 4)[0])
            expected += a1loc[corner, corner]
        assert sys_.a1.mat.toarray()[0, 0] == pytest.approx(expected)
        assert expected == pytest.approx(8.0 / 3.0 + 4.0 / 9.0)
        assert sys_.a2.toarray()[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_data_zero_rhs(self):
        g = build_grid(UNIT, 5, 5)
        f = CoefficientField.constant(g, 1 + 1j, 1 + 1j)
        sys_ = assemble_system(g, f, DirichletBC(f=0.0))
        np.testing.assert_array_equal(sys_.b1, 0.0)
        np.testing.assert_array_equal(sys_.b2, 0.0)

    def test_lifting_rhs_matches_formula(self):
        # b1 = -A1[free,:] psi0' - A2[free,:] psi0'' with the nodal lifting
        g = build_grid(UNIT, 4, 4)
        f = CoefficientField.constant(g, 1 + 2j, 3 + 1j)
        data = lambda x, y: np.cos(x) + 1j * np.asarray(y)
        sys_ = assemble_system(g, f, DirichletBC(f=data))
        lift = sys_.lifting
        assert np.all(lift[g.interior_nodes] == 0.0)
        # rebuild the full matrices from element blocks and compare
        n = g.n_nodes
        a1f = np.zeros((n, n))
        a2f = np.zeros((n, n))
        for e in range(g.n_elements):
            a1loc, a2loc = element_blocks(g, f, e)
            idx = g.elements[e]
            a1f[np.ix_(idx, idx)] += a1loc
            a2f[np.ix_(idx, idx)] += a2loc
        free = g.interior_nodes
        np.testing.assert_allclose(
            sys_.b1, -a1f[free] @ lift.real - a2f[free] @ lift.imag, atol=1e-13)
        np.testing.assert_allclose(
            sys_.b2, -a2f[free] @ lift.real + a1f[free] @ lift.imag, atol=1e-13)

    def test_data_must_be_number_or_callable(self):
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(g, 1j, 1j)
        for data in ("1", {0: 1.0}, None):
            with pytest.raises(AssemblyError, match="number or callable"):
                assemble_system(g, f, DirichletBC(f=data))
        with pytest.raises(AssemblyError, match="number or callable"):
            assemble_system(g, f, NeumannBC(g="1"))


class TestStructure:
    @staticmethod
    def rand_field(g, seed):
        rng = np.random.default_rng(seed)
        n = g.n_elements
        return CoefficientField(
            lxx=(lv := rng.uniform(0.2, 3, n) + 1j * rng.uniform(0.2, 3, n)),
            lyy=lv.copy(),
            m=rng.uniform(0.2, 3, n) + 1j * rng.uniform(0.2, 3, n),
        )

    def test_a1_bitwise_symmetric(self):
        for nx in (4, 7):
            g = build_grid(UNIT, nx, nx)
            f = self.rand_field(g, nx)
            for bc in (DirichletBC(f=1.0), NeumannBC(g=1.0), RobinBC(a=-1 + 0.5j, g=1.0)):
                sys_ = assemble_system(g, f, bc)
                assert (sys_.a1.mat != sys_.a1.mat.T).nnz == 0
                assert (sys_.a2 != sys_.a2.T).nnz == 0

    def test_pure_imaginary_coefficients_kill_a2(self):
        g = build_grid(UNIT, 6, 6)
        f = CoefficientField.constant(g, 2j, 3j)
        sys_ = assemble_system(g, f, NeumannBC(g=1.0))
        assert abs(sys_.a2).max() == 0.0
        # cancellation zeros stay in the stored pattern
        assert sys_.a2.nnz == sys_.a1.nnz

    def test_dense_block_solve_matches_complex_galerkin(self):
        # the saddle equations are real recombinations of the complex
        # Galerkin equations, so the dense block solution must coincide
        # with the complex Dirichlet system built here from element blocks
        data = lambda x, y: np.cos(x) + 1j * np.sin(y)
        for nx in (5, 8):
            g = build_grid(UNIT, nx, nx)
            f = self.rand_field(g, nx + 100)
            sys_ = assemble_system(g, f, DirichletBC(f=data))
            rhs = np.concatenate([sys_.b1, sys_.b2])
            x = np.linalg.solve(sys_.block_matrix_dense(), rhs)
            u = sys_.lifting.copy()
            u[sys_.free_nodes] += x[: sys_.n] + 1j * x[sys_.n:]

            k = np.zeros((g.n_nodes, g.n_nodes), dtype=complex)
            for e in range(g.n_elements):
                a1, a2 = element_blocks(g, f, e)
                k[np.ix_(g.elements[e], g.elements[e])] += a2 + 1j * a1
            free, bnd = g.interior_nodes, g.boundary_nodes
            ref = np.zeros(g.n_nodes, dtype=complex)
            ref[bnd] = data(*g.nodes[bnd].T)
            ref[free] = np.linalg.solve(k[np.ix_(free, free)], -k[np.ix_(free, bnd)] @ ref[bnd])
            rel = np.linalg.norm(u - ref) / np.linalg.norm(ref)
            assert rel < 1e-10

    def test_a1_positive_definite_when_admissible(self):
        for nx, seed in ((4, 0), (6, 1), (8, 2)):
            g = build_grid(UNIT, nx, nx)
            f = self.rand_field(g, seed)
            for bc in (DirichletBC(f=0.0), NeumannBC(g=0.0), RobinBC(a=-2 + 1j, g=0.0)):
                sys_ = assemble_system(g, f, bc)
                assert np.linalg.eigvalsh(sys_.a1.mat.toarray()).min() > 0

    def test_a1_splits_into_p1_plus_mass_part(self):
        # A1 of the field = A1 of its gradient-only part + A1 of its
        # mass-only part (the other coefficient a negligible 1e-30j)
        g = build_grid(UNIT, 5, 5)
        f = self.rand_field(g, 9)
        tiny = np.full(g.n_elements, 1e-30j)
        gradient_only = CoefficientField(lxx=f.lxx, lyy=f.lyy, m=tiny)
        mass_only = CoefficientField(lxx=tiny, lyy=tiny, m=f.m)
        a1 = [assemble_system(g, fld, DirichletBC(f=0.0)).a1.mat.toarray()
              for fld in (f, gradient_only, mass_only)]
        np.testing.assert_allclose(a1[1] + a1[2], a1[0], rtol=0, atol=1e-14)

    def test_block_matrix_symmetric_indefinite(self):
        g = build_grid(UNIT, 4, 4)
        f = self.rand_field(g, 5)
        sys_ = assemble_system(g, f, DirichletBC(f=0.0))
        block = sys_.block_matrix_dense()
        np.testing.assert_array_equal(block, block.T)
        eigs = np.linalg.eigvalsh(block)
        assert eigs.min() < 0 < eigs.max()

    def test_lower_half_plane_field_assembles(self):
        # assembly takes any finite field: the dense solve of the unrotated
        # system of a lower-half-plane field is the auto-rotated solution
        spec = ProblemSpec(nx=6, ny=6, rotation="auto",
                           coeff=lambda g: CoefficientField.constant(g, -3 - 2j, -1 - 4j),
                           bc=DirichletBC(f=lambda x, y: np.cos(x) + 1j * np.sin(y)))
        sol = solve(spec)
        assert abs(sol.theta_applied) > 1.0
        s = assemble_system(sol.grid, spec.coeff(sol.grid), spec.bc)
        x = np.linalg.solve(s.block_matrix_dense(), np.concatenate([s.b1, s.b2]))
        u = s.lifting.copy()
        u[s.free_nodes] += x[: s.n] + 1j * x[s.n:]
        assert np.linalg.norm(sol.u - u) / np.linalg.norm(u) < 1e-9

    def test_field_grid_mismatch_rejected(self):
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(build_grid(UNIT, 4, 4), 1j, 1j)
        with pytest.raises(AssemblyError, match="elements"):
            assemble_system(g, f, DirichletBC(f=0.0))


class TestNeumann:
    def test_rhs_signs(self):
        # b1 = -int g' psi, b2 = +int g'' psi; constant g over the unit
        # square boundary integrates each basis function exactly
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(g, 1j, 1j)
        sys_ = assemble_system(g, f, NeumannBC(g=2.0 + 3.0j))
        # corner nodes carry two half-edges: int psi = h; side mids: h
        h = 0.5
        weights = np.zeros(g.n_nodes)
        for a, b in g.edge_nodes:
            weights[a] += h / 2
            weights[b] += h / 2
        np.testing.assert_allclose(sys_.b1, -2.0 * weights, atol=1e-14)
        np.testing.assert_allclose(sys_.b2, 3.0 * weights, atol=1e-14)
        assert sys_.n == g.n_nodes


class TestRobin:
    def test_requires_nonzero_constant(self):
        with pytest.raises(AssemblyError, match="nonzero"):
            RobinBC(a=0.0, g=0.0)
        # the sign of Re(a) is the admissibility of c = -i/a, which solve checks
        for a in (1.0 + 0.5j, 0.333j):
            assert RobinBC(a=a, g=0.0).a == a

    @pytest.mark.parametrize("a", [complex(-1.0, np.nan), complex(-np.inf, 1.0)])
    def test_requires_finite_constant(self, a):
        with pytest.raises(AssemblyError, match="finite"):
            RobinBC(a=a, g=0.0)

    def test_non_finite_data_rejected(self):
        g = build_grid(UNIT, 4, 4)
        f = CoefficientField.constant(g, 3 + 2j, 1 + 4j)
        for bc in (DirichletBC(f=complex(np.nan, 0.0)), NeumannBC(g=np.inf),
                   RobinBC(a=-1.0, g=lambda x, y: np.full(np.shape(x), np.nan))):
            with pytest.raises(AssemblyError, match="non-finite"):
                assemble_system(g, f, bc)

    def test_boundary_scaling_against_neumann(self):
        # a = -1 + i/3: the A1 boundary addition is -a'/|a|^2 = 0.9 times
        # the boundary mass matrix, and A2 gets -a''/|a|^2 = -0.3 times it
        g = build_grid(UNIT, 4, 4)
        f = CoefficientField.constant(g, 3 + 2j, 1 + 4j)
        a = -1 + 1j / 3
        robin = assemble_system(g, f, RobinBC(a=a, g=0.0))
        neumann = assemble_system(g, f, NeumannBC(g=0.0))
        bmass = np.zeros((g.n_nodes, g.n_nodes))
        for (na, nb), edge_len in zip(g.edge_nodes, np.full(len(g.edge_nodes), g.hx)):
            bmass[na, na] += edge_len / 3
            bmass[nb, nb] += edge_len / 3
            bmass[na, nb] += edge_len / 6
            bmass[nb, na] += edge_len / 6
        diff1 = robin.a1.mat.toarray() - neumann.a1.mat.toarray()
        diff2 = robin.a2.toarray() - neumann.a2.toarray()
        np.testing.assert_allclose(diff1, 0.9 * bmass, atol=1e-13)
        np.testing.assert_allclose(diff2, -0.3 * bmass, atol=1e-13)

    def test_rhs_uses_conjugated_ratio(self):
        # b1 + i b2 should equal -int conj(g/a) psi dS
        g = build_grid(UNIT, 3, 3)
        f = CoefficientField.constant(g, 1j, 1j)
        a, gv = -1 + 1j / 3, 3.333j
        sys_ = assemble_system(g, f, RobinBC(a=a, g=gv))
        h = 0.5
        weights = np.zeros(g.n_nodes)
        for na, nb in g.edge_nodes:
            weights[na] += h / 2
            weights[nb] += h / 2
        expected = -np.conj(gv / a) * weights
        np.testing.assert_allclose(sys_.b1 + 1j * sys_.b2, expected, atol=1e-14)


GDATA = lambda x, y: np.exp(0.2 * np.asarray(x)) + 1j * np.asarray(y)


def rotated_problem(fld, bc, theta):
    """The problem turned by e^{i*theta}, by the rules of each boundary
    kind: the field and Neumann data times e^{i*theta}, the Robin
    constant a times e^{-i*theta}, Dirichlet data unchanged."""
    phase = np.exp(1j * theta)
    turned = CoefficientField(lxx=fld.lxx * phase, lyy=fld.lyy * phase, m=fld.m * phase,
                              scalar_l=fld.scalar_l)
    if bc.kind == "neumann":
        return turned, NeumannBC(g=lambda x, y: phase * bc.g(x, y))
    if bc.kind == "robin":
        return turned, RobinBC(a=bc.a * np.conj(phase), g=bc.g)
    return turned, bc


class TestRotate:
    @pytest.mark.parametrize("theta", [0.0, 0.05, -0.7, 2.0, np.pi])
    @pytest.mark.parametrize("field, bc", [
        ("random", DirichletBC(f=GDATA)),
        ("random", NeumannBC(g=GDATA)),
        ("random", RobinBC(a=-1 + 0.5j, g=GDATA)),
        # c = -i/a = i, so A2 = 0 stores no entries while A1 stores 169
        ("imaginary", RobinBC(a=-1.0, g=GDATA)),
    ], ids=["dirichlet", "neumann", "robin", "robin-empty-a2"])
    def test_phase_is_the_rotated_problem(self, field, bc, theta):
        g = build_grid(UNIT, 5, 5)
        fld = (TestStructure.rand_field(g, 3) if field == "random"
               else CoefficientField.constant(g, 1j, 1j))
        s0 = assemble_system(g, fld, bc)
        if field == "imaginary":
            assert (s0.a1.nnz, s0.a2.nnz) == (169, 0)
        got = rotate(s0, theta)
        ref = assemble_system(g, *rotated_problem(fld, bc, theta))
        k_got, k_ref = got.a2 + 1j * got.a1.mat, ref.a2 + 1j * ref.a1.mat
        assert abs(k_got - k_ref).max() <= 1e-14 * abs(k_ref).max()
        f_got, f_ref = got.b2 + 1j * got.b1, ref.b2 + 1j * ref.b1
        assert np.abs(f_got - f_ref).max() <= 1e-14 * np.abs(f_ref).max()
        np.testing.assert_array_equal(got.lifting, ref.lifting)
        np.testing.assert_array_equal(got.free_nodes, ref.free_nodes)
