import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from helmfem import (
    A1Solver, CoefficientField, DirichletBC, IcBreakdownError, Multigrid, NeumannBC,
    PcgBreakdownError, PcgConfig, PcgNonConvergenceError, RobinBC, SchurOperator,
    SparseSym, assemble_system, build_grid, ic0, pcg,
)
from helmfem.sparse import _prolong_1d

UNIT = (0.0, 1.0, 0.0, 1.0)


def matvec(a):
    return lambda x: a @ x


def laplacian_2d(n):
    """5-point Laplacian on an n x n interior grid (SPD)."""
    main = 4.0 * np.ones(n * n)
    off1 = -np.ones(n * n - 1)
    off1[np.arange(1, n * n) % n == 0] = 0.0
    offn = -np.ones(n * n - n)
    return sps.diags([main, off1, off1, offn, offn], [0, -1, 1, -n, n]).tocsr()


class TestPcg:
    def test_identity_single_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        res = pcg(lambda x: x, None, b)
        assert res.iters == 1
        np.testing.assert_allclose(res.x, b, atol=1e-14)

    def test_diagonal_solve(self):
        a = np.diag([1.0, 2.0, 3.0])
        res = pcg(matvec(a), None, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-10)

    def test_random_spd_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((50, 50))
        a = g.T @ g + np.eye(50)
        b = rng.standard_normal(50)
        expected = np.linalg.solve(a, b)
        res = pcg(matvec(a), None, b, PcgConfig(rel_tol=1e-12))
        np.testing.assert_allclose(res.x, expected, atol=1e-8)
        assert res.residuals[-1] <= 1e-12

    def test_zero_rhs(self):
        res = pcg(lambda x: x, None, np.zeros(4))
        assert res.iters == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_breakdown_on_indefinite_operator(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(PcgBreakdownError):
            pcg(matvec(a), None, np.array([0.0, 1.0]))

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(PcgConfig, "iter_limit", lambda self, n: 3)
        a = laplacian_2d(10)
        b = np.ones(a.shape[0])
        with pytest.raises(PcgNonConvergenceError, match="within 3 iterations"):
            pcg(matvec(a), None, b, PcgConfig(rel_tol=1e-12, inner_rel_tol=1e-12))

    def test_energy_norm_error_monotone(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((40, 40))
        a = g.T @ g + 5 * np.eye(40)
        x_true = rng.standard_normal(40)
        b = a @ x_true
        errors = []
        x = np.zeros(40)
        r = b.copy()
        p = r.copy()
        rz = r @ r
        for _ in range(30):
            q = a @ p
            alpha = rz / (p @ q)
            x = x + alpha * p
            r = r - alpha * q
            e = x - x_true
            errors.append(np.sqrt(e @ a @ e))
            rz_new = r @ r
            p = r + (rz_new / rz) * p
            rz = rz_new
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))

    def test_residual_history_matches_final(self):
        a = laplacian_2d(6)
        b = np.ones(a.shape[0])
        res = pcg(matvec(a), None, b, PcgConfig(rel_tol=1e-9))
        assert len(res.residuals) == res.iters
        assert np.all(np.isfinite(res.residuals))
        assert res.residuals[-1] <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PcgConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-8)
        with pytest.raises(ValueError):
            PcgConfig(rel_tol=1e-10, inner_rel_tol=0.0)

    def test_inner_tolerance_derived_from_rel_tol(self):
        # min(1e-12, rel_tol / 100) unless given explicitly
        assert PcgConfig().inner_rel_tol == 1e-12
        assert PcgConfig(rel_tol=1e-13).inner_rel_tol == 1e-15
        assert PcgConfig(rel_tol=1e-4).inner_rel_tol == 1e-12
        assert PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-11).inner_rel_tol == 1e-11

    def test_nan_rhs_breaks_down_at_once(self):
        a = laplacian_2d(6)
        b = np.ones(a.shape[0])
        b[3] = np.nan
        calls = []

        def apply_a(x):
            calls.append(1)
            return a @ x

        with pytest.raises(PcgBreakdownError):
            pcg(apply_a, None, b)
        assert len(calls) <= 1


class TestSparseSym:
    def test_wraps_and_multiplies(self):
        a = laplacian_2d(4)
        s = SparseSym(a)
        assert s.nnz == a.nnz
        x = np.arange(16.0)
        np.testing.assert_array_equal(s.matvec(x), a @ x)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SparseSym(sps.csr_matrix(np.ones((2, 3))))


class TestIc0:
    def test_diagonal_matrix_exact(self):
        d = sps.diags([4.0, 9.0, 16.0]).tocsr()
        fac = ic0(d)
        np.testing.assert_allclose(fac.lower.toarray(), np.diag([2.0, 3.0, 4.0]))
        assert fac.shift == 0.0

    def test_tridiagonal_equals_dense_cholesky(self):
        # no fill is possible, so IC(0) must equal the exact factor
        a = sps.diags([np.full(8, 4.0), -np.ones(7), -np.ones(7)], [0, -1, 1]).tocsr()
        fac = ic0(a)
        expected = np.linalg.cholesky(a.toarray())
        np.testing.assert_allclose(fac.lower.toarray(), expected, atol=1e-14)

    def test_solve_applies_inverse(self):
        a = sps.diags([np.full(8, 4.0), -np.ones(7), -np.ones(7)], [0, -1, 1]).tocsr()
        fac = ic0(a)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(8)
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(a.toarray(), b),
                                   atol=1e-12)

    def test_preconditioning_reduces_iterations(self):
        a = laplacian_2d(10)
        b = np.ones(a.shape[0])
        cfg = PcgConfig(rel_tol=1e-10)
        plain = pcg(matvec(a), None, b, cfg)
        fac = ic0(a)
        pre = pcg(matvec(a), fac.solve, b, cfg)
        assert pre.iters < plain.iters

    def test_negative_pivot_triggers_shift(self):
        # indefinite but positive-diagonal: plain factorization breaks down
        a = sps.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        fac = ic0(a)
        assert fac.shift > 0.0
        shifted = a.toarray() + fac.shift * np.eye(2)
        np.testing.assert_allclose(fac.lower.toarray() @ fac.lower.toarray().T,
                                   shifted, atol=1e-12)

    def test_gives_up_after_retries(self):
        a = sps.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IcBreakdownError):
            ic0(a, max_retries=0)

    def test_requires_positive_diagonal(self):
        a = sps.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            ic0(a)


def dirichlet_system(nx, L, M):
    g = build_grid(UNIT, nx, nx)
    f = CoefficientField.constant(g, L, M)
    return assemble_system(g, f, DirichletBC(f=1.0))


class TestSchurOperator:
    def test_zero_a2_reduces_to_a1(self):
        sys_ = dirichlet_system(5, 2j, 3j)
        op = SchurOperator(A1Solver(sys_))
        x = np.arange(1.0, sys_.n + 1)
        np.testing.assert_array_equal(op.apply(x), sys_.a1.matvec(x))

    def test_zero_vector(self):
        sys_ = dirichlet_system(5, 1 + 2j, 2 + 3j)
        op = SchurOperator(A1Solver(sys_))
        np.testing.assert_allclose(op.apply(np.zeros(sys_.n)), 0.0, atol=1e-14)

    def test_matches_dense_oracle(self):
        sys_ = dirichlet_system(6, 1 + 2j, 2 + 3j)
        a1 = sys_.a1.mat.toarray()
        a2 = sys_.a2.toarray()
        dense = a1 + a2.T @ np.linalg.solve(a1, a2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(sys_.n)
        for mode in ("implicit", "direct"):
            op = SchurOperator(A1Solver(sys_, mode=mode, rel_tol=1e-13))
            got = op.apply(x)
            rel = np.linalg.norm(got - dense @ x) / np.linalg.norm(dense @ x)
            assert rel < 1e-10

    def test_operator_symmetry(self):
        sys_ = dirichlet_system(7, 2 + 1j, 1 + 2j)
        rng = np.random.default_rng(4)
        for mode, bound in (("implicit", 1e-8), ("direct", 1e-12)):
            op = SchurOperator(A1Solver(sys_, mode=mode))
            for _ in range(5):
                x = rng.standard_normal(sys_.n)
                y = rng.standard_normal(sys_.n)
                asym = abs(x @ op.apply(y) - y @ op.apply(x))
                assert asym <= bound * np.linalg.norm(x) * np.linalg.norm(y)


class TestA1Solver:
    def test_modes_agree(self):
        sys_ = dirichlet_system(6, 1 + 1j, 2 + 2j)
        b = np.linspace(-1, 1, sys_.n)
        imp = A1Solver(sys_, mode="implicit").solve(b)
        dire = A1Solver(sys_, mode="direct").solve(b)
        np.testing.assert_allclose(imp, dire, atol=1e-9)

    @pytest.mark.parametrize("mode", ["implicit", "direct"])
    def test_non_finite_rhs_breaks_down(self, mode):
        sys_ = dirichlet_system(9, 1 + 1j, 2 + 2j)
        b = np.ones(sys_.n)
        b[3] = np.nan
        with pytest.raises(PcgBreakdownError):
            A1Solver(sys_, mode=mode).solve(b)

    def test_unknown_mode_rejected(self):
        sys_ = dirichlet_system(4, 1j, 1j)
        with pytest.raises(ValueError):
            A1Solver(sys_, mode="cholesky")


# ----------------------------------------------------------------------
# Geometric multigrid
# ----------------------------------------------------------------------

GDATA = lambda x, y: np.exp(0.3 * x) + 2j * np.asarray(y)
MG_BCS = {"dirichlet": DirichletBC(f=1.0), "neumann": NeumannBC(g=GDATA),
          "robin": RobinBC(a=-1 + 1j / 3, g=GDATA)}
MG_COEFFS = {
    "constant": lambda g: CoefficientField.constant(g, 1 + 1j, 2 + 2j),
    "random": lambda g: CoefficientField.random(g, 0.0, 10.0, 1),
    # Im L jumps 1 : 100 across y = 0.5
    "layered": lambda g: CoefficientField.layered(g, "y", 0.5, low=(1 + 1j, 2 + 2j),
                                                  high=(1 + 100j, 2 + 2j)),
}


def mg_system(n, coeff, bc):
    g = build_grid(UNIT, n, n)
    return g, assemble_system(g, MG_COEFFS[coeff](g), MG_BCS[bc])


def assert_weighted_and_coarse_exact(mg):
    """omega_l * max eig(D_l^-1 A_l) <= 1.5 (< 2 keeps the cycle SPD) on
    every smoothing level, by dense eigvalsh (whose rounding may exceed
    the exact Gershgorin bound in the last bits); the explicit coarsest
    inverse is symmetric and agrees with a Cholesky solve."""
    for a, wd, _, _ in mg.levels:
        s = np.sqrt(wd)
        lam = np.linalg.eigvalsh(s[:, None] * a.toarray() * s[None, :])
        assert 0.0 < lam[0] and lam[-1] <= 1.5 * (1 + 1e-12)
    a, _, p, pt = mg.levels[-1]
    coarse = (pt @ a @ p).toarray()
    inv = mg.coarse_inv
    assert np.array_equal(inv, inv.T)
    b = np.random.default_rng(6).standard_normal(len(coarse))
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(coarse), b)
    assert np.linalg.norm(inv @ b - ref) <= 1e-10 * np.linalg.norm(ref)


class TestMultigrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 20])
    def test_prolongation_is_linear_interpolation(self, n):
        # positions of a coarse level with its short last interval
        x = np.append(np.arange(0.0, n - 1), n - 0.5)
        p, kept = _prolong_1d(x)
        assert kept[0] == 0 and kept[-1] == n - 1
        assert len(kept) == (n + 1) // 2 + (n % 2 == 0)
        np.testing.assert_allclose(p @ np.ones(len(kept)), 1.0, atol=1e-15)
        np.testing.assert_allclose(p @ x[kept], x, atol=1e-13)

    @pytest.mark.parametrize("n", [9, 20])
    @pytest.mark.parametrize("coeff", sorted(MG_COEFFS))
    @pytest.mark.parametrize("bc", sorted(MG_BCS))
    def test_v_cycle_symmetric_positive(self, n, coeff, bc):
        g, sys_ = mg_system(n, coeff, bc)
        mg = Multigrid(sys_.a1.mat, g, sys_.free_nodes)
        assert mg.levels, "the fine grid must be coarsened"
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(sys_.n)
            y = rng.standard_normal(sys_.n)
            bx, by = mg.apply(x), mg.apply(y)
            assert x @ bx > 0.0 and y @ by > 0.0
            assert abs(x @ by - y @ bx) <= 1e-12 * np.sqrt((x @ bx) * (y @ by))

    @pytest.mark.parametrize("n", [9, 20])
    @pytest.mark.parametrize("coeff", sorted(MG_COEFFS))
    @pytest.mark.parametrize("bc", sorted(MG_BCS))
    def test_smoother_weight_per_level(self, n, coeff, bc):
        g, sys_ = mg_system(n, coeff, bc)
        assert_weighted_and_coarse_exact(Multigrid(sys_.a1.mat, g, sys_.free_nodes))

    @pytest.mark.parametrize("nx, ny", [(65, 5), (129, 4)])
    def test_smoother_weight_on_stretched_grid(self, nx, ny):
        # max eig(D^-1 A) is about 2.99 here, above the fine-grid 2 of square cells
        g = build_grid(UNIT, nx, ny)
        sys_ = assemble_system(g, MG_COEFFS["constant"](g), MG_BCS["neumann"])
        assert_weighted_and_coarse_exact(Multigrid(sys_.a1.mat, g, sys_.free_nodes))

    @pytest.mark.parametrize("n", [17, 20, 33, 40, 65, 80, 129])
    def test_inner_iterations_mesh_independent(self, n):
        rng = np.random.default_rng(n)
        for coeff in MG_COEFFS:
            for bc in MG_BCS:
                g, sys_ = mg_system(n, coeff, bc)
                solver = A1Solver(sys_, mode="implicit", rel_tol=1e-12)
                b = rng.standard_normal(sys_.n)
                x = solver.solve(b)
                # PCG stops on its recursively updated residual, which
                # drifts slightly from the true one
                assert np.linalg.norm(b - sys_.a1.matvec(x)) <= 1e-11 * np.linalg.norm(b)
                assert solver.total_iters <= 25, (coeff, bc, solver.total_iters)

    def test_anisotropic_rectangle(self):
        g = build_grid((0.0, 2.0, -1.0, 0.5), 40, 6)
        sys_ = assemble_system(g, MG_COEFFS["random"](g), MG_BCS["robin"])
        solver = A1Solver(sys_)
        b = np.linspace(-1.0, 1.0, sys_.n)
        np.testing.assert_allclose(solver.solve(b), A1Solver(sys_, mode="direct").solve(b),
                                   rtol=0, atol=1e-10 * np.abs(b).max())
        assert solver.total_iters <= 25

    def test_non_finite_operator_breaks_down(self):
        g, sys_ = mg_system(5, "constant", "dirichlet")
        a = sys_.a1.mat.copy()
        a.data[:] = np.nan
        with pytest.raises(PcgBreakdownError):
            Multigrid(a, g, sys_.free_nodes)
