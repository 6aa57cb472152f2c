"""Error norms, the Galerkin oracle, convergence studies, and sweeps.

The error metric throughout is the V-norm,

    ||(u', u'')||_V = (||u'||_H1^2 + ||u''||_H1^2)^(1/2),

evaluated per element with a Gauss rule one order higher than assembly's.
Ground truth for problems without a manufactured solution is the Galerkin
oracle, a direct solve of the complex form (A2 + i A1) alpha = b2 + i b1
of the unrotated block system.  It checks the rotation and the nested
saddle-point solve; manufactured solutions check the discretization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assemble import BlockSystem, DirichletBC, assemble_system
from .coeff import AcousticParams, CoefficientField
from .grid import Grid, build_grid, gauss_points
from .solve import ProblemSpec, SolutionField, SolveError, check_rotation, solve
from .sparse import PcgConfig


# ----------------------------------------------------------------------
# Error norms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """V-norm and per-component errors of a discrete solution.

    ``v2`` is the squared V-norm error; by definition it equals
    ``h1_re**2 + h1_im**2``.
    """

    v2: float
    h1_re: float
    h1_im: float


def _fd_gradient(fn, step=1e-6):
    def grad(x, y):
        gx = (fn(x + step, y) - fn(x - step, y)) / (2.0 * step)
        gy = (fn(x, y + step) - fn(x, y - step)) / (2.0 * step)
        return gx, gy
    return grad


def v_norm_error(sol: SolutionField, exact, exact_grad=None) -> ErrorReport:
    """V-norm error of ``sol`` against an exact solution.

    The per-direction Gauss order is 3, above assembly's 2, to keep
    superconvergence effects out of the measured norm.

    Parameters
    ----------
    sol : SolutionField
    exact : callable
        Complex exact solution u(x, y); must broadcast over arrays.
    exact_grad : callable, optional
        (du/dx, du/dy); defaults to central differences with step 1e-6.
    """
    if exact_grad is None:
        exact_grad = _fd_gradient(exact)
    grid = sol.grid
    conn = grid.elements
    uc = sol.u[conn]  # (n_elem, 4) complex
    corners = grid.nodes[conn[:, 0]]

    l2 = np.zeros(2)
    semi = np.zeros(2)
    for (a, b), w, n, dx, dy in gauss_points(grid.hx, grid.hy, 3):
        x = corners[:, 0] + (a + 1.0) * grid.hx / 2.0
        y = corners[:, 1] + (b + 1.0) * grid.hy / 2.0
        eu = uc @ n - exact(x, y)
        gx, gy = exact_grad(x, y)
        ex = uc @ dx - gx
        ey = uc @ dy - gy
        l2 += w * np.array([np.sum(eu.real ** 2), np.sum(eu.imag ** 2)])
        semi += w * np.array([
            np.sum(ex.real ** 2) + np.sum(ey.real ** 2),
            np.sum(ex.imag ** 2) + np.sum(ey.imag ** 2),
        ])
    h1 = np.sqrt(l2 + semi)
    return ErrorReport(v2=float(h1[0] ** 2 + h1[1] ** 2),
                       h1_re=float(h1[0]), h1_im=float(h1[1]))


# ----------------------------------------------------------------------
# Sparse complex Galerkin oracle
# ----------------------------------------------------------------------

def galerkin_oracle(grid: Grid, fld: CoefficientField, bc) -> np.ndarray:
    """Sparse direct solve of the complex Galerkin system (A2 + i A1)
    alpha = b2 + i b1 on the free nodes of ``assemble_system(grid, fld,
    bc)``, plus its Dirichlet lifting.

    The system is the unrotated one, so any field and boundary condition
    with a nonsingular K will do.  Returns the complex nodal solution over
    all nodes.
    """
    s = assemble_system(grid, fld, bc)
    u = s.lifting.copy()
    u[s.free_nodes] += spla.spsolve(s.a2 + 1j * s.a1.mat, s.b2 + 1j * s.b1)
    return u


def _fine_oracle(spec: ProblemSpec) -> SolutionField:
    """Galerkin oracle of ``spec`` on the nested refinement with 2N-1 nodes
    per side, the reference of the sweeps: the same-grid oracle would only
    measure solver noise."""
    fine = build_grid(spec.domain, 2 * spec.nx - 1, 2 * spec.ny - 1)
    return SolutionField(grid=fine, u=galerkin_oracle(fine, spec.build_field(fine), spec.bc),
                         free_nodes=np.arange(fine.n_nodes))


# ----------------------------------------------------------------------
# Convergence study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceStudy:
    """Rows of (nodes per side, h, ErrorReport) plus the fitted slope of
    log(V^2 error) against log h (None when errors vanish)."""

    rows: list
    slope: float


def convergence_study(spec: ProblemSpec, n_list, exact, exact_grad=None) -> ConvergenceStudy:
    """Refinement study on square grids of ``n_list`` nodes per side.

    The grids must refine strictly; at least three are required for a
    meaningful least-squares rate.
    """
    n_list = list(n_list)
    if len(n_list) < 3:
        raise ValueError("need at least 3 grid sizes for a convergence study")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    rows = []
    for n in n_list:
        sol = solve(spec.with_grid_size(n))
        rows.append((n, sol.grid.hx, v_norm_error(sol, exact, exact_grad)))
    return ConvergenceStudy(rows=rows, slope=v2_slope(rows))


def v2_slope(rows):
    """Least-squares slope of log(V^2 error) against log h over rows of
    (n, h, ErrorReport); None unless every error is positive."""
    hs = np.array([h for _, h, _ in rows])
    v2 = np.array([rep.v2 for _, _, rep in rows])
    if not np.all(v2 > 0.0):
        return None
    return float(np.polyfit(np.log(hs), np.log(v2), 1)[0])


# ----------------------------------------------------------------------
# Spectra
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstitutiveSpectrum:
    eigenvalues: np.ndarray
    expected: np.ndarray     # +-|c_j| sorted

    @property
    def max_deviation(self) -> float:
        return float(np.abs(self.eigenvalues - self.expected).max())


def constitutive_spectrum(fld: CoefficientField, element: int) -> ConstitutiveSpectrum:
    """Eigenvalues of the 6x6 coefficient block [[Z'', Z'], [Z', -Z'']].

    For diagonal Z = diag(c_1, c_2, c_3) they are +-|c_j|; the comparison
    values are returned alongside the dense computation.  Works for any
    diagonal Z, including the inadmissible Z'' = 0 limit (diagnostics).
    """
    c = fld.diag_values(element)
    z1 = np.diag(c.real)
    z2 = np.diag(c.imag)
    block = np.block([[z2, z1], [z1, -z2]])
    eigs = np.sort(scipy.linalg.eigvalsh(block))
    expected = np.sort(np.concatenate([np.abs(c), -np.abs(c)]))
    return ConstitutiveSpectrum(eigenvalues=eigs, expected=expected)


@dataclass(frozen=True, eq=False)
class SchurSpectrum:
    raw: np.ndarray            # eigenvalues of A1 + A2^T A1^{-1} A2
    preconditioned: np.ndarray  # eigenvalues of A1^{-1} (A1 + A2^T A1^{-1} A2)

    @property
    def raw_spread(self) -> float:
        return float(self.raw.max() / self.raw.min())

    @property
    def preconditioned_spread(self) -> float:
        return float(self.preconditioned.max() / self.preconditioned.min())


def schur_spectrum(system: BlockSystem) -> SchurSpectrum:
    """Dense spectra of the Schur complement, raw and A1-preconditioned,
    for at most 900 unknowns.

    The preconditioned eigenvalues are real and >= 1 because
    A2^T A1^{-1} A2 is positive semidefinite.
    """
    if system.n > 900:
        raise ValueError(f"dense spectrum limited to 900 unknowns, got {system.n}")
    a1 = system.a1.mat.toarray()
    a2 = system.a2.toarray()
    s = a1 + a2.T @ np.linalg.solve(a1, a2)
    s = 0.5 * (s + s.T)  # symmetrize roundoff
    raw = np.sort(scipy.linalg.eigvalsh(s))
    pre = np.sort(scipy.linalg.eigh(s, a1, eigvals_only=True))
    return SchurSpectrum(raw=raw, preconditioned=pre)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    params: tuple
    value: object
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def omega_sweep(acoustic: AcousticParams, omega_range, cells_per_wavelength: float,
                domain=(0.0, 1.0, 0.0, 1.0)):
    """Accuracy of the acoustic problem as the frequency rises.

    For each omega the grid is chosen so omega*h stays approximately
    constant (``cells_per_wavelength`` cells per wavelength, clamped to
    [9, 27] nodes per side); a ``cells_per_wavelength`` that is not
    positive and finite, or an omega that AcousticParams rejects, raises
    ValueError before any solve.  Each solve is compared in the V-norm
    against the complex Galerkin oracle on the nested refinement with
    2N-1 nodes per side, so the measured error is discretization error,
    not solver noise.  Returns a list of SweepCell((omega, n),
    (ErrorReport, iterations)).
    """
    if not 0.0 < cells_per_wavelength < np.inf:
        raise ValueError(f"cells_per_wavelength must be positive and finite, "
                         f"got {cells_per_wavelength}")
    materials = [dataclasses.replace(acoustic, omega=float(omega)) for omega in omega_range]
    width = domain[1] - domain[0]
    k_scale = np.sqrt(abs(acoustic.rho) / abs(acoustic.kappa))
    rows = []
    for params in materials:
        k_mag = params.omega * k_scale
        h_target = (2.0 * np.pi / k_mag) / cells_per_wavelength
        n = int(np.clip(round(width / h_target) + 1, 9, 27))
        spec = ProblemSpec(
            domain=domain, nx=n, ny=n,
            coeff=params,
            bc=DirichletBC(f=lambda x, y, w=params.omega: np.exp(1j * w * np.asarray(x))),
            rotation="off",
        )
        try:
            sol = solve(spec)
            ref = _fine_oracle(spec)
            rep = v_norm_error(sol, lambda x, y: ref.evaluate(np.column_stack([x, y])),
                               lambda x, y: tuple(ref.gradient(np.column_stack([x, y])).T))
            rows.append(SweepCell(params=(params.omega, n),
                                  value=(rep, sol.info.iters_outer)))
        except SolveError as exc:
            rows.append(SweepCell(params=(params.omega, n), value=None, error=str(exc)))
    return rows


def pcg_iteration_sweep(coeff, n_list, tol_list, domain=(0.0, 1.0, 0.0, 1.0),
                        rotation="auto", mode: str = "implicit", bc=DirichletBC(f=1.0 + 0.0j)):
    """Outer PCG iteration counts across grid sizes and tolerances.

    ``coeff`` is a CoefficientField builder (Grid -> field) or an (L, M)
    pair of constants.  Every solve has the boundary condition ``bc``, by
    default Dirichlet with unit data.  The rotation policy and every
    tolerance are checked before the first solve (SolveError of stage
    setup, ValueError).
    Returns (cells, flatness) where cells is a list of SweepCell((n, tol),
    iterations) and flatness maps each tolerance to max-min of the
    iteration counts over the grid sizes.
    """
    if isinstance(coeff, tuple):
        L, M = coeff
        builder = lambda g: CoefficientField.constant(g, L, M)
    else:
        builder = coeff
    check_rotation(rotation)
    configs = [PcgConfig(rel_tol=tol) for tol in tol_list]
    cells = []
    flatness = {}
    for tol, cfg in zip(tol_list, configs):
        counts = []
        for n in n_list:
            spec = ProblemSpec(
                domain=domain, nx=n, ny=n, coeff=builder,
                bc=bc, pcg=cfg, rotation=rotation, mode=mode,
            )
            try:
                sol = solve(spec)
                cells.append(SweepCell(params=(n, tol), value=sol.info.iters_outer))
                counts.append(sol.info.iters_outer)
            except SolveError as exc:
                cells.append(SweepCell(params=(n, tol), value=None, error=str(exc)))
        if counts:
            flatness[tol] = max(counts) - min(counts)
    return cells, flatness


@dataclass(frozen=True)
class RotationSweepRow:
    theta: float
    admissible: bool
    error_vs_oracle: float = None
    max_diff_vs_base: float = None


def rotation_sweep(spec: ProblemSpec, theta_list):
    """Discretization error as the coefficient rotation angle varies.

    Every admissible theta yields the same discrete solution up to solver
    tolerance, so the error stays flat until the admissibility boundary
    is approached.  The reference is the complex Galerkin oracle on the
    nested refinement with 2N-1 nodes per side, restricted to the coarse
    nodes.  A non-finite angle raises SolveError of stage setup before
    the first solve.  An angle that ``solve`` rejects at stage
    admissibility is flagged and skipped; any other SolveError
    propagates.  Returns (rows, base_error) with errors in the relative
    nodal 2-norm.
    """
    for theta in theta_list:
        check_rotation(float(theta))
    # the theta = 0 solve validates the inputs before the oracle sees them
    base = solve(dataclasses.replace(spec, rotation=0.0))
    grid = base.grid
    fine = _fine_oracle(spec)
    # coarse node (i, j) is fine node (2i, 2j)
    i, j = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny))
    reference = np.empty(grid.n_nodes, dtype=complex)
    reference[grid.node_id(i, j)] = fine.u[fine.grid.node_id(2 * i, 2 * j)]
    rnorm = np.linalg.norm(reference)
    base_err = float(np.linalg.norm(base.u - reference) / rnorm)
    base_scale = float(np.abs(base.u).max())

    rows = []
    for theta in theta_list:
        try:
            sol = solve(dataclasses.replace(spec, rotation=float(theta)))
        except SolveError as exc:
            if exc.stage != "admissibility":
                raise
            rows.append(RotationSweepRow(theta=float(theta), admissible=False))
            continue
        err = float(np.linalg.norm(sol.u - reference) / rnorm)
        diff = float(np.abs(sol.u - base.u).max() / base_scale)
        rows.append(RotationSweepRow(theta=float(theta), admissible=True,
                                     error_vs_oracle=err, max_diff_vs_base=diff))
    return rows, base_err
