"""Six-step solution of the assembled block system.

    1. form A1 and A2            4. PCG solve (A1 + A2^T A1^{-1} A2) a' = w1,
    2. compute b1 and b2            preconditioned by A1
    3. w1 = b1 + A2^T A1^{-1} b2 5. w2 = -b2 + A2 a'
                                 6. solve A1 a'' = w2

Both N x N systems are symmetric positive definite.  A rotation pre-pass
multiplies inadmissible coefficients by e^{i*theta} (policy "auto",
"off", or an explicit angle) and transforms the boundary data
accordingly: Neumann flux data g becomes e^{i*theta} g, the Robin
coupling constant a becomes e^{-i*theta} a (its data g is unchanged),
and Dirichlet data is untouched because the unknown u is not rotated.
After the two-stage solve the residual of the full 2N x 2N saddle system
is always computed and reported.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .assemble import (
    AssemblyError, BoundaryData, DirichletBC, NeumannBC, NonFiniteDataError, RobinBC,
    assemble_system,
)
from .coeff import (
    CoefficientField, HalfPlaneError, admissibility, auto_rotation_angle, rotate,
)
from .grid import Grid, build_grid, gauss_points, shape_gradients, shape_values
from .sparse import A1Solver, PcgConfig, PcgError, SchurOperator, pcg


class SolveError(RuntimeError):
    """Solver failure carrying the stage at which it occurred."""

    def __init__(self, stage, msg):
        super().__init__(f"[{stage}] {msg}")
        self.stage = stage


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one boundary-value problem.

    ``coeff`` is either a materialized CoefficientField (element count
    must match the grid) or a callable Grid -> CoefficientField, which
    lets studies rebuild the field on refined grids.  ``rotation`` is
    "auto", "off", or an explicit angle in radians.
    """

    domain: tuple = (0.0, 1.0, 0.0, 1.0)
    nx: int = 17
    ny: int = 17
    coeff: object = None
    bc: BoundaryData = None
    pcg: PcgConfig = field(default_factory=PcgConfig)
    rotation: object = "auto"
    mode: str = "implicit"

    def with_grid_size(self, n: int) -> "ProblemSpec":
        return dataclasses.replace(self, nx=n, ny=n)

    def build_grid(self) -> Grid:
        return build_grid(self.domain, self.nx, self.ny)

    def build_field(self, grid: Grid) -> CoefficientField:
        if isinstance(self.coeff, CoefficientField):
            if self.coeff.n_elements != grid.n_elements:
                raise SolveError(
                    "setup", "materialized coefficient field does not match the grid; "
                    "pass a callable to let studies rebuild it"
                )
            return self.coeff
        if callable(self.coeff):
            return self.coeff(grid)
        raise SolveError("setup", f"cannot build coefficients from {type(self.coeff)!r}")


@dataclass(frozen=True)
class SolveInfo:
    bc_kind: str
    mode: str
    n_free: int
    iters_rhs: int          # step 3 inner solve
    iters_outer: int        # step 4 Schur PCG
    iters_imag: int         # step 6 A1 solve
    inner_iterations: int   # all nested A1 PCG iterations combined
    residual_rel: float     # relative residual of the full block system
    rel_tol: float
    wall_time: float
    outer_residuals: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Nodal solution u = u' + i u'' with evaluation anywhere in the domain."""

    grid: Grid
    u: np.ndarray = field(repr=False)           # complex nodal values, all nodes
    free_nodes: np.ndarray = field(repr=False)
    theta_applied: float = 0.0
    info: SolveInfo = None

    def _locate(self, points):
        """Corner values (m, 4) and reference coordinates of the element
        holding each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        e = self.grid.element_of_point(x, y)
        xi, eta = self.grid.local_coords(e, x, y)
        return self.u[self.grid.elements[e]], xi, eta

    def evaluate(self, points) -> np.ndarray:
        """Bilinear interpolation at points, shape (m, 2) or a single (x, y)."""
        corner, xi, eta = self._locate(points)
        out = (corner * shape_values(xi, eta).T).sum(axis=1)
        return out if np.ndim(points) > 1 else out[0]

    def gradient(self, points) -> np.ndarray:
        """Element-wise gradient of the interpolant, shape (m, 2) complex."""
        corner, xi, eta = self._locate(points)
        dxi, deta = shape_gradients(xi, eta)
        out = np.column_stack([
            (corner * (dxi * 2.0 / self.grid.hx).T).sum(axis=1),
            (corner * (deta * 2.0 / self.grid.hy).T).sum(axis=1),
        ])
        return out if np.ndim(points) > 1 else out[0]


def _rotated_bc(bc: BoundaryData, theta: float) -> BoundaryData:
    if theta == 0.0 or bc.kind == "dirichlet":
        return bc
    phase = np.exp(1j * theta)
    if bc.kind == "neumann":
        g = bc.g
        if isinstance(g, numbers.Number):
            return NeumannBC(g=complex(g) * phase)
        return NeumannBC(g=lambda x, y: phase * np.asarray(g(x, y), dtype=complex))
    # Robin: the flux variable rotates, so the coupling constant counter-
    # rotates while the data g is unchanged.
    try:
        return RobinBC(a=complex(bc.a) * np.conj(phase), g=bc.g)
    except AssemblyError as exc:
        raise SolveError(
            "rotation",
            f"rotation by theta={theta:.6f} makes the Robin constant invalid: {exc}; "
            "use an explicit theta or rotation='off'",
        ) from exc


def _resolve_rotation(spec: ProblemSpec, fld: CoefficientField) -> float:
    policy = spec.rotation
    if policy == "off":
        return 0.0
    if policy == "auto":
        try:
            return auto_rotation_angle(fld)
        except HalfPlaneError as exc:
            raise SolveError("rotation", str(exc)) from exc
    if isinstance(policy, numbers.Number):
        return float(policy)
    raise SolveError("setup", f"unknown rotation policy {policy!r}")


def _check_inputs(fld: CoefficientField, bc) -> None:
    """Reject a missing boundary condition and non-finite coefficients
    before anything is rotated or assembled.  Non-finite boundary data is
    caught where assembly samples it (NonFiniteDataError)."""
    if not isinstance(bc, (DirichletBC, NeumannBC, RobinBC)):
        raise SolveError("setup", f"boundary condition must be Dirichlet, Neumann or Robin, "
                                  f"got {type(bc).__name__}")
    for name, values in (("Lxx", fld.lxx), ("Lyy", fld.lyy), ("M", fld.m)):
        if not np.all(np.isfinite(values)):
            raise SolveError("setup", f"coefficient {name} has non-finite values")


def setup(spec: ProblemSpec):
    """Every stage before the solve: grid, coefficient field, input checks,
    rotation, admissibility, rotated boundary data and assembly.  Returns
    (grid, theta, system); failures are raised as SolveError with the stage
    label setup / rotation / admissibility / assembly."""
    try:
        grid = spec.build_grid()
    except ValueError as exc:
        raise SolveError("setup", str(exc)) from exc
    fld0 = spec.build_field(grid)
    _check_inputs(fld0, spec.bc)

    theta = _resolve_rotation(spec, fld0)
    fld = rotate(fld0, theta) if theta != 0.0 else fld0
    rep = admissibility(fld)
    if not rep.ok:
        raise SolveError(
            "admissibility",
            f"coefficients not admissible after rotation policy {spec.rotation!r} "
            f"(theta={theta:.6f}, min Im L={rep.min_im_l:.3e}, min Im M={rep.min_im_m:.3e})",
        )
    bc = _rotated_bc(spec.bc, theta)

    try:
        system = assemble_system(grid, fld, bc)
    except NonFiniteDataError as exc:
        raise SolveError("setup", str(exc)) from exc
    except AssemblyError as exc:
        raise SolveError("assembly", str(exc)) from exc
    return grid, theta, system


def solve(spec: ProblemSpec) -> SolutionField:
    """Solve the problem described by ``spec``.

    Returns a SolutionField whose coefficients satisfy the full block
    system to a relative residual reported in ``info.residual_rel``
    (within 10x the configured outer tolerance).  Failures are raised as
    SolveError with the stage label (setup / admissibility / rotation /
    assembly / step 3 / step 4 / step 6).
    """
    t0 = time.perf_counter()
    grid, theta, system = setup(spec)

    cfg = spec.pcg
    solver = A1Solver(system, mode=spec.mode, rel_tol=cfg.inner_rel_tol, max_iter=cfg.max_iter)
    n = system.n
    bnorm = float(np.sqrt(np.linalg.norm(system.b1) ** 2 + np.linalg.norm(system.b2) ** 2))

    iters_rhs = iters_outer = iters_imag = 0
    outer_res = np.zeros(0)
    if bnorm == 0.0:
        alpha_re = np.zeros(n)
        alpha_im = np.zeros(n)
    else:
        atol = cfg.inner_rel_tol * bnorm
        try:
            before = solver.total_iters
            z = solver.solve(system.b2, atol=atol)
            iters_rhs = solver.total_iters - before
        except PcgError as exc:
            raise SolveError("step 3 (rhs reduction)", str(exc)) from exc
        w1 = system.b1 + system.a2.T @ z

        schur = SchurOperator(solver)
        try:
            res = pcg(schur.apply, solver.solve, w1, cfg, atol=cfg.rel_tol * bnorm)
        except PcgError as exc:
            raise SolveError("step 4 (Schur solve)", str(exc)) from exc
        alpha_re = res.x
        iters_outer = res.iters
        outer_res = res.residuals

        w2 = -system.b2 + system.a2 @ alpha_re
        try:
            before = solver.total_iters
            alpha_im = solver.solve(w2, atol=atol)
            iters_imag = solver.total_iters - before
        except PcgError as exc:
            raise SolveError("step 6 (imaginary part)", str(exc)) from exc

    residual = system.block_residual(alpha_re, alpha_im)
    u = system.lifting.copy()
    u[system.free_nodes] += alpha_re + 1j * alpha_im

    info = SolveInfo(
        bc_kind=system.bc_kind, mode=spec.mode, n_free=n,
        iters_rhs=iters_rhs, iters_outer=iters_outer, iters_imag=iters_imag,
        inner_iterations=solver.total_iters, residual_rel=float(residual),
        rel_tol=cfg.rel_tol, wall_time=time.perf_counter() - t0,
        outer_residuals=outer_res,
    )
    return SolutionField(grid=grid, u=u, free_nodes=system.free_nodes,
                         theta_applied=theta, info=info)


# ----------------------------------------------------------------------
# Saddle functional
# ----------------------------------------------------------------------

def saddle_functional_Y(grid: Grid, fld: CoefficientField,
                        u_re: np.ndarray, u_im: np.ndarray) -> float:
    """Quadrature value of the saddle functional for nodal fields.

    With F' = (grad u', u') and F'' = (grad u'', u''), integrates
    F'.Z''F' + 2 F'.Z'F'' - F''.Z''F'' over the domain.  The discrete
    solution is a saddle point: adding an interior perturbation s to u'
    increases Y by the positive quantity int S.Z''S, and adding it to u''
    decreases Y by the same amount.
    """
    if fld.n_elements != grid.n_elements:
        raise ValueError("field does not match grid")
    conn = grid.elements
    re_c = np.asarray(u_re, dtype=float)[conn]   # (n_elem, 4)
    im_c = np.asarray(u_im, dtype=float)[conn]

    lx2, ly2, m2 = fld.lxx.imag, fld.lyy.imag, fld.m.imag
    lx1, ly1, m1 = fld.lxx.real, fld.lyy.real, fld.m.real

    total = 0.0
    for _, w, n, dx, dy in gauss_points(grid.hx, grid.hy, 2):
        upx, upy, up = re_c @ dx, re_c @ dy, re_c @ n
        vpx, vpy, vp = im_c @ dx, im_c @ dy, im_c @ n
        quad = (
            lx2 * upx ** 2 + ly2 * upy ** 2 + m2 * up ** 2
            + 2.0 * (lx1 * upx * vpx + ly1 * upy * vpy + m1 * up * vp)
            - (lx2 * vpx ** 2 + ly2 * vpy ** 2 + m2 * vp ** 2)
        )
        total += w * quad.sum()
    return float(total)
