"""Six-step solution of the assembled block system.

    1. form A1 and A2            4. PCG solve (A1 + A2^T A1^{-1} A2) a' = w1,
    2. compute b1 and b2            preconditioned by A1
    3. w1 = b1 + A2^T A1^{-1} b2 5. w2 = -b2 + A2 a'
                                 6. solve A1 a'' = w2

Both N x N systems are symmetric positive definite.  While the residual
of the full 2N x 2N saddle system breaks the contract, steps 3-6 are
applied to it and the correction is added.  The method needs Im > 0 for
every value that enters K = A2 + i A1: L, M and, for Robin data,
c = -i/a.  ``setup`` picks an angle theta (policy "auto", "off", or an
explicit angle), checks those values turned by e^{i*theta}, and
multiplies the assembled system by e^{i*theta}, which leaves the
solution unchanged.  "auto" turns c along with L and M only if it must.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .assemble import (
    AssemblyError, BoundaryData, DirichletBC, NeumannBC, RobinBC, assemble_system, rotate,
    volume_blocks,
)
from .coeff import CoefficientField, HalfPlaneError, admissibility, auto_rotation_angle
from .grid import Grid, build_grid, shape_gradients, shape_values
from .sparse import A1Solver, PcgConfig, PcgError, SchurOperator, pcg

CONTRACT_FACTOR = 10.0   # solve returns only a block residual <= CONTRACT_FACTOR * rel_tol
MAX_REFINEMENTS = 3      # rounds of steps 3-6 on the block residual


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
    "auto", "off", or a finite angle in radians; ``mode`` is
    "implicit" or "direct".
    """

    domain: tuple = (0.0, 1.0, 0.0, 1.0)
    nx: int = 17
    ny: int = 17
    coeff: object = None
    bc: BoundaryData = None
    pcg: PcgConfig = field(default_factory=PcgConfig)
    rotation: object = "auto"
    mode: str = "implicit"

    def __post_init__(self):
        if self.mode not in ("implicit", "direct"):
            raise ValueError(f"solver mode must be implicit or direct, got {self.mode!r}")

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
    """Counts of one solve; the step counts and ``outer_residuals`` are
    those of the first pass of steps 3-6."""

    bc_kind: str
    mode: str
    n_free: int
    iters_rhs: int          # step 3 inner solve
    iters_outer: int        # step 4 Schur PCG
    iters_imag: int         # step 6 A1 solve
    inner_iterations: int   # all nested A1 PCG iterations, refinements included
    residual_rel: float     # relative residual of the full block system
    rel_tol: float
    wall_time: float
    outer_residuals: np.ndarray = field(default=None, repr=False)
    refinements: int = 0    # rounds of steps 3-6 on the block residual


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


def check_rotation(policy) -> None:
    """Reject a rotation policy other than "auto", "off" or a finite angle
    as a SolveError of stage setup."""
    if isinstance(policy, numbers.Number):
        if not np.isfinite(policy):
            raise SolveError("setup", f"rotation angle must be finite, got {policy!r}")
    elif policy not in ("auto", "off"):
        raise SolveError("setup", f"unknown rotation policy {policy!r}")


def _resolve_rotation(policy, values: np.ndarray, robin: np.ndarray) -> float:
    """The angle of a rotation policy.  "auto" takes the max-margin angle of
    ``values``, or of ``values`` and ``robin`` if that one leaves a Robin
    constant inadmissible; SolveError of stage rotation if there is none."""
    check_rotation(policy)
    if policy == "off":
        return 0.0
    if policy != "auto":
        return float(policy)
    try:
        theta = auto_rotation_angle(values)
        if np.any((np.exp(1j * theta) * robin).imag <= 0.0):
            theta = auto_rotation_angle(np.append(values, robin))
    except HalfPlaneError as exc:
        raise SolveError("rotation", str(exc)) from exc
    return theta


def _check_inputs(fld: CoefficientField, bc) -> None:
    """Reject a missing boundary condition and non-finite coefficients
    before anything is rotated or assembled.  Boundary data is checked
    where assembly samples it (AssemblyError)."""
    if not isinstance(bc, (DirichletBC, NeumannBC, RobinBC)):
        raise SolveError("setup", f"boundary condition must be Dirichlet, Neumann or Robin, "
                                  f"got {type(bc).__name__}")
    for name, values in (("Lxx", fld.lxx), ("Lyy", fld.lyy), ("M", fld.m)):
        if not np.all(np.isfinite(values)):
            raise SolveError("setup", f"coefficient {name} has non-finite values")


def setup(spec: ProblemSpec):
    """Every stage before the solve: grid, coefficient field, input checks,
    rotation angle, admissibility, assembly and rotation.  Returns (theta,
    system), the grid being ``system.grid``; failures are raised as
    SolveError with the stage label setup / rotation / admissibility.
    Every AssemblyError is a fault in the input (field size, boundary
    data), so it is stage setup."""
    try:
        grid = spec.build_grid()
    except ValueError as exc:
        raise SolveError("setup", str(exc)) from exc
    fld = spec.build_field(grid)
    _check_inputs(fld, spec.bc)

    robin = np.array([-1j / spec.bc.a] if spec.bc.kind == "robin" else [], dtype=complex)
    theta = _resolve_rotation(spec.rotation, fld.all_values(), robin)
    rep = admissibility(fld, theta)
    im_c = (np.exp(1j * theta) * robin).imag
    if not (rep.ok and np.all(im_c > 0.0)):
        raise SolveError(
            "admissibility",
            f"coefficients not admissible after rotation policy {spec.rotation!r} "
            f"(theta={theta:.6f}, min Im L={rep.min_im_l:.3e}, min Im M={rep.min_im_m:.3e}"
            + "".join(f", Im c={v:.3e}" for v in im_c) + ")",
        )
    try:
        system = assemble_system(grid, fld, spec.bc)
    except AssemblyError as exc:
        raise SolveError("setup", str(exc)) from exc
    return theta, rotate(system, theta)


def solve(spec: ProblemSpec) -> SolutionField:
    """Solve the problem described by ``spec``.

    Returns a SolutionField whose coefficients satisfy the full block
    system to a relative residual ``info.residual_rel`` of at most
    ``CONTRACT_FACTOR`` times the outer tolerance ``spec.pcg.rel_tol``;
    the nested A1 solves run to ``spec.pcg.inner_rel_tol``.  Steps 3-6 are
    re-applied to the block residual until it meets that contract, at
    most ``MAX_REFINEMENTS`` times (``info.refinements``).  Failures are
    raised as SolveError with the stage label (setup / admissibility /
    rotation / step 3 / step 4 / step 6 / residual).
    """
    t0 = time.perf_counter()
    theta, system = setup(spec)

    cfg = spec.pcg
    solver = A1Solver(system, mode=spec.mode, rel_tol=cfg.inner_rel_tol)
    schur = SchurOperator(solver)
    bnorm = float(np.sqrt(np.linalg.norm(system.b1) ** 2 + np.linalg.norm(system.b2) ** 2))
    atol = cfg.inner_rel_tol * bnorm

    def steps_3_to_6(b1, b2):
        """(a', a'', outer PcgResult, step 3 and step 6 inner iterations)
        of the block system with right-hand side (b1, b2)."""
        step, start = "step 3 (rhs reduction)", solver.total_iters
        try:
            z = solver.solve(b2, atol=atol)
            iters_rhs = solver.total_iters - start
            step = "step 4 (Schur solve)"
            res = pcg(schur.apply, solver.solve, b1 + system.a2.T @ z, cfg,
                      atol=cfg.rel_tol * bnorm)
            step, start = "step 6 (imaginary part)", solver.total_iters
            alpha_im = solver.solve(-b2 + system.a2 @ res.x, atol=atol)
        except PcgError as exc:
            raise SolveError(step, str(exc)) from exc
        return res.x, alpha_im, res, iters_rhs, solver.total_iters - start

    alpha_re, alpha_im, res, iters_rhs, iters_imag = steps_3_to_6(system.b1, system.b2)
    residual = system.block_residual(alpha_re, alpha_im)
    refinements = 0
    while not residual <= CONTRACT_FACTOR * cfg.rel_tol:
        if refinements == MAX_REFINEMENTS:
            raise SolveError("residual", f"block residual {residual:.3e} exceeds "
                                         f"{CONTRACT_FACTOR:g} * rel_tol after "
                                         f"{refinements} refinement rounds")
        d_re, d_im, *_ = steps_3_to_6(*system.residual_blocks(alpha_re, alpha_im))
        alpha_re, alpha_im = alpha_re + d_re, alpha_im + d_im
        refinements += 1
        residual = system.block_residual(alpha_re, alpha_im)

    u = system.lifting.copy()
    u[system.free_nodes] += alpha_re + 1j * alpha_im

    info = SolveInfo(
        bc_kind=system.bc_kind, mode=spec.mode, n_free=system.n,
        iters_rhs=iters_rhs, iters_outer=res.iters, iters_imag=iters_imag,
        inner_iterations=solver.total_iters, residual_rel=float(residual),
        rel_tol=cfg.rel_tol, wall_time=time.perf_counter() - t0,
        outer_residuals=res.residuals, refinements=refinements,
    )
    return SolutionField(grid=system.grid, u=u, free_nodes=system.free_nodes,
                         theta_applied=theta, info=info)


# ----------------------------------------------------------------------
# Saddle functional
# ----------------------------------------------------------------------

def saddle_functional_Y(grid: Grid, fld: CoefficientField,
                        u_re: np.ndarray, u_im: np.ndarray) -> float:
    """Value of the saddle functional for nodal fields, the quadratic form
    u'.A1 u' + 2 u'.A2 u'' - u''.A1 u'' of the volume blocks over all nodes.

    With F' = (grad u', u') and F'' = (grad u'', u'') this is the integral
    of F'.Z''F' + 2 F'.Z'F'' - F''.Z''F'' over the domain.  The discrete
    solution is a saddle point: adding an interior perturbation s to u'
    increases Y by the positive quantity int S.Z''S, and adding it to u''
    decreases Y by the same amount.  A field of the wrong size raises
    AssemblyError.
    """
    a1, a2 = volume_blocks(grid, fld)
    u_re = np.asarray(u_re, dtype=float)
    u_im = np.asarray(u_im, dtype=float)
    return float(u_re @ (a1 @ u_re) + 2.0 * (u_re @ (a2 @ u_im)) - u_im @ (a1 @ u_im))
