"""Assembly of the sparse block system A1, A2, b1, b2.

The solution ansatz u = u' + i u'' with nodal coefficients (alpha', alpha'')
leads to the real block system

    [ A1   A2^T ] [alpha' ]   [b1]
    [ A2  -A1   ] [alpha'']  =  [b2]

where, on the volume, A1 collects the imaginary parts of the coefficients
(grad-grad against Im L plus mass against Im M) and A2 the real parts.
Dirichlet data enters through a nodal lifting baked into b1/b2; Neumann
data through boundary load integrals; Robin data through a 2x2 coupling
of the boundary traces, which adds c = -i/a times the boundary mass
matrix to K (Im c to A1, Re c to A2) and c g to the right-hand side,
preserving the block structure.

The block system is the real form of the complex Galerkin system
K (alpha' + i alpha'') = f on the free nodes, with K = A2 + i A1 and
f = b2 + i b1; ``assemble_system`` is the one place where L, M and each
boundary kind enter it.  Assembly is linear in L, M and the boundary
data, so the problem rotated by a phase e^{i*theta} has the system
e^{i*theta} (K, f): ``rotate`` applies that phase to an assembled system.

All integrals use 2x2 Gauss per element and 2-point Gauss per boundary
edge, which is exact for bilinear basis products against the
piecewise-constant coefficients.  Element contributions are accumulated
in a fixed element order for bit-reproducible matrices.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .coeff import CoefficientField
from .grid import Grid, gauss_1d, gauss_points
from .sparse import SparseSym


class AssemblyError(ValueError):
    """Input that cannot be assembled: a field of the wrong size, a Robin
    constant that is zero or not finite, or boundary data that is not a
    number or a function, or has non-finite values."""


# ----------------------------------------------------------------------
# Element templates
# ----------------------------------------------------------------------

def element_templates(hx: float, hy: float):
    """Template 4x4 matrices (Sx, Sy, Mc) on an hx-by-hy rectangle.

    Sx = integral of dN_k/dx dN_j/dx, Sy likewise in y, Mc = integral of
    N_k N_j, by the 2-point Gauss rule per direction.  Every element of a
    tensor-product grid is congruent, so one template of each kind serves
    the whole mesh.
    """
    sx = np.zeros((4, 4))
    sy = np.zeros((4, 4))
    mc = np.zeros((4, 4))
    for _, w, n, dx, dy in gauss_points(hx, hy, 2):
        sx += w * np.outer(dx, dx)
        sy += w * np.outer(dy, dy)
        mc += w * np.outer(n, n)
    return sx, sy, mc


# ----------------------------------------------------------------------
# Boundary data
# ----------------------------------------------------------------------

def _as_boundary_fn(data):
    """Normalize boundary data to a vectorized complex function of (x, y)."""
    if callable(data):
        return lambda x, y: np.asarray(data(x, y), dtype=complex)
    if isinstance(data, numbers.Number):
        c = complex(data)
        return lambda x, y: np.full(np.shape(np.asarray(x)), c, dtype=complex)
    raise AssemblyError(f"boundary data must be a number or callable, got {type(data)!r}")


@dataclass(frozen=True)
class DirichletBC:
    """Trace data u = f on the boundary; f a complex constant or a
    function f(x, y)."""

    f: object

    kind = "dirichlet"

    def nodal_values(self, grid: Grid) -> np.ndarray:
        out = np.zeros(grid.n_nodes, dtype=complex)
        bn = grid.boundary_nodes
        out[bn] = _as_boundary_fn(self.f)(grid.nodes[bn, 0], grid.nodes[bn, 1])
        return out


@dataclass(frozen=True)
class NeumannBC:
    """Normal flux data v.n = g on the boundary (v the dual variable
    i L grad u); g constant or function of (x, y)."""

    g: object

    kind = "neumann"


@dataclass(frozen=True)
class RobinBC:
    """Impedance condition u + a v.n = g with a finite, nonzero a.

    The boundary term enters K as c = -i/a times the boundary mass
    matrix; ``solve`` requires Im c > 0 after rotation, as it requires
    Im L > 0 and Im M > 0, so that A1 stays positive definite."""

    a: complex
    g: object

    kind = "robin"

    def __post_init__(self):
        a = complex(self.a)
        if not (a != 0.0 and np.isfinite(a)):
            raise AssemblyError(f"Robin coupling constant must be finite and nonzero, got a = {a}")
        object.__setattr__(self, "a", a)


BoundaryData = DirichletBC | NeumannBC | RobinBC


# ----------------------------------------------------------------------
# Block system
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockSystem:
    """Assembled system restricted to the free (non-Dirichlet) nodes.

    ``free_nodes`` maps free-node index -> grid node id.  ``lifting`` holds
    the complex nodal Dirichlet interpolant (zero for Neumann/Robin).
    """

    a1: SparseSym
    a2: sps.csr_matrix = field(repr=False)
    b1: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)
    free_nodes: np.ndarray = field(repr=False)
    lifting: np.ndarray = field(repr=False)
    grid: Grid = field(repr=False)
    bc_kind: str = "dirichlet"

    @property
    def n(self) -> int:
        return len(self.free_nodes)

    def block_matrix_dense(self) -> np.ndarray:
        """Dense [[A1, A2^T], [A2, -A1]] for small-instance checks."""
        a1 = self.a1.mat.toarray()
        a2 = self.a2.toarray()
        return np.block([[a1, a2.T], [a2, -a1]])

    def residual_blocks(self, alpha_re: np.ndarray, alpha_im: np.ndarray):
        """Residual (r1, r2) = (b1, b2) - [[A1, A2^T], [A2, -A1]] (a', a'')."""
        r1 = self.b1 - (self.a1.matvec(alpha_re) + self.a2.T @ alpha_im)
        r2 = self.b2 - (self.a2 @ alpha_re - self.a1.matvec(alpha_im))
        return r1, r2

    def block_residual(self, alpha_re: np.ndarray, alpha_im: np.ndarray) -> float:
        """Relative residual of the full 2N x 2N saddle system."""
        r1, r2 = self.residual_blocks(alpha_re, alpha_im)
        bnorm = np.sqrt(np.linalg.norm(self.b1) ** 2 + np.linalg.norm(self.b2) ** 2)
        rnorm = np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r2) ** 2)
        return rnorm / bnorm if bnorm > 0.0 else rnorm


def element_blocks(grid: Grid, fld: CoefficientField, element: int):
    """Local 4x4 blocks (A1, A2) of one element.

    A1 = Im(Lx) Sx + Im(Ly) Sy + Im(M) Mc, A2 the same with real parts.
    """
    if not 0 <= element < grid.n_elements:
        raise ValueError(f"element {element} out of range")
    sx, sy, mc = element_templates(grid.hx, grid.hy)
    lx, ly, m = fld.lxx[element], fld.lyy[element], fld.m[element]
    a1 = lx.imag * sx + ly.imag * sy + m.imag * mc
    a2 = lx.real * sx + ly.real * sy + m.real * mc
    return a1, a2


def _edge_quadrature(grid: Grid):
    """Per-edge 2-point Gauss data: points (m,2,2), scaled weights (m,2),
    endpoint shape values (2,2)."""
    pts, wts = gauss_1d(2)
    pa = grid.nodes[grid.edge_nodes[:, 0]]
    pb = grid.nodes[grid.edge_nodes[:, 1]]
    mid = 0.5 * (pa + pb)
    half = 0.5 * (pb - pa)
    length = 2.0 * np.hypot(half[:, 0], half[:, 1])
    # q-th Gauss point on every edge: mid + t_q * half
    xq = mid[:, None, :] + pts[None, :, None] * half[:, None, :]
    wq = wts[None, :] * (length[:, None] / 2.0)
    shapes = np.stack([(1.0 - pts) / 2.0, (1.0 + pts) / 2.0])  # (2 endpoints, 2 pts)
    return xq, wq, shapes


def _boundary_mass(grid: Grid) -> sps.csr_matrix:
    """Boundary mass matrix int_dOmega psi_a psi_b dS over all nodes."""
    xq, wq, shapes = _edge_quadrature(grid)
    rows, cols, vals = [], [], []
    en = grid.edge_nodes
    for a in range(2):
        for b in range(2):
            rows.append(en[:, a])
            cols.append(en[:, b])
            vals.append((wq * shapes[a][None, :] * shapes[b][None, :]).sum(axis=1))
    n = grid.n_nodes
    return sps.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _boundary_load(grid: Grid, fn) -> np.ndarray:
    """Complex nodal loads G_j = int_dOmega g psi_j dS."""
    xq, wq, shapes = _edge_quadrature(grid)
    gq = fn(xq[:, :, 0], xq[:, :, 1])  # (m_edges, 2)
    if not np.all(np.isfinite(gq)):
        raise AssemblyError("boundary data has non-finite values")
    out = np.zeros(grid.n_nodes, dtype=complex)
    for a in range(2):
        np.add.at(out, grid.edge_nodes[:, a], (wq * shapes[a][None, :] * gq).sum(axis=1))
    return out


def volume_blocks(grid: Grid, fld: CoefficientField):
    """Volume blocks (A1, A2) over all nodes, before any boundary term:
    A1 = sum_e Im(Lx) Sx + Im(Ly) Sy + Im(M) Mc, A2 the same with real
    parts.  A field of the wrong size raises AssemblyError."""
    if fld.n_elements != grid.n_elements:
        raise AssemblyError(f"field has {fld.n_elements} elements, "
                            f"grid has {grid.n_elements}")
    sx, sy, mc = element_templates(grid.hx, grid.hy)
    conn = grid.elements
    rows = np.broadcast_to(conn[:, :, None], (len(conn), 4, 4))
    cols = np.broadcast_to(conn[:, None, :], (len(conn), 4, 4))

    def block(part):
        data = (part(fld.lxx)[:, None, None] * sx[None]
                + part(fld.lyy)[:, None, None] * sy[None]
                + part(fld.m)[:, None, None] * mc[None])
        return sps.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                              shape=(grid.n_nodes,) * 2).tocsr()

    return block(np.imag), block(np.real)


def assemble_system(grid: Grid, fld: CoefficientField, bc: BoundaryData) -> BlockSystem:
    """Build the unrotated block system of any finite field for one of the
    three boundary-condition kinds."""
    a1_full, a2_full = volume_blocks(grid, fld)

    n = grid.n_nodes
    lifting = np.zeros(n, dtype=complex)

    if bc.kind == "dirichlet":
        free = grid.interior_nodes
        lifting = bc.nodal_values(grid)
        if not np.all(np.isfinite(lifting)):
            raise AssemblyError("dirichlet boundary data has non-finite values")
        lift_re, lift_im = lifting.real, lifting.imag
        b1 = -(a1_full[free, :] @ lift_re) - (a2_full[free, :] @ lift_im)
        b2 = -(a2_full[free, :] @ lift_re) + (a1_full[free, :] @ lift_im)
    elif bc.kind == "neumann":
        free = np.arange(n)
        g = _boundary_load(grid, _as_boundary_fn(bc.g))
        b1 = -g.real
        b2 = +g.imag
    elif bc.kind == "robin":
        free = np.arange(n)
        a = bc.a
        bmass = _boundary_mass(grid)
        # Trace coupling (1/|a|^2) [[a', a''], [a'', -a']] folded into the
        # blocks: -a'/|a|^2 > 0 multiplies the boundary mass in A1.
        aa = abs(a) ** 2
        a1_full = a1_full + (-a.real / aa) * bmass
        a2_full = a2_full + (-a.imag / aa) * bmass
        ga = _boundary_load(grid, lambda x, y: np.conj(_as_boundary_fn(bc.g)(x, y) / a))
        b1 = -ga.real
        b2 = -ga.imag
    else:  # pragma: no cover - dataclass union keeps kinds closed
        raise AssemblyError(f"unknown boundary condition kind {bc.kind!r}")

    ix = np.ix_(free, free)
    a1 = sps.csr_matrix(a1_full[ix])
    a2 = sps.csr_matrix(a2_full[ix])
    for m in (a1, a2):
        m.sort_indices()

    return BlockSystem(
        a1=SparseSym(a1), a2=a2,
        b1=np.asarray(b1).ravel(), b2=np.asarray(b2).ravel(),
        free_nodes=free, lifting=lifting, grid=grid, bc_kind=bc.kind,
    )


def rotate(system: BlockSystem, theta: float) -> BlockSystem:
    """The system times e^{i*theta}: A1 -> cos A1 + sin A2 and A2 -> cos A2 -
    sin A1, the same for (b1, b2).  The phase leaves the solution, the
    lifting and the free nodes unchanged.  Sparse sums keep the matrices in
    canonical form, whatever patterns A1 and A2 store."""
    if theta == 0.0:
        return system
    c, s = np.cos(theta), np.sin(theta)
    a1, a2, b1, b2 = system.a1.mat, system.a2, system.b1, system.b2
    return dataclasses.replace(system, a1=SparseSym(c * a1 + s * a2), a2=c * a2 - s * a1,
                               b1=c * b1 + s * b2, b2=c * b2 - s * b1)
