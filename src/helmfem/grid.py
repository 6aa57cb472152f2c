"""Rectangular tensor-product grids with bilinear nodal basis functions.

Nodes are ordered row-major: node (i, j) has flat id ``j*nx + i``, with i
running along x and j along y.  Elements are the (nx-1)*(ny-1) cells, each
listed by its four corner node ids counter-clockwise from the lower-left
corner.  Grids are immutable after construction and safe to share between
threads.

The module also owns the bilinear reference element on [-1, 1]^2 (Gauss
rules, shape functions and their gradients) that assembly, solution
fields and error norms all evaluate through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned rectangular grid with boundary bookkeeping.

    Attributes
    ----------
    x0, x1, y0, y1 : float
        Domain rectangle (x0, x1) x (y0, y1).
    nx, ny : int
        Node counts per side (>= 2).
    hx, hy : float
        Grid spacings (x1-x0)/(nx-1) and (y1-y0)/(ny-1).
    nodes : ndarray, shape (nx*ny, 2)
        Node coordinates, row-major by j then i.
    elements : ndarray, shape ((nx-1)*(ny-1), 4)
        Corner node ids per element, counter-clockwise from lower-left.
    boundary_nodes : ndarray
        Sorted flat ids of the nodes on the domain boundary.
    interior_nodes : ndarray
        Sorted flat ids of all non-boundary nodes.
    edge_nodes : ndarray, shape (m, 2)
        Endpoint node ids of each boundary edge: bottom, top, left, right.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    hx: float
    hy: float
    nodes: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)
    boundary_nodes: np.ndarray = field(repr=False)
    interior_nodes: np.ndarray = field(repr=False)
    edge_nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def n_elements(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    def node_id(self, i, j):
        """Flat id of node (i, j); integers or integer arrays."""
        return j * self.nx + i

    def element_centroids(self) -> np.ndarray:
        """Centroid coordinates of every element, shape (n_elements, 2)."""
        corners = self.nodes[self.elements]
        return corners.mean(axis=1)

    def element_of_point(self, x, y):
        """Element containing each point (x, y); points on shared edges go to
        the lower element index.  Scalars give an int, arrays an array."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        slack = 1e-12 * max(self.x1 - self.x0, self.y1 - self.y0)
        outside = ~((x >= self.x0 - slack) & (x <= self.x1 + slack)
                    & (y >= self.y0 - slack) & (y <= self.y1 + slack))
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise ValueError(f"point ({x.flat[k]}, {y.flat[k]}) outside domain")
        ie = np.clip(np.ceil((x - self.x0) / self.hx) - 1, 0, self.nx - 2).astype(np.int64)
        je = np.clip(np.ceil((y - self.y0) / self.hy) - 1, 0, self.ny - 2).astype(np.int64)
        e = je * (self.nx - 1) + ie
        return int(e) if e.ndim == 0 else e

    def local_coords(self, element, x, y):
        """Reference coordinates (xi, eta) in [-1, 1]^2 for points inside
        the given element(s)."""
        corner = self.nodes[self.elements[element, 0]]
        xi = 2.0 * (np.asarray(x) - corner[..., 0]) / self.hx - 1.0
        eta = 2.0 * (np.asarray(y) - corner[..., 1]) / self.hy - 1.0
        return xi, eta


def build_grid(domain, nx: int, ny: int) -> Grid:
    """Construct a Grid on the rectangle ``domain = (x0, x1, y0, y1)``.

    Node ordering is deterministic (row-major by j then i), so the sparse
    matrix structure of anything assembled on the grid is reproducible
    across runs.
    """
    x0, x1, y0, y1 = (float(v) for v in domain)
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 nodes per side, got nx={nx}, ny={ny}")
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle ({x0},{x1})x({y0},{y1})")

    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    xg, yg = np.meshgrid(xs, ys)  # yg varies along axis 0 -> row-major by j
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    ii, jj = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
    ii, jj = ii.ravel(), jj.ravel()
    n00 = jj * nx + ii
    elements = np.column_stack([n00, n00 + 1, n00 + nx + 1, n00 + nx]).astype(np.int64)

    gi = np.arange(nx * ny) % nx
    gj = np.arange(nx * ny) // nx
    on_boundary = (gi == 0) | (gi == nx - 1) | (gj == 0) | (gj == ny - 1)
    boundary_nodes = np.flatnonzero(on_boundary)
    interior_nodes = np.flatnonzero(~on_boundary)

    # Boundary edges in fixed order: bottom, top, left, right.
    i, j = np.arange(nx - 1), np.arange(ny - 1) * nx
    top, right = (ny - 1) * nx, nx - 1
    edges = np.concatenate([
        np.column_stack([i, i + 1]), np.column_stack([top + i, top + i + 1]),
        np.column_stack([j, j + nx]), np.column_stack([right + j, right + j + nx]),
    ])

    return Grid(
        x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny,
        hx=(x1 - x0) / (nx - 1), hy=(y1 - y0) / (ny - 1),
        nodes=nodes, elements=elements,
        boundary_nodes=boundary_nodes, interior_nodes=interior_nodes,
        edge_nodes=edges.astype(np.int64),
    )


# ----------------------------------------------------------------------
# Reference element [-1, 1]^2
# ----------------------------------------------------------------------

_GAUSS_1D = {
    1: (np.array([0.0]), np.array([2.0])),
    2: (np.array([-1.0, 1.0]) / np.sqrt(3.0), np.array([1.0, 1.0])),
    3: (np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]),
        np.array([5.0, 8.0, 5.0]) / 9.0),
}

# Corner signs counter-clockwise from lower-left, matching Grid.elements.
_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def gauss_1d(order: int):
    """Points and weights of the n-point Gauss rule on [-1, 1]."""
    try:
        return _GAUSS_1D[order]
    except KeyError:
        raise ValueError(f"unsupported Gauss order {order}") from None


def _corner_signs(xi):
    """Corner signs (sx, sy), each shaped (4, 1, ...) to broadcast against xi."""
    return _SIGNS.T.reshape((2, 4) + (1,) * np.ndim(xi))


def shape_values(xi, eta):
    """Bilinear shape functions at reference coordinates, shape (4, *xi.shape)."""
    sx, sy = _corner_signs(xi)
    return 0.25 * (1.0 + sx * xi) * (1.0 + sy * eta)


def shape_gradients(xi, eta):
    """Reference-space gradients (dN/dxi, dN/deta), each shape (4, *xi.shape)."""
    sx, sy = _corner_signs(xi)
    return 0.25 * sx * (1.0 + sy * eta), 0.25 * sy * (1.0 + sx * xi)


def gauss_points(hx: float, hy: float, order: int):
    """Tensor Gauss rule on an hx-by-hy element.

    Yields ((xi, eta), w, N, dN/dx, dN/dy) per point: the reference
    point, the weight including the Jacobian hx*hy/4, and the four shape
    values and physical-space derivatives there.
    """
    pts, wts = gauss_1d(order)
    jac = hx * hy / 4.0
    for a, wa in zip(pts, wts):
        for b, wb in zip(pts, wts):
            dxi, deta = shape_gradients(a, b)
            yield (a, b), wa * wb * jac, shape_values(a, b), dxi * 2.0 / hx, deta * 2.0 / hy
