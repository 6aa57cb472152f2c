"""Small-instance reference helpers that only the tests read.

``element_blocks`` gives one element's local blocks, ``block_matrix_dense``
the dense saddle matrix of an assembled system, and ``eval_basis`` one hat
function at one point.  They work one element or one point at a time on
the library's reference element, the reference that the vectorised
assembly and point evaluation are checked against.
"""

import numpy as np

from helmfem.assemble import element_templates
from helmfem.grid import shape_gradients, shape_values


def element_blocks(grid, fld, element: int):
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


def block_matrix_dense(system) -> np.ndarray:
    """Dense [[A1, A2^T], [A2, -A1]] of an assembled system."""
    a1 = system.a1.mat.toarray()
    a2 = system.a2.toarray()
    return np.block([[a1, a2.T], [a2, -a1]])


def eval_basis(grid, node: int, point) -> tuple[float, np.ndarray]:
    """Value and gradient of the hat function of ``node`` at ``point``.

    The gradient is defined element-wise; on shared element edges it is
    taken from the containing element per :meth:`Grid.element_of_point`
    (ties toward the lower element index).
    """
    x, y = float(point[0]), float(point[1])
    e = grid.element_of_point(x, y)
    corners = grid.elements[e]
    if node not in corners:
        return 0.0, np.zeros(2)
    k = int(np.flatnonzero(corners == node)[0])
    xi, eta = grid.local_coords(e, x, y)
    dxi, deta = shape_gradients(xi, eta)
    grad = np.array([dxi[k] * 2.0 / grid.hx, deta[k] * 2.0 / grid.hy])
    return float(shape_values(xi, eta)[k]), grad
