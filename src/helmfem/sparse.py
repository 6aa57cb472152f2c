"""Sparse symmetric matrices, PCG, the A1 preconditioners, and the
implicit Schur operator.

The saddle-point block system is never solved as one indefinite matrix;
instead the real part of the solution comes from a PCG solve with the
Schur complement ``A1 + A2^T A1^{-1} A2`` applied implicitly, and the
imaginary part from a plain ``A1`` solve.  In "implicit" mode every
``A1`` solve (including the ones nested inside the Schur operator) is
itself PCG, preconditioned by one symmetric geometric-multigrid V-cycle
on the tensor grid, so its iteration counts do not grow with the mesh
size.  "direct" mode replaces the inner PCG by a cached sparse direct
factorization.  The paper's zero-fill incomplete Cholesky factorization
(iteration counts growing like 1/h) remains as a library routine,
:func:`ic0`; no solve path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla


class PcgError(RuntimeError):
    pass


class PcgBreakdownError(PcgError):
    """Non-positive curvature encountered: the operator (or the
    preconditioner) is not positive definite.  For assembled systems this
    indicates an inadmissible coefficient field."""


class PcgNonConvergenceError(PcgError):
    def __init__(self, msg, iters, rel_res):
        super().__init__(msg)
        self.iters = iters
        self.rel_res = rel_res


class IcBreakdownError(RuntimeError):
    """IC(0) failed even after diagonal-shift retries."""


@dataclass(frozen=True, eq=False)
class SparseSym:
    """Symmetric sparse matrix in CSR form.

    The full matrix is stored; the pattern is fixed by mesh adjacency at
    assembly time and explicit zeros produced by cancellation are kept
    (no pruning), so the structure is reproducible.  Immutable.
    """

    mat: sps.csr_matrix = field(repr=False)

    def __post_init__(self):
        m = self.mat
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x


# ----------------------------------------------------------------------
# Preconditioned conjugate gradients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PcgConfig:
    """Tolerances for the nested solves.

    ``rel_tol`` applies to the outer Schur solve, ``inner_rel_tol`` to the
    nested A1 solves (kept two orders tighter so the outer operator is
    effectively linear).  ``max_iter`` = 0 means 10*N.
    """

    rel_tol: float = 1e-10
    max_iter: int = 0
    inner_rel_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if not 0.0 < self.inner_rel_tol <= self.rel_tol:
            raise ValueError("inner_rel_tol must be in (0, rel_tol]")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")

    def iter_limit(self, n: int) -> int:
        return self.max_iter if self.max_iter > 0 else 10 * n


@dataclass(frozen=True, eq=False)
class PcgResult:
    x: np.ndarray
    iters: int
    residuals: np.ndarray  # relative residual after each iteration


def pcg(apply_a, apply_minv, b, cfg: PcgConfig = PcgConfig(), atol: float = None) -> PcgResult:
    """Preconditioned conjugate gradients for SPD ``A x = b``.

    Parameters
    ----------
    apply_a, apply_minv : callable
        The operator and the preconditioner inverse, each mapping a
        vector to a vector; ``apply_minv=None`` disables preconditioning.
    b : ndarray
        Right-hand side.
    cfg : PcgConfig
        Tolerance and iteration limit.
    atol : float, optional
        Extra absolute residual threshold; convergence is declared at
        ``||b - A x|| <= min(rel_tol*||b||, atol)`` when given.

    Returns
    -------
    PcgResult with the solution, iteration count, and the relative
    residual history.

    Raises
    ------
    PcgBreakdownError on a non-SPD operator or preconditioner, or as soon
    as a curvature is not finite; PcgNonConvergenceError when the
    iteration limit is hit.
    """
    apply_minv = apply_minv or (lambda r: r)
    b = np.asarray(b, dtype=float)
    n = len(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return PcgResult(x=np.zeros(n), iters=0, residuals=np.zeros(0))
    threshold = cfg.rel_tol * bnorm
    if atol is not None:
        threshold = min(threshold, atol)

    x = np.zeros(n)
    r = b.copy()
    z = apply_minv(r)
    p = z.copy()
    rz = float(r @ z)
    if not rz > 0.0:
        raise PcgBreakdownError(f"r.z = {rz:.3e}: preconditioner is not positive definite")

    history = []
    limit = cfg.iter_limit(n)
    for it in range(1, limit + 1):
        q = apply_a(p)
        pq = float(p @ q)
        if not pq > 0.0:
            raise PcgBreakdownError(
                f"curvature p.Ap = {pq:.3e}: operator is not positive "
                "definite (inadmissible coefficient field?)"
            )
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rnorm = np.linalg.norm(r)
        history.append(rnorm / bnorm)
        if rnorm <= threshold:
            return PcgResult(x=x, iters=it, residuals=np.array(history))
        z = apply_minv(r)
        rz_new = float(r @ z)
        if not rz_new > 0.0:
            raise PcgBreakdownError(f"r.z = {rz_new:.3e}: preconditioner is not positive definite")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise PcgNonConvergenceError(
        f"PCG did not reach {threshold:.3e} within {limit} iterations "
        f"(relative residual {history[-1]:.3e})",
        iters=limit, rel_res=history[-1],
    )


# ----------------------------------------------------------------------
# Incomplete Cholesky IC(0)
# ----------------------------------------------------------------------

@dataclass(eq=False)
class ICFactor:
    """Lower-triangular incomplete Cholesky factor with zero fill.

    ``A + shift*I ~= R R^T`` on the sparsity pattern of the source lower
    triangle; ``shift`` is zero unless pivot breakdown forced a diagonal
    shift.  Application of ``(R R^T)^{-1}`` runs through a cached
    factorization object used purely as a fast triangular-substitution
    backend (R is already triangular, so no additional fill occurs).
    """

    lower: sps.csr_matrix
    shift: float = 0.0
    _tri = None

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def _backend(self):
        if self._tri is None:
            self._tri = spla.splu(
                self.lower.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": False},
            )
        return self._tri

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply (R R^T)^{-1} via forward and transposed substitution."""
        tri = self._backend()
        return tri.solve(tri.solve(np.asarray(b, dtype=float)), trans="T")


def _ic0_attempt(indptr, indices, a, n):
    """One IC(0) pass over a sorted CSR lower triangle.

    Returns (values, -1) on success or (None, row) at the first
    non-positive pivot.
    """
    v = np.zeros_like(a)
    for k in range(n):
        start, end = indptr[k], indptr[k + 1]
        diag_acc = 0.0
        for t in range(start, end):
            j = indices[t]
            if j == k:
                pivot = a[t] - diag_acc
                if pivot <= 0.0:
                    return None, k
                v[t] = np.sqrt(pivot)
                break
            # Sparse dot of row k and row j restricted to columns < j.
            s = 0.0
            p1, p2 = start, indptr[j]
            e1, e2 = t, indptr[j + 1] - 1
            while p1 < e1 and p2 < e2:
                c1, c2 = indices[p1], indices[p2]
                if c1 == c2:
                    s += v[p1] * v[p2]
                    p1 += 1
                    p2 += 1
                elif c1 < c2:
                    p1 += 1
                else:
                    p2 += 1
            vj = v[indptr[j + 1] - 1]
            v[t] = (a[t] - s) / vj
            diag_acc += v[t] * v[t]
    return v, -1


def ic0(a, max_retries: int = 20) -> ICFactor:
    """Incomplete Cholesky with zero fill on the pattern of the symmetric
    sparse matrix ``a``.

    On pivot breakdown the factorization is retried on ``a + shift*I``
    with the shift doubling from ``1e-3 * max(diag)``; after
    ``max_retries`` shifted attempts an :class:`IcBreakdownError` is
    raised.
    """
    low = sps.tril(sps.csr_matrix(a), format="csr")
    low.sort_indices()
    n = low.shape[0]
    diag = low.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix must have a positive diagonal")

    # Diagonal must be the last entry of each row for the kernel.
    base = low.data.astype(float)
    shift = 0.0
    shift0 = 1e-3 * float(diag.max())
    diag_pos = low.indptr[1:] - 1
    for attempt in range(max_retries + 1):
        a = base.copy()
        if shift:
            a[diag_pos] += shift
        v, bad = _ic0_attempt(low.indptr, low.indices, a, n)
        if bad < 0:
            out = sps.csr_matrix((v, low.indices.copy(), low.indptr.copy()), shape=low.shape)
            return ICFactor(lower=out, shift=shift)
        shift = shift0 * (2.0 ** attempt)
    raise IcBreakdownError(
        f"IC(0) pivot breakdown persisted through {max_retries} diagonal shifts"
    )


# ----------------------------------------------------------------------
# Geometric multigrid on the tensor grid
# ----------------------------------------------------------------------

# The V-cycle stays positive definite while MG_OMEGA * max eig(D^-1 A) < 2;
# on the fine grid that eigenvalue is at most 3 for bilinear elements.
MG_OMEGA = 0.6     # damped-Jacobi weight
MG_SWEEPS = 2      # Jacobi sweeps before and after each coarse correction
MG_MIN_SIDE = 4    # shorter sides are not coarsened
MG_COARSE_MAX = 300  # unknowns at most on the coarsest level, which is solved densely


def _prolong_1d(x: np.ndarray):
    """Linear interpolation onto the nodes at increasing positions ``x``
    from every other node plus the last one.

    Works for any number of nodes, so grids need not be 2^k + 1.
    Returns the (len(x), n_coarse) matrix and the indices of the kept
    nodes.
    """
    n = len(x)
    keep = np.zeros(n, dtype=bool)
    keep[::2] = True
    keep[-1] = True
    kept = np.flatnonzero(keep)
    col = np.cumsum(keep) - 1          # coarse index of the nearest kept node on the left
    mid = np.flatnonzero(~keep)        # each has kept neighbours on both sides
    w = (x[mid + 1] - x[mid]) / (x[mid + 1] - x[mid - 1])
    rows = np.concatenate([kept, mid, mid])
    cols = np.concatenate([np.arange(len(kept)), col[mid], col[mid] + 1])
    vals = np.concatenate([np.ones(len(kept)), w, 1.0 - w])
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, len(kept))), kept


class Multigrid:
    """One symmetric V-cycle as an SPD preconditioner for ``A``.

    ``A`` lives on the ``free_nodes`` of a tensor grid (anything with
    ``nx``, ``ny``, ``hx`` and ``hy``; row-major node ids).  The
    prolongation is ``Py kron Px`` from the 1-D linear interpolation of
    :func:`_prolong_1d`, formed on all nodes and restricted to the free
    ones, so Dirichlet nodes drop out while free Neumann and Robin
    boundary nodes stay.  A direction whose spacing exceeds twice the
    other's is not coarsened, which keeps coarse cells near square on
    stretched grids.  Coarse operators are Galerkin products
    ``P^T A P``; each level smooths with ``MG_SWEEPS`` damped-Jacobi
    sweeps before and after its coarse correction.  The
    grid is coarsened at least once (so the cycle is never an exact
    solve, unless no side has ``MG_MIN_SIDE`` nodes) and then until at
    most ``MG_COARSE_MAX`` unknowns are left, where a dense Cholesky
    factorization solves; below that size a dense solve costs less than
    the per-level overhead of further levels.  Identical pre- and
    post-smoothing make the cycle symmetric, and ``MG_OMEGA`` keeps it
    positive definite.
    """

    def __init__(self, a, grid, free_nodes: np.ndarray):
        a = sps.csr_matrix(a)
        free = np.zeros(grid.nx * grid.ny, dtype=bool)
        free[free_nodes] = True
        if a.shape[0] != free.sum():
            raise ValueError("operator size does not match the free nodes")
        x, y = grid.hx * np.arange(grid.nx), grid.hy * np.arange(grid.ny)
        self.levels = []    # (A, omega / diag(A), P, P^T) from fine to coarse
        while (max(len(x), len(y)) >= MG_MIN_SIDE
               and (not self.levels or a.shape[0] > MG_COARSE_MAX)):
            h = min(x[1] - x[0], y[1] - y[0])
            coarsen_x = len(x) >= MG_MIN_SIDE and (x[1] - x[0] <= 2 * h or len(y) < MG_MIN_SIDE)
            coarsen_y = len(y) >= MG_MIN_SIDE and (y[1] - y[0] <= 2 * h or len(x) < MG_MIN_SIDE)
            px, kx = _prolong_1d(x) if coarsen_x else (sps.eye(len(x)), slice(None))
            py, ky = _prolong_1d(y) if coarsen_y else (sps.eye(len(y)), slice(None))
            free_c = free.reshape(len(y), len(x))[ky][:, kx].ravel()
            p = sps.kron(py, px, format="csr")[free][:, free_c]
            pt = p.T.tocsr()
            self.levels.append((a, MG_OMEGA / a.diagonal(), p, pt))
            a = (pt @ a @ p).tocsr()
            x, y, free = x[kx], y[ky], free_c
        try:
            self.coarse = scipy.linalg.cho_factor(a.toarray())
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise PcgBreakdownError(
                f"coarsest multigrid operator is not finite and positive definite: {exc}"
            ) from exc

    def apply(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle from a zero initial guess: an approximation of A^{-1} b."""
        return self._cycle(0, np.asarray(b, dtype=float))

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return scipy.linalg.cho_solve(self.coarse, b)
        a, wdinv, p, pt = self.levels[level]
        x = wdinv * b
        for _ in range(MG_SWEEPS - 1):
            x += wdinv * (b - a @ x)
        x += p @ self._cycle(level + 1, pt @ (b - a @ x))
        for _ in range(MG_SWEEPS):
            x += wdinv * (b - a @ x)
        return x


# ----------------------------------------------------------------------
# A1 solves and the Schur operator
# ----------------------------------------------------------------------

class A1Solver:
    """Reusable solver for systems with the SPD block ``A1`` of a
    :class:`~helmfem.assemble.BlockSystem`.

    mode "implicit": PCG preconditioned by one :class:`Multigrid` V-cycle
    on ``A1`` over the system's grid and free nodes, built on the first
    solve.
    mode "direct": a cached sparse direct factorization of ``A1`` used
    for exact solves.
    """

    def __init__(self, system, mode: str = "implicit",
                 rel_tol: float = 1e-12, max_iter: int = 0):
        if mode not in ("implicit", "direct"):
            raise ValueError(f"unknown mode {mode!r}")
        self.system = system
        self.mode = mode
        self.cfg = PcgConfig(rel_tol=rel_tol, max_iter=max_iter, inner_rel_tol=rel_tol)
        self.total_iters = 0
        self._minv = None
        self._lu = None

    def solve(self, b: np.ndarray, atol: float = None) -> np.ndarray:
        a1 = self.system.a1
        if self.mode == "direct":
            if self._lu is None:
                self._lu = spla.splu(a1.mat.tocsc())
            return self._lu.solve(np.asarray(b, dtype=float))
        if self._minv is None:
            self._minv = Multigrid(a1.mat, self.system.grid, self.system.free_nodes).apply
        res = pcg(a1.matvec, self._minv, b, self.cfg, atol=atol)
        self.total_iters += res.iters
        return res.x


class SchurOperator:
    """Implicit action of ``A1 + A2^T A1^{-1} A2`` for the system of an
    :class:`A1Solver`.

    Only matrix-vector products are ever formed; the inner ``A1`` solve
    runs through the solver.  The operator is symmetric positive definite
    up to the inner solve tolerance.
    """

    def __init__(self, solver: A1Solver):
        self.solver = solver
        self.a1 = solver.system.a1
        self.a2 = solver.system.a2
        self.a2t = self.a2.T.tocsr()

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.a2 @ x
        z = self.solver.solve(y)
        return self.a1.matvec(x) + self.a2t @ z
