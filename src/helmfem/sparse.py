"""Sparse symmetric matrices, PCG, the A1 preconditioners, and the
implicit Schur operator.

The saddle-point block system is never solved as one indefinite matrix;
instead the real part of the solution comes from a PCG solve with the
Schur complement ``A1 + A2^T A1^{-1} A2`` applied implicitly, and the
imaginary part from a plain ``A1`` solve.  In "implicit" mode every
``A1`` solve (including the ones nested inside the Schur operator) is
itself PCG, preconditioned by one symmetric geometric-multigrid V-cycle
on the tensor grid, so its iteration counts do not grow with the mesh
size.  "direct" mode replaces the inner PCG by the block system's sparse
LU of ``A1``, with a symmetric minimum-degree ordering and diagonal pivots.
A non-finite vector in either mode raises :class:`PcgBreakdownError`.
The paper's zero-fill incomplete Cholesky factorization (iteration
counts growing like 1/h) remains as a library routine, :func:`ic0`; no
solve path uses it.
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
    """Non-positive or non-finite curvature encountered, or a non-finite
    direct solve: the operator (or the preconditioner) is not positive
    definite, or a NaN or infinity reached it.  For assembled systems with
    finite data this indicates an inadmissible coefficient field."""


class PcgNonConvergenceError(PcgError):
    """The iteration limit was reached; the message states the limit and
    the last relative residual."""


class IcBreakdownError(RuntimeError):
    """IC(0) failed even after diagonal-shift retries."""


@dataclass(frozen=True, eq=False)
class SparseSym:
    """Symmetric sparse matrix in CSR form.

    The full matrix is stored.  Its pattern is whatever the sparse
    arithmetic that built it left: sparse ``+`` drops sums that are exactly
    zero, so A1 and A2 of one system need not share a pattern.  Immutable.
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

    ``rel_tol`` applies to the outer Schur solve; it is the one accuracy
    setting.  The nested A1 solves run to ``inner_rel_tol``, which defaults
    to ``min(1e-12, rel_tol / 100)``: tight enough that the outer operator
    stays effectively linear.  An explicit ``inner_rel_tol`` must lie in
    ``(0, rel_tol]``.  Every PCG solve stops after :meth:`iter_limit`
    iterations.
    """

    rel_tol: float = 1e-10
    inner_rel_tol: float = None

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if self.inner_rel_tol is None:
            object.__setattr__(self, "inner_rel_tol", min(1e-12, self.rel_tol / 100))
        elif not 0.0 < self.inner_rel_tol <= self.rel_tol:
            raise ValueError("inner_rel_tol must be in (0, rel_tol]")

    def iter_limit(self, n: int) -> int:
        """Iteration limit of a PCG solve with ``n`` unknowns."""
        return 10 * n


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
        Tolerance; the iteration limit is ``cfg.iter_limit(len(b))``.
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
        f"(relative residual {history[-1]:.3e})"
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

# The V-cycle stays positive definite while omega * max eig(D^-1 A) < 2 on
# every level.  Each level takes omega = MG_WEIGHT / g with g the Gershgorin
# bound max_i sum_j |a_ij| / a_ii >= max eig(D^-1 A), so omega * max eig
# <= MG_WEIGHT (on the fine grid g is about 2, so omega is about 0.75).
MG_WEIGHT = 1.5
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
    sweeps before and after its coarse correction, weighted by
    ``MG_WEIGHT`` over that level's Gershgorin bound on
    ``max eig(D^-1 A)``, and restricts its last pre-smoothing residual.
    The grid is coarsened at least once (so the cycle is never an exact
    solve, unless no side has ``MG_MIN_SIDE`` nodes) and then until at
    most ``MG_COARSE_MAX`` unknowns are left, whose explicit inverse,
    from a dense Cholesky factorization and symmetrised, is applied as
    one matrix-vector product; below that size a dense solve costs less
    than the per-level overhead of further levels.  Identical pre- and
    post-smoothing make the cycle symmetric, and ``MG_WEIGHT`` < 2 keeps
    it positive definite on every level.
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
            d = a.diagonal()
            g = (abs(a).sum(axis=1).A1 / d).max()
            self.levels.append((a, (MG_WEIGHT / g) / d, p, pt))
            a = (pt @ a @ p).tocsr()
            x, y, free = x[kx], y[ky], free_c
        try:
            inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a.toarray()), np.eye(a.shape[0]))
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise PcgBreakdownError(
                f"coarsest multigrid operator is not finite and positive definite: {exc}"
            ) from exc
        self.coarse_inv = 0.5 * (inv + inv.T)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle from a zero initial guess: an approximation of A^{-1} b."""
        return self._cycle(0, np.asarray(b, dtype=float))

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse_inv @ b
        a, wd, p, pt = self.levels[level]
        x = wd * b
        r = np.empty_like(b)
        for sweep in range(2 * MG_SWEEPS):      # the first sweep was x = wd * b
            np.subtract(b, a @ x, out=r)
            if sweep == MG_SWEEPS - 1:          # restrict the last pre-smoothing residual
                x += p @ self._cycle(level + 1, pt @ r)
            else:
                r *= wd
                x += r
        return x


# ----------------------------------------------------------------------
# A1 solves and the Schur operator
# ----------------------------------------------------------------------

class A1Solver:
    """Reusable solver for systems with the SPD block ``A1`` of a
    :class:`~helmfem.assemble.BlockSystem`.

    mode "implicit": PCG preconditioned by the system's multigrid V-cycle
    on ``A1``; mode "direct": exact solves with the system's sparse LU.
    """

    def __init__(self, system, mode: str = "implicit", rel_tol: float = 1e-12):
        if mode not in ("implicit", "direct"):
            raise ValueError(f"unknown mode {mode!r}")
        self.system = system
        self.mode = mode
        self.cfg = PcgConfig(rel_tol=rel_tol)
        self.total_iters = 0

    def solve(self, b: np.ndarray, atol: float = None) -> np.ndarray:
        if self.mode == "direct":
            x = self.system.lu.solve(np.asarray(b, dtype=float))
            if not np.isfinite(x).all():
                raise PcgBreakdownError("direct A1 solve produced non-finite values")
            return x
        res = pcg(self.system.a1.matvec, self.system.vcycle.apply, b, self.cfg, atol=atol)
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
