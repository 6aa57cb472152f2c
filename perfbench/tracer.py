"""Outside-in tracing of helmfem's layers for the benchmark's traced run.

Every callable listed by ``wrap_points`` is replaced, where its caller
looks it up, by a wrapper that records one span: a name, a start and end
time, the span that was open when it started (its parent), the index of
the benchmark op it belongs to, and optional counts taken from its
arguments or result.  Spans stay in memory.  ``Tracer.restore`` puts
every original callable back, and ``Tracer.assert_restored`` proves it.

Self time of a span is its duration minus the durations of its direct
children.  The role of an A1 solve comes from its parent span: inside
the Schur apply ("schur"), as the outer preconditioner ("precond"), or
called by ``solve`` itself before the outer PCG ("rhs", step 3) or after
it ("imag", step 6).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

A1_ROLES = ("rhs", "schur", "precond", "imag")
CLI_WRITERS = (
    "write_solution_csv", "write_meta", "write_residual_csv",
    "write_convergence_csv", "write_omega_sweep_csv", "write_pcg_sweep_csv",
    "write_rotation_sweep_csv", "write_spectrum_csv",
)


def _a1_nnz(args, kwargs, result):
    return {"nnz": result.a1.nnz}


def _iters(args, kwargs, result):
    return {"iters": result.iters}


def _ic_shift(args, kwargs, result):
    return {"shift": result.shift, "nnz": result.lower.nnz, "n": result.n}


def _lu_nnz(args, kwargs, result):
    return {"nnz": result.L.nnz + result.U.nnz, "n": result.shape[0]}


def _csr_bytes(args, kwargs, result):
    # Bytes a CSR matvec must touch: values, column indices, row pointers,
    # the input and the output vector.  Computed, not measured.
    mat = args[0].mat
    n = mat.shape[0]
    return {"bytes": (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                      + 2 * n * mat.data.itemsize)}


def _points(args, kwargs, result):
    return {"points": len(np.atleast_2d(np.asarray(args[1], dtype=float)))}


def _written(args, kwargs, result):
    path = kwargs.get("path", args[-1])
    return {"bytes": os.path.getsize(path)}


def wrap_points():
    """(owner, attribute, span name, extra) for every traced callable."""
    solve_mod = importlib.import_module("helmfem.solve")   # the package shadows it
    sparse_mod = importlib.import_module("helmfem.sparse")
    assemble_mod = importlib.import_module("helmfem.assemble")
    verify_mod = importlib.import_module("helmfem.verify")
    cli_mod = importlib.import_module("helmfem.cli")
    points = [
        (solve_mod, "solve", "solve", None),
        (cli_mod, "solve", "solve", None),
        (verify_mod, "solve", "solve", None),
        (solve_mod, "build_grid", "grid.build", None),
        (verify_mod, "build_grid", "grid.build", None),
        (solve_mod.ProblemSpec, "build_field", "coeff.field", None),
        (solve_mod, "auto_rotation_angle", "coeff.rotation", None),
        (solve_mod, "rotate", "coeff.rotation", None),
        (solve_mod, "assemble_system", "assemble.system", _a1_nnz),
        (cli_mod, "assemble_system", "assemble.system", _a1_nnz),
        (assemble_mod.BlockSystem, "block_residual", "assemble.block_residual", None),
        (solve_mod, "pcg", "sparse.pcg_outer", _iters),
        (sparse_mod, "pcg", "sparse.pcg_inner", _iters),
        (sparse_mod, "ic0", "sparse.ic0", _ic_shift),
        (sparse_mod.ICFactor, "solve", "sparse.ic_apply", None),
        (sparse_mod.spla, "splu", "sparse.splu", _lu_nnz),
        (sparse_mod.A1Solver, "solve", "sparse.a1_solve", None),
        (sparse_mod.SchurOperator, "apply", "sparse.schur_apply", None),
        (sparse_mod.SparseSym, "matvec", "sparse.a1_matvec", _csr_bytes),
        (verify_mod, "galerkin_oracle", "verify.oracle", None),
        (verify_mod, "v_norm_error", "verify.v_norm", None),
        (solve_mod.SolutionField, "evaluate", "verify.field_eval", _points),
        (solve_mod.SolutionField, "gradient", "verify.field_eval", _points),
        (cli_mod, "schur_spectrum", "verify.spectrum", None),
        (cli_mod, "parse_config", "cli.parse", None),
    ]
    points += [(cli_mod, name, "cli.write", _written) for name in CLI_WRITERS]
    return points


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "op", "extra")

    def __init__(self, name, parent, t0, op):
        self.name, self.parent, self.t0, self.op = name, parent, t0, op
        self.t1 = t0
        self.extra = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrapper(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, stack[-1] if stack else -1, 0.0, self.op)
            spans.append(span)
            stack.append(sid)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, extra in wrap_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, extra))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        saved, self._saved = self._saved, []
        return saved

    @staticmethod
    def assert_restored(saved):
        """Every wrapped attribute is the original object again."""
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise AssertionError(f"{owner!r}.{attr} was not restored")


def snapshot():
    """Identity of every traceable attribute, for the hygiene self-test."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in wrap_points()]


# ----------------------------------------------------------------------
# Aggregation of one traced pass into per-layer metrics
# ----------------------------------------------------------------------

def _roles(spans):
    """Role of every A1 solve span, keyed by span index."""
    outer_seen = set()
    roles = {}
    for sid, s in enumerate(spans):
        if s.name == "sparse.pcg_outer":
            outer_seen.add(s.parent)
        elif s.name == "sparse.a1_solve":
            parent = spans[s.parent].name if s.parent >= 0 else ""
            if parent == "sparse.schur_apply":
                roles[sid] = "schur"
            elif parent == "sparse.pcg_outer":
                roles[sid] = "precond"
            elif s.parent in outer_seen:
                roles[sid] = "imag"
            else:
                roles[sid] = "rhs"
    return roles


def check_nesting(spans, slack=1e-6):
    """Children lie inside their parent and never sum to more than it."""
    child_sum = defaultdict(float)
    for s in spans:
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if s.t0 < p.t0 or s.t1 > p.t1:
            raise AssertionError(f"span {s.name} leaves its parent {p.name}")
        child_sum[s.parent] += s.dur
    for pid, total in child_sum.items():
        if total > spans[pid].dur + slack:
            raise AssertionError(f"children of {spans[pid].name} exceed it")
    return child_sum


# metric -> span key, for self times and for call counts
_SELF_TIMES = {
    "grid.build_s": "grid.build", "coeff.field_s": "coeff.field",
    "coeff.rotation_s": "coeff.rotation", "assemble.system_s": "assemble.system",
    "assemble.block_residual_s": "assemble.block_residual",
    "sparse.ic0_s": "sparse.ic0", "sparse.ic_apply_s": "sparse.ic_apply",
    "sparse.ic_backend_s": "sparse.ic_backend", "sparse.splu_s": "sparse.splu",
    "sparse.schur_apply_s": "sparse.schur_apply",
    "sparse.pcg_outer_self_s": "sparse.pcg_outer",
    "sparse.pcg_inner_self_s": "sparse.pcg_inner",
    "sparse.a1_matvec_s": "sparse.a1_matvec", "solve.self_s": "solve",
    "verify.oracle_s": "verify.oracle", "verify.v_norm_s": "verify.v_norm",
    "verify.field_eval_s": "verify.field_eval", "verify.spectrum_s": "verify.spectrum",
    "cli.parse_s": "cli.parse", "cli.write_s": "cli.write",
    **{f"sparse.a1_solve_s.{r}": f"sparse.a1_solve.{r}" for r in A1_ROLES},
}
_CALLS = {
    "assemble.system_calls": "assemble.system", "sparse.ic0_calls": "sparse.ic0",
    "sparse.ic_apply_calls": "sparse.ic_apply", "sparse.splu_calls": "sparse.splu",
    "sparse.schur_apply_calls": "sparse.schur_apply",
    "sparse.a1_matvec_calls": "sparse.a1_matvec", "solve.calls": "solve",
    "verify.oracle_calls": "verify.oracle",
    **{f"sparse.a1_solve_calls.{r}": f"sparse.a1_solve.{r}" for r in A1_ROLES},
}
# metric -> (span key, extra field) summed over spans; all are counts
_SUMS = {
    "assemble.a1_nnz": ("assemble.system", "nnz"),
    "sparse.outer_iters": ("sparse.pcg_outer", "iters"),
    "sparse.factor_nnz": ("sparse.splu", "nnz"),
    "verify.field_eval_points": ("verify.field_eval", "points"),
    "cli.write_bytes": ("cli.write", "bytes"),
}


def _key(spans, roles, sid):
    """Span name refined: A1 solves by their role, and the IC(0)
    backend's ``splu`` apart from the LU of A1."""
    s = spans[sid]
    if s.name == "sparse.a1_solve":
        return f"sparse.a1_solve.{roles[sid]}"
    if s.name == "sparse.splu" and s.parent >= 0 and spans[s.parent].name == "sparse.ic_apply":
        return "sparse.ic_backend"
    return s.name


def layer_metrics(spans):
    """Per-layer metrics of one traced pass.

    Returns (metrics, per_op, factors): per_op maps each op index to the
    counts the determinism guard compares with ``SolveInfo``; factors
    lists (kind, n, nnz) of every IC(0) and LU factor.
    """
    child_sum = check_nesting(spans)
    roles = _roles(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    per_op = defaultdict(lambda: defaultdict(int))
    solve_total = 0.0
    factors = []
    for sid, s in enumerate(spans):
        key = _key(spans, roles, sid)
        self_s[key] += s.dur - child_sum.get(sid, 0.0)
        calls[key] += 1
        for field, value in (s.extra or {}).items():
            sums[key, field] += value
        if s.name == "solve":
            solve_total += s.dur
        elif key == "sparse.ic0":
            sums[key, "shifted"] += s.extra["shift"] > 0.0
            factors.append(("ic0", s.extra["n"], s.extra["nnz"]))
        elif key == "sparse.splu":
            factors.append(("lu", s.extra["n"], s.extra["nnz"]))
        op = per_op[s.op]
        if key == "assemble.system":
            op["a1_nnz"] += s.extra["nnz"]
        elif key == "sparse.pcg_outer":
            op["outer"] += s.extra["iters"]
        elif key == "sparse.pcg_inner":
            role = roles[s.parent]
            op[f"inner.{role}"] += s.extra["iters"]
            sums[f"sparse.inner_iters.{role}"] += s.extra["iters"]

    m = {metric: self_s[key] for metric, key in _SELF_TIMES.items()}
    m.update({metric: calls[key] for metric, key in _CALLS.items()})
    m.update({metric: int(sums[key]) for metric, key in _SUMS.items()})
    m.update({f"sparse.inner_iters.{r}": sums[f"sparse.inner_iters.{r}"] for r in A1_ROLES})
    m["solve.total_s"] = solve_total
    m["sparse.ic0_shifted"] = int(sums["sparse.ic0", "shifted"])
    m["sparse.ic_apply_us"] = (1e6 * m["sparse.ic_apply_s"] / m["sparse.ic_apply_calls"]
                               if m["sparse.ic_apply_calls"] else 0.0)
    matvec_bytes = sums["sparse.a1_matvec", "bytes"]
    m["sparse.a1_matvec_gbps"] = (matvec_bytes / m["sparse.a1_matvec_s"] / 1e9
                                  if m["sparse.a1_matvec_s"] > 0 else 0.0)
    return m, {k: dict(v) for k, v in per_op.items()}, factors
