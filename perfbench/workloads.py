"""Workload inputs, the ops that run them, and the output checks.

Each workload is a fixed list of ops.  A solve op is one ``solve()``
call; a CLI op is one reference config run through ``helmfem.cli.main``.
Inputs come from the benchmark seed; the program receives only the
generated coefficient arrays and boundary data.  Every input is
admissible without rotation (Im L > 0 and Im M > 0), so the solution can
be checked against the block system assembled from the unrotated inputs.
"""

from __future__ import annotations

import configparser
import dataclasses
import importlib
import io
import math
import shutil
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

from helmfem.assemble import DirichletBC, NeumannBC, RobinBC, assemble_system
from helmfem.cli import parse_config
from helmfem.coeff import CoefficientField
from helmfem.grid import build_grid
from helmfem.sparse import PcgConfig

solve_mod = importlib.import_module("helmfem.solve")   # the package shadows it
cli_mod = importlib.import_module("helmfem.cli")

PAPER_CONFIGS = {   # config stem -> command, as in the README's reference table
    "evals": "spectrum",
    "pcg": "pcg-sweep",
    "rot_pic": "rotation-sweep",
    "dirichlet_layered": "solve",
    "robin_bar": "solve",
    "acoust": "omega-sweep",
    "table1": "convergence",
}
TOL = PcgConfig(rel_tol=1e-10, inner_rel_tol=1e-12)
RESIDUAL_FACTOR = 10.0   # the solve contract: block residual <= 10 * rel_tol


def _exp_xy(x, y):
    return np.exp(np.asarray(x) + np.asarray(y)) + 0j


def _neumann_g(x, y):
    return np.exp(0.3 * np.asarray(x)) + 2j * np.asarray(y)


ROBIN = RobinBC(a=-1 + 1j / 3, g=_neumann_g)


def random_field(n: int, seed: int) -> CoefficientField:
    """Per-element scalar L and M, real and imaginary parts uniform in (0, 10)."""
    rng = np.random.default_rng(seed)
    ne = (n - 1) ** 2
    lxx = rng.uniform(0.0, 10.0, ne) + 1j * rng.uniform(0.0, 10.0, ne)
    m = rng.uniform(0.0, 10.0, ne) + 1j * rng.uniform(0.0, 10.0, ne)
    return CoefficientField(lxx=lxx, lyy=lxx.copy(), m=m)


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------

@dataclasses.dataclass
class SolveOp:
    name: str
    spec: object

    def run(self):
        return solve_mod.solve(self.spec)

    def check(self, sol):
        """Problems found in ``sol`` and the counts that must repeat.

        The residual is recomputed from the block system of the unrotated
        inputs, independently of ``SolveInfo``.
        """
        spec = self.spec
        grid = build_grid(spec.domain, spec.nx, spec.ny)
        fld = spec.coeff if isinstance(spec.coeff, CoefficientField) else spec.coeff(grid)
        system = assemble_system(grid, fld, spec.bc)
        u = np.asarray(sol.u)
        if u.shape != (grid.n_nodes,) or not np.all(np.isfinite(u)):
            return [f"{self.name}: solution has wrong shape or non-finite values"], {}, None
        problems = []
        fixed = np.setdiff1d(np.arange(grid.n_nodes), system.free_nodes)
        if not np.allclose(u[fixed], system.lifting[fixed], rtol=1e-12, atol=0.0):
            problems.append(f"{self.name}: Dirichlet values differ from the data")
        a = u[system.free_nodes]
        res = system.block_residual(a.real, a.imag)
        limit = RESIDUAL_FACTOR * spec.pcg.rel_tol
        if not res <= limit:
            problems.append(f"{self.name}: block residual {res:.3e} > {limit:.1e}")
        info = sol.info
        counts = {
            "rhs": info.iters_rhs, "outer": info.iters_outer, "imag": info.iters_imag,
            "inner": info.inner_iterations, "a1_nnz": system.a1.nnz,
        }
        mats = (system.a1.mat, system.a2)
        ws = {"op": self.name, "n": system.n,
              "a1_bytes": _matrix_bytes(mats[0]), "a2_bytes": _matrix_bytes(mats[1])}
        return problems, counts, ws

    def cleanup(self, result):
        pass


def _matrix_bytes(mat) -> int:
    return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


@dataclasses.dataclass
class CliOp:
    name: str
    command: str
    config: Path
    tmp_root: Path

    def run(self):
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=self.tmp_root))
        with redirect_stderr(io.StringIO()):
            code = cli_mod.main([self.command, "--config", str(self.config),
                                 "--out", str(out), "--jobs", "1"])
        return code, out

    def check(self, result):
        code, out = result
        if code != 0:
            return [f"{self.name}: exit code {code}"], {}, None
        try:
            problems, counts = _check_artifacts(self.command, self.config, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{self.name}: unreadable artifact: {exc}"], {}, None
        return [f"{self.name}: {p}" for p in problems], counts, None

    def cleanup(self, result):
        shutil.rmtree(result[1], ignore_errors=True)


def _csv_rows(path: Path):
    """Data rows of a CSV artifact (header and '#' lines dropped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _bad_cells(rows):
    """Cells that are not finite numbers; 'error' columns must be empty."""
    bad = []
    for row in rows:
        for key, val in row.items():
            if key == "error":
                if val:
                    bad.append(f"error {val!r}")
            elif val and not math.isfinite(float(val)):
                bad.append(f"{key}={val}")
    return bad


def _read_meta(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key.strip()] = val.strip()
    return out


def _study_list(cp, key):
    return [v for v in cp.get("study", key).replace(";", ",").split(",") if v.strip()]


def _check_artifacts(command, config: Path, out: Path):
    """Expected artifacts, row counts and finite values of one CLI run."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(config.read_text())
    nx = cp.getint("domain", "nx", fallback=17)
    ny = cp.getint("domain", "ny", fallback=nx)
    rel_tol = cp.getfloat("solver", "rel_tol", fallback=TOL.rel_tol)
    problems, counts = [], {}
    expect = {}   # artifact -> data rows
    meta = _read_meta(out / "meta.txt")
    if command == "solve":
        res = float(meta["block_residual_rel"])
        if not res <= RESIDUAL_FACTOR * rel_tol:
            problems.append(f"block_residual_rel {res:.3e} > {RESIDUAL_FACTOR * rel_tol:.1e}")
        counts = {k: int(meta[k]) for k in
                  ("iters_rhs", "iters_outer", "iters_imag", "inner_iterations")}
        expect = {"solution.csv": nx * ny, "residuals.csv": counts["iters_outer"]}
    else:
        if meta.get("exit_code") != "0":
            problems.append(f"meta.txt exit_code {meta.get('exit_code')}")
        if command == "spectrum":
            expect = {"spectrum_raw.csv": (nx - 2) * (ny - 2),
                      "spectrum_preconditioned.csv": (nx - 2) * (ny - 2)}
        elif command == "pcg-sweep":
            expect = {"pcg_sweep.csv": len(_study_list(cp, "n_list")) * len(_study_list(cp, "tol_list"))}
        elif command == "rotation-sweep":
            expect = {"rotation_sweep.csv": len(_study_list(cp, "theta_list"))}
        elif command == "omega-sweep":
            expect = {"omega_sweep.csv": len(_study_list(cp, "omega_list"))}
        elif command == "convergence":
            expect = {"convergence.csv": len(_study_list(cp, "n_list"))}
    for name, n_rows in expect.items():
        path = out / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        _, rows = _csv_rows(path)
        if len(rows) != n_rows:
            problems.append(f"{name} has {len(rows)} rows, expected {n_rows}")
        bad = _bad_cells(rows)
        if bad:
            problems.append(f"{name} has bad cells: {bad[:3]}")
        if "outer_iterations" in (rows[0] if rows else {}):
            counts[name] = [r["outer_iterations"] for r in rows]
    return problems, counts


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _config_spec(root: Path, stem: str, n: int, **changes):
    spec, _ = parse_config((root / "configs" / "paper" / f"{stem}.ini").read_text())
    return dataclasses.replace(spec.with_grid_size(n), **changes)


def _spec(n, coeff, bc, mode):
    return solve_mod.ProblemSpec(nx=n, ny=n, coeff=coeff, bc=bc, pcg=TOL,
                                 rotation="auto", mode=mode)


def build(workload: str, seed: int, root: Path, tmp_root: Path):
    """The op list of one workload; the seed only feeds random coefficients."""
    if workload == "implicit-nested":
        mode = "implicit"
        return [
            SolveOp("random-dirichlet-129", _spec(129, random_field(129, seed), DirichletBC(f=_exp_xy), mode)),
            SolveOp("pcg-dirichlet-129", _config_spec(root, "pcg", 129, pcg=TOL, rotation="auto", mode=mode)),
            SolveOp("random-neumann-97", _spec(97, random_field(97, seed + 1), NeumannBC(g=_neumann_g), mode)),
            SolveOp("random-robin-97", _spec(97, random_field(97, seed + 2), ROBIN, mode)),
        ]
    if workload == "direct-lu":
        mode = "direct"
        return [
            SolveOp("random-dirichlet-257", _spec(257, random_field(257, seed), DirichletBC(f=_exp_xy), mode)),
            SolveOp("pcg-dirichlet-257", _config_spec(root, "pcg", 257, pcg=TOL, rotation="auto", mode=mode)),
            SolveOp("robin_bar-97", _config_spec(root, "robin_bar", 97, pcg=TOL, rotation="auto", mode=mode)),
        ]
    if workload == "paper-cli":
        configs = root / "configs" / "paper"
        ops = [CliOp(stem, cmd, configs / f"{stem}.ini", tmp_root)
               for stem, cmd in PAPER_CONFIGS.items()]
        for op in ops:   # the inputs are the parsed configs
            parse_config(op.config.read_text())
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str):
    """Small solves that load every lazily imported code path once."""
    mode = "direct" if workload == "direct-lu" else "implicit"
    for bc in (DirichletBC(f=_exp_xy), NeumannBC(g=_neumann_g), ROBIN):
        solve_mod.solve(_spec(9, random_field(9, 0), bc, mode))


def self_test(root: Path, tmp_root: Path):
    """The checks must flag a perturbed solution and a missing CSV."""
    op = SolveOp("selftest", _spec(17, random_field(17, 0), DirichletBC(f=_exp_xy), "direct"))
    sol = op.run()
    if op.check(sol)[0]:
        raise AssertionError("self-test: a correct solution was flagged")
    u = sol.u.copy()
    u[sol.free_nodes[len(sol.free_nodes) // 2]] += 1e-6 * np.abs(u).max()
    if not op.check(dataclasses.replace(sol, u=u))[0]:
        raise AssertionError("self-test: a perturbed solution passed the check")

    cli = CliOp("dirichlet_layered", "solve",
                root / "configs" / "paper" / "dirichlet_layered.ini", tmp_root)
    result = cli.run()
    try:
        if cli.check(result)[0]:
            raise AssertionError("self-test: a correct CLI run was flagged")
        (result[1] / "solution.csv").unlink()
        if not cli.check(result)[0]:
            raise AssertionError("self-test: a missing solution.csv passed the check")
    finally:
        cli.cleanup(result)
