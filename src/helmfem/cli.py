"""Command-line interface: parse a problem config, run, write artifacts.

Commands: solve, convergence, spectrum, pcg-sweep, rotation-sweep,
omega-sweep.  Configs are INI files with sections [domain],
[coefficients], [boundary], [solver], [study]; unknown keys are rejected
with their line number.  Exit codes: 0 success, 2 config/parse error
(including non-finite coefficients or boundary data), 3
admissibility/rotation failure, 4 solver failure.

Every file helmfem writes goes through the artifact writers at the end
of this module: CSV header plus rows, or ``key = value`` lines, with one
rule for every cell (a float at 17 significant digits, None empty,
anything else as ``str``).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# assemble_system is unused here; perfbench/tracer.py wraps cli.assemble_system
# and tests/test_bench_contract.py pins that wrap point.
from .assemble import DirichletBC, NeumannBC, RobinBC, assemble_system  # noqa: F401
from .coeff import AcousticParams, CoefficientField, acoustic_to_helmholtz
from .expr import compile_expression, parse_complex
from .solve import ProblemSpec, SolveError, setup, solve
from .sparse import PcgConfig
from .verify import (
    convergence_study, omega_sweep, pcg_iteration_sweep, rotation_sweep, schur_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_SOLVER = 4

# exit code of a SolveError by its stage; any other stage is a solver failure
_STAGE_EXIT = {"setup": EXIT_CONFIG, "admissibility": EXIT_ADMISSIBILITY,
               "rotation": EXIT_ADMISSIBILITY}
_EXIT_LABEL = {EXIT_CONFIG: "config error", EXIT_ADMISSIBILITY: "admissibility error",
               EXIT_SOLVER: "solver error"}


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "domain": {"x0", "x1", "y0", "y1", "nx", "ny"},
    "coefficients": {
        "kind", "l", "m", "axis", "interface", "l1", "m1", "l2", "m2",
        "width", "l_bar", "m_bar", "l_bg", "m_bg", "lo", "hi", "seed",
        "rho", "kappa", "omega",
    },
    "boundary": {"kind", "f", "g", "a"},
    "solver": {"rel_tol", "inner_rel_tol", "max_iter", "mode", "theta"},
    "study": {
        "n_list", "tol_list", "theta_list", "omega_list",
        "cells_per_wavelength", "exact",
    },
}


@dataclasses.dataclass
class StudyConfig:
    n_list: list = None
    tol_list: list = None
    theta_list: list = None
    omega_list: list = None
    cells_per_wavelength: float = 5.0
    exact: object = None
    acoustic: AcousticParams = None


def _key_line(text: str, section: str, key: str) -> int:
    """Best-effort line number of a key inside its section."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.lower().startswith(key.lower()):
            rest = stripped[len(key):].lstrip()
            if rest.startswith("=") or rest.startswith(":"):
                return lineno
    return -1


def _coeff_builder(sec):
    kind = sec.get("kind", "constant").strip().lower()
    if kind == "constant":
        L = parse_complex(sec["l"])
        M = parse_complex(sec["m"])
        return lambda g: CoefficientField.constant(g, L, M), None
    if kind == "layered":
        axis = sec.get("axis", "y").strip()
        interface = float(sec.get("interface", "0.5"))
        low = (parse_complex(sec["l1"]), parse_complex(sec["m1"]))
        high = (parse_complex(sec["l2"]), parse_complex(sec["m2"]))
        return lambda g: CoefficientField.layered(g, axis, interface, low, high), None
    if kind == "bar":
        width = float(sec.get("width", "0.25"))
        bar = (parse_complex(sec["l_bar"]), parse_complex(sec["m_bar"]))
        bg = (parse_complex(sec["l_bg"]), parse_complex(sec["m_bg"]))
        return lambda g: CoefficientField.diagonal_bar(g, width, bar, bg), None
    if kind == "random":
        lo = float(sec.get("lo", "0"))
        hi = float(sec.get("hi", "10"))
        seed = int(sec.get("seed", "1"))
        return lambda g: CoefficientField.random(g, lo, hi, seed), None
    if kind == "acoustic":
        params = AcousticParams(
            rho=parse_complex(sec["rho"]),
            kappa=parse_complex(sec["kappa"]),
            omega=float(sec.get("omega", "1.0")),
        )
        return lambda g, p=params: acoustic_to_helmholtz(p, g), params
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def _boundary(sec):
    kind = sec.get("kind", "dirichlet").strip().lower()
    if kind == "dirichlet":
        return DirichletBC(f=compile_expression(sec.get("f", "0")))
    if kind == "neumann":
        return NeumannBC(g=compile_expression(sec.get("g", "0")))
    if kind == "robin":
        return RobinBC(a=parse_complex(sec["a"]), g=compile_expression(sec.get("g", "0")))
    raise ConfigError(f"unknown boundary kind {kind!r}")


def _floats(csv_text):
    return [float(v) for v in csv_text.replace(";", ",").split(",") if v.strip()]


def _ints(csv_text):
    return [int(v) for v in csv_text.replace(";", ",").split(",") if v.strip()]


def parse_config(text: str):
    """Parse a config file into (ProblemSpec, StudyConfig).

    Raises ConfigError with a line number for structural problems and
    unknown keys; defaults are rel_tol 1e-10, inner 1e-12, mode implicit,
    rotation auto, unit-square domain with 17 nodes per side.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        s = section.lower()
        if s not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key.lower() not in _KNOWN_KEYS[s]:
                line = _key_line(text, s, key)
                raise ConfigError(f"unknown key {key!r} in [{section}] (line {line})")

    try:
        dom = parser["domain"] if parser.has_section("domain") else {}
        domain = (float(dom.get("x0", "0")), float(dom.get("x1", "1")),
                  float(dom.get("y0", "0")), float(dom.get("y1", "1")))
        nx = int(dom.get("nx", "17"))
        ny = int(dom.get("ny", str(nx)))

        if not parser.has_section("coefficients"):
            raise ConfigError("missing [coefficients] section")
        coeff, acoustic = _coeff_builder(parser["coefficients"])

        if not parser.has_section("boundary"):
            raise ConfigError("missing [boundary] section")
        bc = _boundary(parser["boundary"])

        sol = parser["solver"] if parser.has_section("solver") else {}
        cfg = PcgConfig(
            rel_tol=float(sol.get("rel_tol", "1e-10")),
            inner_rel_tol=float(sol.get("inner_rel_tol", "1e-12")),
            max_iter=int(sol.get("max_iter", "0")),
        )
        theta_raw = sol.get("theta", "auto").strip()
        rotation = theta_raw if theta_raw in ("auto", "off") else float(theta_raw)
        mode = sol.get("mode", "implicit").strip()
        if mode not in ("implicit", "direct"):
            raise ConfigError(f"solver mode must be implicit or direct, got {mode!r}")

        spec = ProblemSpec(domain=domain, nx=nx, ny=ny, coeff=coeff, bc=bc,
                           pcg=cfg, rotation=rotation, mode=mode)

        study = StudyConfig(acoustic=acoustic)
        if parser.has_section("study"):
            st = parser["study"]
            if "n_list" in st:
                study.n_list = _ints(st["n_list"])
            if "tol_list" in st:
                study.tol_list = _floats(st["tol_list"])
            if "theta_list" in st:
                study.theta_list = _floats(st["theta_list"])
            if "omega_list" in st:
                study.omega_list = _floats(st["omega_list"])
            if "cells_per_wavelength" in st:
                study.cells_per_wavelength = float(st["cells_per_wavelength"])
            if "exact" in st:
                study.exact = compile_expression(st["exact"])
        return spec, study
    except ConfigError:
        raise
    except (KeyError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _run_solve(spec, study, out: Path, jobs: int):
    sol = solve(spec)
    write_solution_csv(sol, out / "solution.csv")
    write_meta(sol, out / "meta.txt")
    if len(sol.info.outer_residuals):
        write_residual_csv(sol.info.outer_residuals, out / "residuals.csv")
    return EXIT_OK


def _run_convergence(spec, study, out: Path, jobs: int):
    if not study.n_list:
        raise ConfigError("convergence needs n_list in [study]")
    if study.exact is None:
        raise ConfigError("convergence needs an exact solution in [study]")
    res = convergence_study(spec, study.n_list, study.exact)
    write_convergence_csv(res, out / "convergence.csv")
    return EXIT_OK


def _run_spectrum(spec, study, out: Path, jobs: int):
    # the spectrum of the system as given: no rotation policy applies
    _, _, system = setup(dataclasses.replace(spec, rotation="off"))
    spectra = schur_spectrum(system)
    write_spectrum_csv(spectra.raw, out / "spectrum_raw.csv")
    write_spectrum_csv(spectra.preconditioned, out / "spectrum_preconditioned.csv")
    return EXIT_OK


def _run_pcg_sweep(spec, study, out: Path, jobs: int):
    if not (study.n_list and study.tol_list):
        raise ConfigError("pcg-sweep needs n_list and tol_list in [study]")
    cells, flatness = pcg_iteration_sweep(
        spec.coeff, study.n_list, study.tol_list, domain=spec.domain,
        rotation=spec.rotation, mode=spec.mode,
    )
    write_pcg_sweep_csv(cells, out / "pcg_sweep.csv")
    _write_keys(((f"tol {tol:.3e}: max-min iterations", spread)
                 for tol, spread in flatness.items()), out / "pcg_flatness.txt")
    return _sweep_exit(cells, out)


def _run_rotation_sweep(spec, study, out: Path, jobs: int):
    if not study.theta_list:
        raise ConfigError("rotation-sweep needs theta_list in [study]")
    rows, base_err = rotation_sweep(spec, study.theta_list)
    write_rotation_sweep_csv(rows, out / "rotation_sweep.csv")
    _write_keys([("base_error", base_err)], out / "rotation_base_error.txt")
    return EXIT_OK


def _run_omega_sweep(spec, study, out: Path, jobs: int):
    if not study.omega_list:
        raise ConfigError("omega-sweep needs omega_list in [study]")
    if study.acoustic is None:
        raise ConfigError("omega-sweep needs kind = acoustic in [coefficients]")

    def one(w):
        return omega_sweep(study.acoustic, [w], study.cells_per_wavelength,
                           domain=spec.domain)[0]

    # independent cells; results keep input order
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(one, study.omega_list))
    write_omega_sweep_csv(rows, out / "omega_sweep.csv")
    return _sweep_exit(rows, out)


def _sweep_exit(cells, out: Path) -> int:
    failures = [c for c in cells if not c.ok]
    if failures:
        _write_lines([f"{c.params}: {c.error}" for c in failures], out / "failures.txt")
        return EXIT_SOLVER
    return EXIT_OK


_RUNNERS = {
    "solve": _run_solve,
    "convergence": _run_convergence,
    "spectrum": _run_spectrum,
    "pcg-sweep": _run_pcg_sweep,
    "rotation-sweep": _run_rotation_sweep,
    "omega-sweep": _run_omega_sweep,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="helmfem",
        description="Finite-element solver for the complex Helmholtz equation "
                    "(saddle-point formulation, two SPD solves per problem).",
    )
    ap.add_argument("command", choices=_RUNNERS)
    ap.add_argument("--config", required=True, help="problem config file (INI)")
    ap.add_argument("--out", default="out", help="output directory (created if missing)")
    ap.add_argument("--jobs", type=int, default=1, help="worker pool size for sweeps")
    ap.add_argument("--mode", choices=("implicit", "direct"), help="override solver mode")
    ap.add_argument("--tol", type=float, help="override outer relative tolerance")
    ap.add_argument("--theta", help="override rotation policy: auto | off | angle")
    args = ap.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        spec, study = parse_config(text)
        if args.mode:
            spec = dataclasses.replace(spec, mode=args.mode)
        if args.tol is not None:
            spec = dataclasses.replace(
                spec, pcg=dataclasses.replace(spec.pcg, rel_tol=args.tol,
                                              inner_rel_tol=min(spec.pcg.inner_rel_tol, args.tol)))
        if args.theta is not None:
            rot = args.theta if args.theta in ("auto", "off") else float(args.theta)
            spec = dataclasses.replace(spec, rotation=rot)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        code = _RUNNERS[args.command](spec, study, out, max(1, args.jobs))
    except SolveError as exc:
        code = _STAGE_EXIT.get(exc.stage, EXIT_SOLVER)
        print(f"{_EXIT_LABEL[code]}: {exc}", file=sys.stderr)
        return code
    except ValueError as exc:
        # ConfigError, ExprError and the library's argument checks; every
        # AssemblyError, HalfPlaneError and PcgError arrives as a SolveError.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - t0
    if args.command != "solve":  # solve writes its own meta block
        _write_keys({
            "command": args.command, "config": args.config, "nx": spec.nx, "ny": spec.ny,
            "mode": spec.mode, "theta_policy": str(spec.rotation),
            "rel_tol": spec.pcg.rel_tol, "jobs": max(1, args.jobs),
            "wall_time_s": f"{elapsed:.6f}", "exit_code": code,
        }.items(), out / "meta.txt")
    print(f"done in {elapsed:.2f}s, artifacts in {out}/", file=sys.stderr)
    return code


# ----------------------------------------------------------------------
# Artifact writers (the path is always the last argument)
# ----------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_lines(lines, path) -> None:
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def _write_csv(header: str, rows, path, footer=()) -> None:
    _write_lines([header, *(",".join(map(_cell, row)) for row in rows), *footer], path)


def _write_keys(pairs, path) -> None:
    _write_lines([f"{key} = {_cell(value)}" for key, value in pairs], path)


def write_solution_csv(sol, path) -> None:
    """(x, y, u_re, u_im) over all grid nodes."""
    _write_csv("x,y,u_re,u_im", ((x, y, v.real, v.imag)
                                 for (x, y), v in zip(sol.grid.nodes, sol.u)), path)


def write_meta(sol, path) -> None:
    """Key-value metadata of a solved field."""
    info = sol.info
    _write_keys({
        "nx": sol.grid.nx, "ny": sol.grid.ny, "hx": sol.grid.hx, "hy": sol.grid.hy,
        "theta_applied": sol.theta_applied, "bc_kind": info.bc_kind, "mode": info.mode,
        "n_free": info.n_free, "iters_rhs": info.iters_rhs, "iters_outer": info.iters_outer,
        "iters_imag": info.iters_imag, "inner_iterations": info.inner_iterations,
        "block_residual_rel": info.residual_rel, "rel_tol": info.rel_tol,
        "wall_time_s": f"{info.wall_time:.6f}",
    }.items(), path)


def write_residual_csv(residuals, path) -> None:
    """Outer PCG history as (iteration, relative residual)."""
    _write_csv("iteration,relative_residual", enumerate(residuals, start=1), path)


def write_convergence_csv(study, path) -> None:
    """Study rows with the rate fitted over the rows so far, then the slope."""
    def slope_so_far(k):
        hs = np.array([r[1] for r in study.rows[: k + 1]])
        v2 = np.array([r[2].v2 for r in study.rows[: k + 1]])
        if not np.all(v2 > 0):
            return "undefined"
        return float(np.polyfit(np.log(hs), np.log(v2), 1)[0])

    rows = ((n, h, rep.v2, slope_so_far(k) if k else None)
            for k, (n, h, rep) in enumerate(study.rows))
    slope = "undefined" if study.slope is None else _cell(study.slope)
    _write_csv("n,h,v2_error,slope_so_far", rows, path, footer=[f"# slope = {slope}"])


def write_spectrum_csv(values, path) -> None:
    _write_csv("index,eigenvalue", enumerate(values), path)


def write_pcg_sweep_csv(cells, path) -> None:
    _write_csv("n,tol,outer_iterations,error",
               ((*c.params, c.value, c.error) for c in cells), path)


def write_rotation_sweep_csv(rows, path) -> None:
    _write_csv("theta,admissible,error_vs_oracle,max_diff_vs_base",
               ((r.theta, int(r.admissible), r.error_vs_oracle, r.max_diff_vs_base)
                for r in rows), path)


def write_omega_sweep_csv(rows, path) -> None:
    def cells(c):
        v2, iters = (None, None) if c.value is None else (c.value[0].v2, c.value[1])
        return (*c.params, v2, iters, c.error)

    _write_csv("omega,n,v2_error,outer_iterations,error", map(cells, rows), path)


if __name__ == "__main__":
    sys.exit(main())
