"""Command-line interface: parse a problem config, run, write artifacts.

Commands: solve, convergence, spectrum, pcg-sweep, rotation-sweep,
omega-sweep.  Configs are INI files with sections [domain],
[coefficients], [boundary], [solver], [study]; unknown sections and
keys, and keys that the section's coefficient or boundary kind does not
read, are rejected with their line number; the config is the only source
of solver settings.  Exit codes: 0 success, 2 config/parse error
(including non-finite coefficients, boundary data or rotation angles and
a cells_per_wavelength that is not positive and finite), a --jobs below
1, or an unreadable config or unwritable output directory,
3 admissibility/rotation failure, 4 solver failure.

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

# assemble_system is unused here; perfbench/tracer.py wraps cli.assemble_system
# and tests/test_bench_contract.py pins that wrap point.
from .assemble import DirichletBC, NeumannBC, RobinBC, assemble_system  # noqa: F401
from .coeff import AcousticParams, CoefficientField
from .expr import compile_expression, parse_complex
from .solve import ProblemSpec, SolveError, setup, solve
from .sparse import PcgConfig
from .verify import (
    convergence_study, omega_sweep, pcg_iteration_sweep, rotation_sweep, schur_spectrum,
    v2_slope,
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


def _floats(csv_text, kind=float):
    return [kind(v) for v in csv_text.replace(";", ",").split(",") if v.strip()]


# [study] key -> how its value is read
_STUDY_VALUES = {
    "n_list": lambda text: _floats(text, int), "tol_list": _floats, "theta_list": _floats,
    "omega_list": _floats, "cells_per_wavelength": float, "exact": compile_expression,
}


# the keys each coefficient and boundary kind reads besides "kind", and
# the kind a section without a "kind" key has
_KIND_KEYS = {
    "coefficients": {
        "constant": {"l", "m"},
        "layered": {"axis", "interface", "l1", "m1", "l2", "m2"},
        "bar": {"width", "l_bar", "m_bar", "l_bg", "m_bg"},
        "random": {"lo", "hi", "seed"},
        "acoustic": {"rho", "kappa", "omega"},
    },
    "boundary": {"dirichlet": {"f"}, "neumann": {"g"}, "robin": {"a", "g"}},
}
_DEFAULT_KIND = {"coefficients": "constant", "boundary": "dirichlet"}

_KNOWN_KEYS = {
    "domain": {"x0", "x1", "y0", "y1", "nx", "ny"},
    **{s: {"kind"}.union(*kinds.values()) for s, kinds in _KIND_KEYS.items()},
    "solver": {"rel_tol", "mode", "theta"},
    "study": set(_STUDY_VALUES),
}


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


def _kind(sec, section: str) -> str:
    return sec.get("kind", _DEFAULT_KIND[section]).strip().lower()


def _coeff_builder(sec):
    kind = _kind(sec, "coefficients")
    if kind == "constant":
        L = parse_complex(sec["l"])
        M = parse_complex(sec["m"])
        return lambda g: CoefficientField.constant(g, L, M)
    if kind == "layered":
        axis = sec.get("axis", "y").strip()
        interface = float(sec.get("interface", "0.5"))
        low = (parse_complex(sec["l1"]), parse_complex(sec["m1"]))
        high = (parse_complex(sec["l2"]), parse_complex(sec["m2"]))
        return lambda g: CoefficientField.layered(g, axis, interface, low, high)
    if kind == "bar":
        width = float(sec.get("width", "0.25"))
        bar = (parse_complex(sec["l_bar"]), parse_complex(sec["m_bar"]))
        bg = (parse_complex(sec["l_bg"]), parse_complex(sec["m_bg"]))
        return lambda g: CoefficientField.diagonal_bar(g, width, bar, bg)
    if kind == "random":
        lo = float(sec.get("lo", "0"))
        hi = float(sec.get("hi", "10"))
        seed = int(sec.get("seed", "1"))
        return lambda g: CoefficientField.random(g, lo, hi, seed)
    if kind == "acoustic":
        return AcousticParams(rho=parse_complex(sec["rho"]), kappa=parse_complex(sec["kappa"]),
                              omega=float(sec.get("omega", "1.0")))
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def _boundary(sec):
    kind = _kind(sec, "boundary")
    if kind == "dirichlet":
        return DirichletBC(f=compile_expression(sec.get("f", "0")))
    if kind == "neumann":
        return NeumannBC(g=compile_expression(sec.get("g", "0")))
    if kind == "robin":
        return RobinBC(a=parse_complex(sec["a"]), g=compile_expression(sec.get("g", "0")))
    raise ConfigError(f"unknown boundary kind {kind!r}")


def parse_config(text: str):
    """Parse a config file into (ProblemSpec, study), where study maps each
    [study] key the file sets to its parsed value.

    Raises ConfigError for unknown sections (``[DEFAULT]`` included), for
    structural problems, unknown keys and keys that the section's
    coefficient or boundary kind does not read, with a line number where
    there is one; defaults are rel_tol 1e-10, mode implicit, rotation
    auto, unit-square domain with 17 nodes per side.
    """
    # no section name in a file can be empty, so [DEFAULT] is a plain
    # section and is rejected as unknown
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        s = section.lower()
        if s not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        kind = _kind(parser[section], s) if s in _KIND_KEYS else None
        reads = _KIND_KEYS.get(s, {}).get(kind)   # None for an unknown kind
        for key in parser[section]:
            if key.lower() not in _KNOWN_KEYS[s]:
                line = _key_line(text, s, key)
                raise ConfigError(f"unknown key {key!r} in [{section}] (line {line})")
            if reads is not None and key.lower() not in reads | {"kind"}:
                line = _key_line(text, s, key)
                raise ConfigError(f"key {key!r} in [{section}] is not read by kind = {kind} "
                                  f"(line {line})")

    try:
        dom = parser["domain"] if parser.has_section("domain") else {}
        domain = (float(dom.get("x0", "0")), float(dom.get("x1", "1")),
                  float(dom.get("y0", "0")), float(dom.get("y1", "1")))
        nx = int(dom.get("nx", "17"))
        ny = int(dom.get("ny", str(nx)))

        if not parser.has_section("coefficients"):
            raise ConfigError("missing [coefficients] section")
        coeff = _coeff_builder(parser["coefficients"])

        if not parser.has_section("boundary"):
            raise ConfigError("missing [boundary] section")
        bc = _boundary(parser["boundary"])

        sol = parser["solver"] if parser.has_section("solver") else {}
        cfg = PcgConfig(rel_tol=float(sol.get("rel_tol", "1e-10")))
        theta_raw = sol.get("theta", "auto").strip()
        rotation = theta_raw if theta_raw in ("auto", "off") else float(theta_raw)
        spec = ProblemSpec(domain=domain, nx=nx, ny=ny, coeff=coeff, bc=bc, pcg=cfg,
                           rotation=rotation, mode=sol.get("mode", "implicit").strip())

        study = parser["study"] if parser.has_section("study") else {}
        return spec, {key: _STUDY_VALUES[key](value) for key, value in study.items()}
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
    if not study.get("n_list"):
        raise ConfigError("convergence needs n_list in [study]")
    if "exact" not in study:
        raise ConfigError("convergence needs an exact solution in [study]")
    res = convergence_study(spec, study["n_list"], study["exact"])
    write_convergence_csv(res, out / "convergence.csv")
    return EXIT_OK


def _run_spectrum(spec, study, out: Path, jobs: int):
    # the spectrum of the system as given: no rotation policy applies
    _, system = setup(dataclasses.replace(spec, rotation="off"))
    spectra = schur_spectrum(system)
    write_spectrum_csv(spectra.raw, out / "spectrum_raw.csv")
    write_spectrum_csv(spectra.preconditioned, out / "spectrum_preconditioned.csv")
    return EXIT_OK


def _run_pcg_sweep(spec, study, out: Path, jobs: int):
    if not (study.get("n_list") and study.get("tol_list")):
        raise ConfigError("pcg-sweep needs n_list and tol_list in [study]")
    cells, flatness = pcg_iteration_sweep(
        spec.coeff, study["n_list"], study["tol_list"], domain=spec.domain,
        rotation=spec.rotation, mode=spec.mode,
    )
    write_pcg_sweep_csv(cells, out / "pcg_sweep.csv")
    _write_keys(((f"tol {tol:.3e}: max-min iterations", spread)
                 for tol, spread in flatness.items()), out / "pcg_flatness.txt")
    return _sweep_exit(cells, out)


def _run_rotation_sweep(spec, study, out: Path, jobs: int):
    if not study.get("theta_list"):
        raise ConfigError("rotation-sweep needs theta_list in [study]")
    rows, base_err = rotation_sweep(spec, study["theta_list"])
    write_rotation_sweep_csv(rows, out / "rotation_sweep.csv")
    _write_keys([("base_error", base_err)], out / "rotation_base_error.txt")
    return EXIT_OK


def _run_omega_sweep(spec, study, out: Path, jobs: int):
    if not study.get("omega_list"):
        raise ConfigError("omega-sweep needs omega_list in [study]")
    if not isinstance(spec.coeff, AcousticParams):
        raise ConfigError("omega-sweep needs kind = acoustic in [coefficients]")
    cells_per_wavelength = study.get("cells_per_wavelength", 5.0)
    # every omega is checked before the pool starts its first solve
    materials = [dataclasses.replace(spec.coeff, omega=w) for w in study["omega_list"]]

    def one(material):
        return omega_sweep(material, [material.omega], cells_per_wavelength,
                           domain=spec.domain)[0]

    # independent cells; results keep input order
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(one, materials))
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
    args = ap.parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        text = Path(args.config).read_text()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    t0 = time.perf_counter()
    try:
        code = _RUNNERS[args.command](*parse_config(text), out, args.jobs)
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
        _write_keys([("command", args.command), ("config", args.config), ("jobs", args.jobs),
                     ("wall_time_s", f"{elapsed:.6f}"), ("exit_code", code)], out / "meta.txt")
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
    def shown(slope):
        return "undefined" if slope is None else slope

    rows = ((n, h, rep.v2, shown(v2_slope(study.rows[: k + 1])) if k else None)
            for k, (n, h, rep) in enumerate(study.rows))
    _write_csv("n,h,v2_error,slope_so_far", rows, path,
               footer=[f"# slope = {_cell(shown(study.slope))}"])


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
