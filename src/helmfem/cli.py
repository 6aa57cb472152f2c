"""Command-line interface: parse a problem config, run, emit CSV artifacts.

Commands: solve, convergence, spectrum, pcg-sweep, rotation-sweep,
omega-sweep.  Configs are INI files with sections [domain],
[coefficients], [boundary], [solver], [study]; unknown keys are rejected
with their line number.  Exit codes: 0 success, 2 config/parse error
(including non-finite coefficients or boundary data), 3
admissibility/rotation failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


from .assemble import (
    AssemblyError, DirichletBC, NeumannBC, NonFiniteDataError, RobinBC, assemble_system,
)
from .coeff import AcousticParams, CoefficientField, HalfPlaneError, acoustic_to_helmholtz
from .expr import ExprError, compile_expression, parse_complex
from .solve import ProblemSpec, SolveError, solve, write_meta, write_solution_csv
from .sparse import PcgConfig, PcgError, write_residual_csv
from .verify import (
    convergence_study, omega_sweep, pcg_iteration_sweep, rotation_sweep,
    schur_spectrum, write_convergence_csv, write_omega_sweep_csv,
    write_pcg_sweep_csv, write_rotation_sweep_csv, write_spectrum_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_SOLVER = 4

COMMANDS = ("solve", "convergence", "spectrum", "pcg-sweep", "rotation-sweep", "omega-sweep")


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
    except (KeyError, ValueError, ArithmeticError, ExprError, AssemblyError) as exc:
        if isinstance(exc, ConfigError):
            raise
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
    grid = spec.build_grid()
    fld = spec.build_field(grid)
    system = assemble_system(grid, fld, spec.bc)
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
    with open(out / "pcg_flatness.txt", "w") as f:
        for tol, spread in flatness.items():
            f.write(f"tol {tol:.3e}: max-min iterations = {spread}\n")
    return _sweep_exit(cells, out)


def _run_rotation_sweep(spec, study, out: Path, jobs: int):
    if not study.theta_list:
        raise ConfigError("rotation-sweep needs theta_list in [study]")
    rows, base_err = rotation_sweep(spec, study.theta_list)
    write_rotation_sweep_csv(rows, out / "rotation_sweep.csv")
    with open(out / "rotation_base_error.txt", "w") as f:
        f.write(f"base_error = {base_err:.17g}\n")
    return EXIT_OK


def _run_omega_sweep(spec, study, out: Path, jobs: int):
    if not study.omega_list:
        raise ConfigError("omega-sweep needs omega_list in [study]")
    if study.acoustic is None:
        raise ConfigError("omega-sweep needs kind = acoustic in [coefficients]")

    if jobs > 1:
        # independent cells; results keep input order
        def one(w):
            return omega_sweep(study.acoustic, [w], study.cells_per_wavelength,
                               domain=spec.domain)[0]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, study.omega_list))
    else:
        rows = omega_sweep(study.acoustic, study.omega_list,
                           study.cells_per_wavelength, domain=spec.domain)
    write_omega_sweep_csv(rows, out / "omega_sweep.csv")
    return _sweep_exit(rows, out)


def _sweep_exit(cells, out: Path) -> int:
    failures = [c for c in cells if not c.ok]
    if failures:
        with open(out / "failures.txt", "w") as f:
            for c in failures:
                f.write(f"{c.params}: {c.error}\n")
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
    ap.add_argument("command", choices=COMMANDS)
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
    except (ConfigError, ExprError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.mode:
        spec = dataclasses.replace(spec, mode=args.mode)
    try:
        if args.tol is not None:
            spec = dataclasses.replace(
                spec, pcg=dataclasses.replace(spec.pcg, rel_tol=args.tol,
                                              inner_rel_tol=min(spec.pcg.inner_rel_tol, args.tol)))
        if args.theta is not None:
            rot = args.theta if args.theta in ("auto", "off") else float(args.theta)
            spec = dataclasses.replace(spec, rotation=rot)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    try:
        code = _RUNNERS[args.command](spec, study, out, max(1, args.jobs))
    except (ConfigError, NonFiniteDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveError as exc:
        if exc.stage == "setup":
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if exc.stage in ("admissibility", "rotation"):
            print(f"admissibility error: {exc}", file=sys.stderr)
            return EXIT_ADMISSIBILITY
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (HalfPlaneError, AssemblyError) as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except PcgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    elapsed = time.perf_counter() - t0
    if args.command != "solve":  # solve writes its own meta block
        with open(out / "meta.txt", "w") as f:
            f.write(f"command = {args.command}\nconfig = {args.config}\n"
                    f"nx = {spec.nx}\nny = {spec.ny}\nmode = {spec.mode}\n"
                    f"theta_policy = {spec.rotation}\nrel_tol = {spec.pcg.rel_tol:.17g}\n"
                    f"jobs = {max(1, args.jobs)}\nwall_time_s = {elapsed:.6f}\n"
                    f"exit_code = {code}\n")
    print(f"done in {elapsed:.2f}s, artifacts in {out}/", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
