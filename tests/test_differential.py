"""Seeded differential test over the input space of ``solve``.

Each draw picks a grid of at most 17 nodes per side, coefficient values L
(scalar or diagonal) and M whose arguments span an arc below or above pi,
a boundary kind with a random Robin constant a, a rotation policy
("auto", "off" or an explicit angle) and a mode.  The expected outcome
follows from the arguments of the values that enter K = A2 + i A1 alone:
L, M and, for Robin data, c = -i/a.

- "auto" fails at stage rotation exactly when no open half-plane holds
  them, that is when no angular gap between them exceeds pi.
- "off" and an explicit angle fail at stage admissibility exactly when a
  rotated value leaves the upper half-plane.
- Every other draw meets the solve contract and agrees with
  ``galerkin_oracle`` of the unrotated input, to the forward-error bound
  cond(K) * (contract + roundoff) that the contract implies.

Draws within DELTA radians of a decision boundary are redrawn: a largest
gap near pi, or a rotated value whose argument is near 0 or pi.  There
the outcome turns on roundoff, and a solvable draw has a near-zero
admissibility margin, so A1 is nearly singular and the system is
ill-conditioned by construction; such draws test nothing but that.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from helmfem import (
    CoefficientField, DirichletBC, NeumannBC, ProblemSpec, RobinBC, SolveError,
    assemble_system, galerkin_oracle, solve,
)
from helmfem.cli import main
from helmfem.solve import CONTRACT_FACTOR

SEED = 2
N_DRAWS = 54
DELTA = 0.1
EXIT_CODE = {"ok": 0, "rotation": 3, "admissibility": 3}   # the CLI's stage table
DATA = "exp(0.2*x) + i*y"


def data(x, y):
    return np.exp(0.2 * np.asarray(x)) + 1j * np.asarray(y)


def largest_gap(values) -> float:
    """Largest angular gap between the sorted arguments, with wrap-around."""
    a = np.sort(np.angle(values))
    return float(max(np.diff(a).max(initial=0.0), a[0] + 2.0 * np.pi - a[-1]))


def max_margin_angle(values) -> float:
    """Angle that turns the middle of the smallest arc holding the values
    to i: the middle of the largest gap goes to -i."""
    a = np.sort(np.angle(values))
    gaps = np.diff(np.append(a, a[0] + 2.0 * np.pi))
    k = int(np.argmax(gaps))
    return -np.pi / 2 - (a[k] + gaps[k] / 2)


@dataclass(frozen=True)
class Draw:
    n: int
    kind: str
    L: tuple            # (Lxx, Lyy)
    M: complex
    c: complex          # Robin c = -i/a, None for other kinds
    policy: object      # "auto", "off" or an angle
    mode: str
    outcome: str        # "ok", "rotation" or "admissibility"
    above_pi: bool      # no open half-plane holds the values

    @property
    def bc(self):
        if self.kind == "dirichlet":
            return DirichletBC(f=data)
        if self.kind == "neumann":
            return NeumannBC(g=data)
        return RobinBC(a=-1j / self.c, g=data)

    def spec(self) -> ProblemSpec:
        lv = self.L[0] if self.L[0] == self.L[1] else self.L
        return ProblemSpec(nx=self.n, ny=self.n, bc=self.bc, rotation=self.policy,
                           mode=self.mode,
                           coeff=lambda g: CoefficientField.constant(g, lv, self.M))


def draw(rng, kind: str, policy: str, above_pi: bool) -> Draw:
    """One draw of the given boundary kind, policy and arc class."""
    while True:
        # two values always lie in a half-plane, so an arc above pi needs three
        diagonal = int(rng.random() < 0.5 or (above_pi and kind != "robin"))
        k = 2 + diagonal + (kind == "robin")      # Lxx, [Lyy], M, [c]
        width = rng.uniform(1.1, 1.9) * np.pi if above_pi else rng.uniform(0.2, 0.9) * np.pi
        base = rng.uniform(-np.pi, np.pi)
        theta = 0.0 if policy == "off" else rng.uniform(-np.pi, np.pi)
        if policy != "auto" and rng.random() < 0.5:
            # center the arc in the upper half-plane after rotation
            base = np.pi / 2 - width / 2 - theta + rng.uniform(-0.3, 0.3)
        # evenly spread arguments, jittered, in a random order of roles
        args = base + width * (np.linspace(0.0, 1.0, k) + rng.uniform(-0.1, 0.1, k) / k)
        values = rng.uniform(0.5, 3.0, k) * np.exp(1j * rng.permutation(args))
        gap = largest_gap(values)
        if abs(gap - np.pi) < DELTA:
            continue
        if policy == "auto":
            outcome = "ok" if gap > np.pi else "rotation"
        else:
            phi = np.angle(values * np.exp(1j * theta))
            if np.minimum(np.abs(phi), np.pi - np.abs(phi)).min() < DELTA:
                continue
            outcome = "ok" if np.all(phi > 0.0) else "admissibility"
        return Draw(n=int(rng.choice([5, 9, 17], p=[0.4, 0.4, 0.2])), kind=kind,
                    L=(complex(values[0]), complex(values[diagonal])),
                    M=complex(values[1 + diagonal]),
                    c=complex(values[-1]) if kind == "robin" else None,
                    policy=policy if policy != "angle" else float(theta),
                    mode=str(rng.choice(["implicit", "direct"])), outcome=outcome,
                    above_pi=bool(gap < np.pi))


# every (kind, policy, arc class) stratum gets the same number of draws
STRATA = [(kind, policy, above) for kind in ("dirichlet", "neumann", "robin")
          for policy in ("auto", "off", "angle") for above in (False, True)]
DRAWS = [draw(rng, *STRATA[i % len(STRATA)])
         for i, rng in enumerate(np.random.default_rng(SEED).spawn(N_DRAWS))]


def test_draws_cover_the_input_space():
    seen = {(d.kind, d.outcome) for d in DRAWS}
    for kind in ("dirichlet", "neumann", "robin"):
        for outcome in EXIT_CODE:
            assert (kind, outcome) in seen
    assert {d.above_pi for d in DRAWS} == {False, True}
    assert {d.mode for d in DRAWS} == {"implicit", "direct"}
    assert {type(d.policy) for d in DRAWS} == {str, float}
    assert {d.policy for d in DRAWS if isinstance(d.policy, str)} == {"auto", "off"}
    assert {d.L[0] == d.L[1] for d in DRAWS} == {False, True}
    # Robin draws that "auto" solves only by turning c with L and M
    assert any(d.kind == "robin" and d.policy == "auto" and d.outcome == "ok"
               and (np.exp(1j * max_margin_angle([*d.L, d.M])) * d.c).imag < 0.0
               for d in DRAWS)


def test_outcome_and_solution_of_every_draw():
    for i, d in enumerate(DRAWS):
        spec = d.spec()
        try:
            sol = solve(spec)
            stage = "ok"
        except SolveError as exc:
            stage = exc.stage
        assert stage == d.outcome, (i, d)
        if stage != "ok":
            continue
        rel_tol = spec.pcg.rel_tol
        assert sol.info.residual_rel <= CONTRACT_FACTOR * rel_tol, (i, d)
        fld = spec.coeff(sol.grid)
        ref = galerkin_oracle(sol.grid, fld, spec.bc)
        # the block matrix is symmetric: its condition number from eigenvalues
        eig = np.abs(np.linalg.eigvalsh(
            assemble_system(sol.grid, fld, spec.bc).block_matrix_dense()))
        kappa = eig.max() / eig.min()
        err = np.linalg.norm(sol.u - ref) / np.linalg.norm(ref)
        assert err <= kappa * (CONTRACT_FACTOR * rel_tol + 1e-14), (i, d, err, kappa)


def _config(d: Draw) -> str:
    def z(v):
        return f"({v.real!r}) + ({v.imag!r})*i"

    if d.kind == "dirichlet":
        boundary = f"f = {DATA}"
    else:
        boundary = f"g = {DATA}" + (f"\na = {z(-1j / d.c)}" if d.kind == "robin" else "")
    theta = d.policy if isinstance(d.policy, str) else repr(d.policy)
    return (f"[domain]\nnx = {d.n}\n\n[coefficients]\nkind = constant\n"
            f"l = {z(d.L[0])}\nm = {z(d.M)}\n\n[boundary]\nkind = {d.kind}\n{boundary}\n\n"
            f"[solver]\nmode = {d.mode}\ntheta = {theta}\n")


@pytest.mark.parametrize("outcome", sorted(EXIT_CODE))
def test_cli_exit_code_of_draws(tmp_path, capsys, outcome):
    # the config grammar has scalar L only
    picked = [d for d in DRAWS if d.outcome == outcome and d.L[0] == d.L[1]][:3]
    assert picked
    for i, d in enumerate(picked):
        cfg = tmp_path / f"draw{i}.ini"
        cfg.write_text(_config(d))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / f"out{i}")]) \
            == EXIT_CODE[outcome], d
        if outcome != "ok":
            assert f"[{outcome}]" in capsys.readouterr().err
