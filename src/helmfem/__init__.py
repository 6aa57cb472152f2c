"""Finite-element solver for the complex Helmholtz equation.

Discretizes div(L grad u) = M u with complex L, M through a saddle-point
variational principle whose block structure reduces each solve to two
symmetric positive-definite real systems (a Schur complement for the real
part, a plain A1 solve for the imaginary part), handled by nested
preconditioned conjugate gradients whose inner A1 solves are
preconditioned by a geometric-multigrid V-cycle.
"""

from .grid import Grid, build_grid
from .coeff import (
    AcousticParams, AdmissibilityReport, CoefficientField, HalfPlaneError, admissibility,
    auto_rotation_angle,
)
from .assemble import (
    AssemblyError, BlockSystem, DirichletBC, NeumannBC, RobinBC, assemble_system, rotate,
)
from .sparse import (
    A1Solver, ICFactor, IcBreakdownError, Multigrid, PcgBreakdownError, PcgConfig,
    PcgNonConvergenceError, PcgResult, SchurOperator, SparseSym, ic0, pcg,
)
from .solve import (
    ProblemSpec, SolutionField, SolveError, SolveInfo, orient, saddle_functional_Y, setup, solve,
    solve_system,
)
from .verify import (
    ConvergenceStudy, ErrorReport, constitutive_spectrum, convergence_study,
    galerkin_oracle, omega_sweep, pcg_iteration_sweep, rotation_sweep,
    schur_spectrum, v_norm_error,
)

__version__ = "0.1.0"
