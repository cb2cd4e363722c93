"""Exact p-adic calculus, the Vladimirov fractional operator, its heat
semigroup and resolvent, and an implicit solver for the fractional
porous-medium equation, on Q_p and on finite balls."""

from .errors import DomainError, PrecisionError, ResourceError, SolverError
from .fractional import (
    OperatorParams,
    apply_radial_power,
    apply_testfunction_at,
    apply_to_indicator,
    ball_eigenvalue_floor,
    ball_matrix,
    exterior_constant,
    hypersingular_quadrature,
    restrict_to_ball,
)
from .functions import (
    GridFunction,
    RadialFunction,
    TestFunction,
    read_grid_csv,
    to_grid,
    write_grid_csv,
    write_grid_csvs,
    write_radial_csv,
)
from .heat import (
    KernelParams,
    ball_c_coefficient,
    ball_kernel_ZN,
    ball_semigroup_expm,
    ball_semigroup_matrix,
    green_kernel,
    kernel_Z,
    kernel_mass_estimate,
    resolvent_apply,
    semigroup_matrix,
    semigroup_on_indicator,
    smoothness_modulus,
)
from .padic import (
    Ball,
    GridSpec,
    gamma_p,
    parse_point,
    rational_abs,
    rational_valuation,
)
from .pme import (
    EvolutionResult,
    ExplicitSolution,
    PMEProblem,
    StationaryResult,
    evolve,
    explicit_rho,
    explicit_solution,
    implicit_step,
    refinement_ladder,
    stationary_solve,
)
from .verification import SUITES, CheckResult, run_all, run_suite

__version__ = "0.1.0"
