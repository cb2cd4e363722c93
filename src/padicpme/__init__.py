"""Exact p-adic calculus, the Vladimirov fractional operator, its heat
semigroup and resolvent, and an implicit solver for the fractional
porous-medium equation, on Q_p and on finite balls."""

from .errors import (DomainError, PrecisionError, ResourceError, SolverError,
                     SupportError)
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
    Norms,
    RadialFunction,
    TestFunction,
    convolve_indicators,
    from_grid,
    grid_convolve,
    grid_fourier,
    grid_fourier_inverse,
    modulus_of_continuity,
    norms,
    read_grid_csv,
    read_radial_csv,
    to_grid,
    write_grid_csv,
    write_radial_csv,
)
from .heat import (
    KernelParams,
    ball_c_coefficient,
    ball_kernel_ZN,
    ball_semigroup_expm,
    ball_semigroup_matrix,
    green_kernel_value,
    green_profile,
    green_zero_value,
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
    PAdicExpansion,
    gamma_p,
    haar_measure,
    rational_abs,
    rational_fractional_part,
    rational_valuation,
    unit_ball,
)
from .pme import (
    EvolutionResult,
    ExplicitSolution,
    PhiSpec,
    PMEProblem,
    StationaryResult,
    evolve,
    explicit_rho,
    explicit_solution,
    implicit_step,
    refinement_ladder,
    residual_check_explicit,
    stationary_solve,
)
from .verification import SUITES, CheckResult, run_all, run_suite

__version__ = "0.1.0"
