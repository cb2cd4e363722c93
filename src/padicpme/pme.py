"""Porous-medium dynamics u_t + D^alpha phi(u) = 0 on a ball grid.

Each implicit Euler step solves the monotone system
tau A v + beta(v) = u with v = phi(u_next), through damped Newton with an
epsilon-continuation fallback and a scalarized Gauss-Seidel last resort.
A is held in level form (fractional.LevelOperator), so every Newton system
is solved exactly by the O(n) class-tree solve and no n x n array is built.
The update is taken as u_next = u - tau A v, so the discrete mass identity
holds to machine precision independently of the nonlinear residual.

A separable closed-form profile rho (T -+ t)^{-nu} |x|^{alpha nu} is kept
alongside as an exact benchmark; its defining constant is checked in high
precision rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import mpmath
import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, SolverError
from .fractional import LevelOperator, OperatorParams, ball_levels
# the benchmark's tracer wraps pme.ball_matrix; nothing here calls it
from .fractional import ball_matrix  # noqa: F401
from .functions import GridFunction
from .padic import GridSpec, check_prime, gamma_p

_DEFAULT_EPS_SCHEDULE = tuple(2.0 ** (-j) for j in range(21))


@dataclass(frozen=True)
class PhiSpec:
    """Monotone nonlinearity phi with inverse beta and their derivatives."""

    m: float
    phi: object
    beta: object
    phi_prime: object
    beta_prime: object

    @classmethod
    def power(cls, m: float) -> "PhiSpec":
        """phi(u) = sign(u) |u|^m, beta = phi^{-1} = sign(v) |v|^{1/m}."""
        m = float(m)
        if not m >= 1:
            raise DomainError(f"power nonlinearity needs m >= 1, got {m}")

        def phi(u):
            u = np.asarray(u, dtype=np.float64)
            return np.sign(u) * np.abs(u) ** m

        def beta(v):
            v = np.asarray(v, dtype=np.float64)
            return np.sign(v) * np.abs(v) ** (1.0 / m)

        def phi_prime(u):
            u = np.asarray(u, dtype=np.float64)
            with np.errstate(divide="ignore"):
                return m * np.abs(u) ** (m - 1.0)

        def beta_prime(v):
            v = np.asarray(v, dtype=np.float64)
            with np.errstate(divide="ignore"):
                return (1.0 / m) * np.abs(v) ** (1.0 / m - 1.0)

        return cls(m, phi, beta, phi_prime, beta_prime)


@dataclass
class PMEProblem:
    """Grid, operator and stepping parameters for one evolution run."""

    p: int
    alpha: float
    N: int
    M: int
    m: float
    tau: float
    t_end: float
    newton_tol: float = 1e-12
    max_iters: int = 80
    epsilon_schedule: tuple = _DEFAULT_EPS_SCHEDULE
    grid_cap: int = 2**20

    def __post_init__(self):
        check_prime(self.p)
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")
        if not self.m >= 1:
            raise DomainError("m must be >= 1")
        if not self.tau > 0:
            raise DomainError("tau must be positive")

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec(self.p, self.N, self.M, cap=self.grid_cap)

    @cached_property
    def operator(self) -> OperatorParams:
        return OperatorParams(self.p, self.alpha, self.grid)

    @cached_property
    def levels(self) -> LevelOperator:
        return ball_levels(self.operator)

    @cached_property
    def phi_spec(self) -> PhiSpec:
        return PhiSpec.power(self.m)

    @classmethod
    def from_config(cls, cfg: dict) -> "PMEProblem":
        required = ["p", "alpha", "N", "M", "m", "tau", "t_end"]
        missing = [k for k in required if k not in cfg]
        if missing:
            raise DomainError(f"config is missing keys: {missing}")
        kwargs = {k: cfg[k] for k in required}
        for k in ("newton_tol", "max_iters", "grid_cap"):
            if k in cfg:
                kwargs[k] = cfg[k]
        if "epsilon_schedule" in cfg:
            kwargs["epsilon_schedule"] = tuple(float(e) for e in cfg["epsilon_schedule"])
        return cls(**kwargs)

    def to_config(self) -> dict:
        return {
            "p": self.p, "alpha": self.alpha, "N": self.N, "M": self.M,
            "m": self.m, "tau": self.tau, "t_end": self.t_end,
            "newton_tol": self.newton_tol, "max_iters": self.max_iters,
            "epsilon_schedule": list(self.epsilon_schedule),
            "grid_cap": self.grid_cap,
        }


@dataclass
class StationaryResult:
    v: np.ndarray          # solution of eps v + s A v + beta(v) = f
    w: np.ndarray          # f - eps v - s A v, the consistent beta(v)
    w_free: np.ndarray     # f - s A v, the L1-contraction object
    iterations: int
    residual: float


_BP_CLIP = 1e16
_MIN_DAMPING = 2.0 ** (-45)


def _newton_solve(A: LevelOperator, phi: PhiSpec, f: np.ndarray, eps: float,
                  scale: float, tol: float, max_iters: int,
                  v0: np.ndarray | None = None) -> tuple:
    """Damped Newton for G(v) = eps v + scale A v + beta(v) - f = 0."""

    def G(v):
        return eps * v + scale * A.apply(v) + phi.beta(v) - f

    if v0 is None:
        v = A.solve(eps + 1.0, f, scale)  # beta'(v) ~ 1 linearization
    else:
        v = v0.copy()

    target = tol * max(1.0, float(np.max(np.abs(f))))
    g = G(v)
    res = float(np.max(np.abs(g)))
    for it in range(1, max_iters + 1):
        if res <= target:
            return v, it - 1, res
        bp = phi.beta_prime(v)
        bp = np.where(np.isfinite(bp), bp, _BP_CLIP)
        try:
            d = A.solve(eps + np.clip(bp, 0.0, _BP_CLIP), -g, scale)
        except SolverError as exc:
            raise SolverError(f"singular Newton system: {exc}", residual=res)
        theta = 1.0
        while theta >= _MIN_DAMPING:
            v_new = v + theta * d
            g_new = G(v_new)
            res_new = float(np.max(np.abs(g_new)))
            if res_new <= (1 - 0.25 * theta) * res or res_new <= target:
                break
            theta *= 0.5
        else:
            raise SolverError("Newton line search stalled", residual=res)
        v, g, res = v_new, g_new, res_new
    if res <= target:
        return v, max_iters, res
    raise SolverError(f"Newton did not converge in {max_iters} iterations",
                      residual=res)


_GS_MAX_SWEEPS = 600


def _gauss_seidel_solve(A: LevelOperator, phi: PhiSpec, f: np.ndarray,
                        eps: float, scale: float, tol: float,
                        v0: np.ndarray | None = None) -> tuple:
    """Scalar nonlinear Gauss-Seidel fallback; each component is solved by
    bracketed root finding, which cannot stall on the flat part of beta.

    Row i of A v off the diagonal is sum_L h_L (S_L[i mod p^L] - v_i) with
    S_L the class sums of v, which are refreshed once per sweep and kept
    current by an O(K) update after each component.
    """
    n, p = A.grid.dim, A.grid.p
    v = np.zeros(n) if v0 is None else v0.copy()
    h = [scale * hL for hL in A.h]
    moduli = [p**L for L in range(len(h))]
    diag = eps + scale * (A.c + sum(A.h))
    target = tol * max(1.0, float(np.max(np.abs(f))))
    for sweep in range(1, _GS_MAX_SWEEPS + 1):
        sums = [s.tolist() for s in A.class_sums(v)]
        vl = v.tolist()
        for i in range(n):
            vi = vl[i]
            r = f[i] - sum(hL * (S[i % m] - vi)
                           for hL, S, m in zip(h, sums, moduli))

            def comp(x):
                return diag * x + float(phi.beta(x)) - r

            R = max(1.0, abs(r), abs(r) ** phi.m)
            vl[i] = brentq(comp, -R, R, xtol=1e-15, rtol=8.9e-16)
            for S, m in zip(sums, moduli):
                S[i % m] += vl[i] - vi
        v = np.array(vl)
        res = float(np.max(np.abs(eps * v + scale * A.apply(v)
                                  + phi.beta(v) - f)))
        if res <= target:
            return v, sweep, res
    raise SolverError(f"Gauss-Seidel did not converge in {_GS_MAX_SWEEPS} sweeps",
                      residual=res)


def stationary_solve(problem: PMEProblem, f: np.ndarray, epsilon: float,
                     operator_scale: float = 1.0) -> StationaryResult:
    """Solve eps v + s A v + beta(v) = f; w = f - eps v - s A v.

    Cold Newton first; on failure, walk the epsilon schedule down to the
    requested epsilon with warm starts, then fall back to Gauss-Seidel.
    """
    A = problem.levels
    phi = problem.phi_spec
    f = np.asarray(f, dtype=np.float64)
    n = problem.grid.dim
    if f.shape != (n,):
        raise DomainError(f"forcing term must have shape ({n},)")

    attempts = 0
    try:
        v, its, res = _newton_solve(A, phi, f, epsilon, operator_scale,
                                    problem.newton_tol, problem.max_iters)
        attempts = its
    except SolverError:
        v = None
        ladder = sorted({e for e in problem.epsilon_schedule if e > epsilon},
                        reverse=True) + [epsilon]
        try:
            for e in ladder:
                v, its, res = _newton_solve(A, phi, f, e, operator_scale,
                                            problem.newton_tol,
                                            problem.max_iters, v0=v)
                attempts += its
        except SolverError:
            v, its, res = _gauss_seidel_solve(A, phi, f, epsilon,
                                              operator_scale,
                                              problem.newton_tol, v0=v)
            attempts += its

    av = operator_scale * A.apply(v)
    return StationaryResult(v=v, w=f - epsilon * v - av, w_free=f - av,
                            iterations=attempts, residual=res)


def implicit_step(problem: PMEProblem, u: np.ndarray) -> tuple:
    """One backward Euler step: returns (u_next, StationaryResult)."""
    result = stationary_solve(problem, u, epsilon=0.0,
                              operator_scale=problem.tau)
    return result.w, result


@dataclass
class EvolutionResult:
    grid: GridSpec
    times: list
    snapshots: list          # ndarray per time, snapshots[0] is u0
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> GridFunction:
        return GridFunction(self.grid, self.snapshots[-1].astype(np.complex128))


def evolve(problem: PMEProblem, u0) -> EvolutionResult:
    """March u_t + A phi(u) = 0 from u0 to t_end with step tau."""
    grid = problem.grid
    if isinstance(u0, GridFunction):
        if u0.grid != grid:
            raise DomainError("initial state lives on the wrong grid")
        u = np.real(u0.values).astype(np.float64)
    else:
        u = np.asarray(u0, dtype=np.float64).copy()
        if u.shape != (grid.dim,):
            raise DomainError(f"initial state must have shape ({grid.dim},)")

    steps_f = problem.t_end / problem.tau
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9:
        raise DomainError("t_end must be a positive integer multiple of tau")

    meas = float(grid.coset_measure)
    diags = {"newton_iterations": [], "residual": [], "mass": [],
             "l1": [], "linf": []}
    times = [0.0]
    snaps = [u.copy()]
    for n in range(1, steps + 1):
        u, res = implicit_step(problem, u)
        times.append(n * problem.tau)
        snaps.append(u.copy())
        diags["newton_iterations"].append(res.iterations)
        diags["residual"].append(res.residual)
        diags["mass"].append(float(np.sum(u) * meas))
        diags["l1"].append(float(np.sum(np.abs(u)) * meas))
        diags["linf"].append(float(np.max(np.abs(u))))
    return EvolutionResult(grid, times, snaps, diags)


@dataclass
class RefinementResult:
    taus: tuple
    gaps: tuple     # sup over coarse times of the L1 gap between ladders
    orders: tuple   # observed convergence orders log2(gap_r / gap_{r+1})


def refinement_ladder(problem: PMEProblem, u0: np.ndarray,
                      halvings: int = 3) -> RefinementResult:
    """Self-convergence study under time step halving."""
    runs = []
    taus = []
    for r in range(halvings + 1):
        cfg = problem.to_config()
        cfg["tau"] = problem.tau / 2**r
        sub = PMEProblem.from_config(cfg)
        runs.append(evolve(sub, u0))
        taus.append(sub.tau)

    meas = float(problem.grid.coset_measure)
    coarse_steps = int(round(problem.t_end / problem.tau))
    gaps = []
    for r in range(halvings):
        worst = 0.0
        for k in range(1, coarse_steps + 1):
            a = runs[r].snapshots[k * 2**r]
            b = runs[r + 1].snapshots[k * 2 ** (r + 1)]
            worst = max(worst, float(np.sum(np.abs(a - b)) * meas))
        gaps.append(worst)
    orders = tuple(math.log2(gaps[r] / gaps[r + 1]) for r in range(len(gaps) - 1)
                   if gaps[r + 1] > 0)
    return RefinementResult(tuple(taus), tuple(gaps), orders)


# ---------------------------------------------------------------------------
# separable closed-form profile
# ---------------------------------------------------------------------------

def explicit_rho(p: int, alpha: float, m: float) -> float:
    """Amplitude rho < 0 with nu rho + |rho|^m C = 0, where
    C = Gamma_p(alpha m/(m-1) + 1) / Gamma_p(alpha/(m-1) + 1) and
    nu = 1/(m-1):

    rho = -[Gamma_p(1 + alpha/(m-1)) / ((m-1) Gamma_p(1 + alpha m/(m-1)))]^{1/(m-1)}.
    """
    check_prime(p)
    if not m > 1:
        raise DomainError("the separable profile needs m > 1")
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    nu = 1.0 / (m - 1.0)
    num = gamma_p(p, 1.0 + alpha * nu)
    den = gamma_p(p, 1.0 + alpha * (nu + 1.0))
    ratio = num / ((m - 1.0) * den)
    if not ratio > 0:
        raise ArithmeticError(f"gamma ratio {ratio} is not positive")
    return -(ratio ** nu)


@dataclass(frozen=True)
class ExplicitSolution:
    """u(t, x) = amp (T -+ t)^{-nu} |x|^{alpha nu}.

    companion=False: amp = rho < 0 with blow-up at t -> T from below, a
    solution of u_t + D^alpha |u|^m = 0 on the modulus branch of the
    nonlinearity (not reachable by the monotone solver).
    companion=True: amp = |rho| > 0 decaying on (T + t), which solves the
    monotone equation u_t + D^alpha(u^m) = 0 and is solver-comparable.
    """

    p: int
    alpha: float
    m: float
    t0: float
    rho: float
    companion: bool = False

    @property
    def nu(self) -> float:
        return 1.0 / (self.m - 1.0)

    @property
    def amplitude(self) -> float:
        return abs(self.rho) if self.companion else self.rho

    def time_factor(self, t: float) -> float:
        base = self.t0 + t if self.companion else self.t0 - t
        if not base > 0:
            raise DomainError(f"profile undefined at t={t} (T={self.t0})")
        return base ** (-self.nu)

    def value(self, t: float, shell: int | None) -> float:
        if shell is None:
            return 0.0  # |x|^{alpha nu} vanishes at the origin
        return (self.amplitude * self.time_factor(t)
                * float(self.p) ** (shell * self.alpha * self.nu))

    def to_grid(self, grid: GridSpec, t: float) -> np.ndarray:
        vals = np.empty(grid.dim, dtype=np.float64)
        for i in range(grid.dim):
            vals[i] = self.value(t, grid.shell_exponent_of_index(i))
        return vals


def explicit_solution(p: int, alpha: float, m: float, t0: float,
                      companion: bool = False,
                      rho_override: float | None = None) -> ExplicitSolution:
    rho = explicit_rho(p, alpha, m) if rho_override is None else float(rho_override)
    if not t0 > 0:
        raise DomainError("t0 must be positive")
    return ExplicitSolution(p, alpha, m, t0, rho, companion)


def residual_check_explicit(p: int, alpha: float, m: float, t0: float, t: float,
                            k_lo: int = -10, k_hi: int = 10,
                            companion: bool = False,
                            rho_override: float | None = None) -> float:
    """Max pointwise PDE residual of the separable profile on shells
    [k_lo, k_hi], evaluated in 50-digit arithmetic.

    Both branches reduce to the same core defect |nu rho + |rho|^m C| times
    (T -+ t)^{-nu-1} p^{k alpha nu}; in double precision the large-shell
    scale factor would contaminate the cancellation, hence mpmath here.
    """
    check_prime(p)
    if not m > 1:
        raise DomainError("the separable profile needs m > 1")
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        al = mpmath.mpf(alpha)
        em = mpmath.mpf(m)
        nu = 1 / (em - 1)

        def gp(z):
            return (1 - P ** (z - 1)) / (1 - P ** (-z))

        C = gp(al * em / (em - 1) + 1) / gp(al / (em - 1) + 1)
        if rho_override is None:
            ratio = gp(1 + al * nu) / ((em - 1) * gp(1 + al * (nu + 1)))
            rho = -(ratio ** nu)
        else:
            rho = mpmath.mpf(rho_override)
        core = abs(nu * rho + abs(rho) ** em * C)

        base = mpmath.mpf(t0) + t if companion else mpmath.mpf(t0) - t
        if base <= 0:
            raise DomainError("time outside the profile's domain")
        tf = base ** (-nu - 1)
        worst = mpmath.mpf(0)
        for k in range(k_lo, k_hi + 1):
            worst = max(worst, core * tf * P ** (k * al * nu))
        return float(worst)
