"""Named verification suites: kernel, operator, semigroup, solver, explicit.

Each check compares an implementation path against an independent oracle
(closed form, alternate series, quadrature, dense linear algebra, or a
structural inequality with a proven constant) and returns a CheckResult.
The CLI `verify` command and the acceptance tests are thin drivers over
run_suite / run_all.

Checks whose problems are independent and share one grid solve them as
the columns of one batch (see fractional.LevelOperator and
pme.stationary_solve): stationary_inequalities, stationary_contraction,
step_contraction_order, linear_reduction and epsilon_limit in one Newton
call each, and the level applies and solves of spectral_vs_matrix,
resolvent_inversion and resolvent_positivity.  A column is bit-identical
to its solo solve, and each per-problem norm is taken over a contiguous
copy of its column (_rows), so every reported number is the one a loop of
solo solves gives.  evolve_invariants and refinement_order step in
sequence and stay one solve per step.  In the same way l1_contraction
applies its 25 samples per operator as the columns of one apply, and the
kernel checks evaluate all shells of a parameter set in one kernel call,
whose values are those of one call per shell (see heat._gap_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import heat, pme
from .fractional import (
    OperatorParams,
    apply_radial_power,
    apply_testfunction_at,
    apply_to_indicator,
    ball_eigenvalue_floor,
    ball_levels,
    ball_matrix,
    exterior_constant,
    hypersingular_quadrature,
    restrict_to_ball,
)
from .functions import RadialFunction, TestFunction, to_grid
from .heat import KernelParams
from .padic import Ball, GridSpec, gamma_p


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _rows(a: np.ndarray) -> np.ndarray:
    """The columns of a as contiguous rows.  numpy sums a contiguous run
    pairwise but a strided axis one row after another, so a norm of a
    column is taken as a row of this copy to round as it does alone."""
    return np.ascontiguousarray(a.T)


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------

def check_kernel_dual_series() -> CheckResult:
    """Shell series vs alternating series at 20 (t, shell) points."""
    p, a = 2, 2.0
    worst = 0.0
    for t in (0.1, 0.25, 0.5, 1.0):
        kp = KernelParams(p, a, t)
        for j, v1 in enumerate(heat.kernel_Z_shell_series(kp, range(5))):
            v2 = heat.kernel_Z_alternating(kp, j)
            worst = max(worst, abs(v1.value - v2.value))
    return _check("kernel_dual_series",
                  worst <= 1e-9,
                  f"max |shell - alternating| = {worst:.3e} (tol 1e-9, 20 points)")


def check_kernel_mass() -> CheckResult:
    worst = 0.0
    for (p, a, t) in ((2, 2.0, 1.0), (2, 2.0, 0.1), (3, 1.5, 1.0)):
        mass, bound = heat.kernel_mass_estimate(KernelParams(p, a, t))
        err = abs(mass - 1.0)
        if err > bound + 1e-8:
            return _check("kernel_mass", False,
                          f"mass defect {err:.3e} exceeds certificate+1e-8 at "
                          f"(p={p}, alpha={a}, t={t})")
        worst = max(worst, err)
    return _check("kernel_mass", worst <= 1e-8,
                  f"max |mass - 1| = {worst:.3e} (tol 1e-8)")


def check_kernel_positivity() -> CheckResult:
    low = math.inf
    for (p, a) in ((2, 2.0), (3, 1.5)):
        for t in (0.1, 1.0, 10.0):
            kp = KernelParams(p, a, t)
            for ev in heat.kernel_Z(kp, [None, *range(-10, 11)]):
                low = min(low, ev.value)
    return _check("kernel_positivity", low >= -1e-15,
                  f"min sampled kernel value = {low:.3e}")


def check_kernel_envelope() -> CheckResult:
    """Two-sided stability of Z(t,x) against t (t^{1/a} + |x|)^{-a-1}."""
    p, a = 2, 2.0
    ratios = []
    for t in np.logspace(-1, 1, 10):
        kp = KernelParams(p, a, float(t))
        for j, ev in zip(range(-5, 5), heat.kernel_Z(kp, range(-5, 5))):
            env = t * (t ** (1 / a) + float(p) ** j) ** (-a - 1)
            ratios.append(ev.value / env)
    ratios = np.array(ratios)
    c_lo, c_hi = float(ratios.min()), float(ratios.max())
    ok = c_lo > 0 and c_hi / c_lo <= 1e3
    return _check("kernel_envelope", ok,
                  f"fitted C = {c_hi:.4f}, ratio spread {c_hi / c_lo:.2f} "
                  "(10x10 lattice, require positive and spread <= 1e3)")


def check_linear_split_certificate() -> CheckResult:
    """|c_{-k}(t) - p^{-k a}(p^a - 1) t| <= (p^{2a}/2) p^{-2k a} t^2."""
    worst_excess = -math.inf
    ks = np.arange(1, 21)
    for (p, a) in ((2, 2.0), (3, 1.5)):
        splits = [heat.linear_split_bound(p, a, k) for k in ks.tolist()]
        for t in np.linspace(0.125, 2.0, 16):
            cs = heat.coeff_ck(KernelParams(p, a, float(t)), -ks)
            for (slope, quadc), c in zip(splits, cs):
                excess = abs(c - slope * t) - quadc * t * t
                worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-16
    return _check("linear_split_certificate", ok,
                  f"max (|c - slope t| - C t^2) = {worst_excess:.3e} "
                  "(C = p^{2a}/2, k in [1,20], t in (0,2])")


def check_green_modulus() -> CheckResult:
    """Phi decays monotonically to 0 along |h| = p^{-r}."""
    p, a, mu = 2, 2.0, 1.0
    rs = list(range(0, 13, 2))
    vals = [heat.smoothness_modulus(p, a, mu, r) for r in rs]
    monotone = all(vals[i + 1] <= vals[i] * (1 + 1e-12) for i in range(len(vals) - 1))
    decay = vals[-1] <= 1e-3 * vals[0]
    return _check("green_modulus", monotone and vals[0] > 0 and decay,
                  f"Phi(1) = {vals[0]:.3e} down to Phi(2^-12) = {vals[-1]:.3e}, "
                  f"monotone={monotone}")


def check_green_tail() -> CheckResult:
    """Far-field exponent -a-1 and amplitude -Gamma_p(a+1)/mu^2."""
    p, a, mu = 2, 2.0, 1.0
    js = list(range(6, 15))
    values = [ev.value for ev in heat.green_kernel(p, a, mu, js)]
    logs = [math.log(v) for v in values]
    xs = [j * math.log(p) for j in js]
    slope = np.polyfit(xs, logs, 1)[0]
    amp = values[js.index(14)] / (
        heat.green_tail_constant(p, a, mu) * float(p) ** (-14 * (a + 1)))
    ok = abs(slope - (-(a + 1))) < 0.05 and abs(amp - 1) < 0.01
    return _check("green_tail", ok,
                  f"log-log slope {slope:.4f} vs {-(a + 1)}, "
                  f"amplitude ratio {amp:.6f}")


# ---------------------------------------------------------------------------
# operator suite
# ---------------------------------------------------------------------------

def check_indicator_closed_form() -> CheckResult:
    params = OperatorParams(2, 2.0)
    prof = apply_to_indicator(params, Ball(2, 0, 0))
    expected = {
        None: Fraction(4, 7), 0: Fraction(4, 7),
        1: Fraction(-3, 7), 2: Fraction(-3, 56),
    }
    worst = 0.0
    for shell, frac in expected.items():
        got = prof.value_at_zero if shell is None else prof.value_at_shell(shell)
        worst = max(worst, abs(got - float(frac)))
    return _check("indicator_closed_form", worst <= 1e-12,
                  f"max deviation from frozen fractions = {worst:.3e} "
                  "(4/7, -3/7, -3/56)")


def check_indicator_vs_quadrature() -> CheckResult:
    params = OperatorParams(2, 2.0)
    f = TestFunction.indicator(Ball(2, 0, 0))
    worst = 0.0
    worst_tail = 0.0
    for x in (Fraction(0), Fraction(1, 2), Fraction(1, 4)):
        val, tail = hypersingular_quadrature(params, f, x, k_hi=15)
        closed = apply_testfunction_at(params, f, x)
        if tail > 1e-8:
            return _check("indicator_vs_quadrature", False,
                          f"certified tail {tail:.3e} exceeds 1e-8")
        worst = max(worst, abs(val - closed))
        worst_tail = max(worst_tail, tail)
        if abs(val - closed) > tail + 1e-11:
            return _check("indicator_vs_quadrature", False,
                          f"|quad - closed| = {abs(val - closed):.3e} "
                          f"outside certificate {tail:.3e} at x={x}")
    return _check("indicator_vs_quadrature", True,
                  f"max |quad - closed| = {worst:.3e} within certified "
                  f"tail <= {worst_tail:.3e} <= 1e-8")


def check_indicator_mass() -> CheckResult:
    worst = 0.0
    for (p, a, l) in ((2, 2.0, 0), (2, 2.0, 2), (3, 1.5, 0), (5, 0.7, -1)):
        image = apply_to_indicator(OperatorParams(p, a), Ball(p, 0, l))
        worst = max(worst, abs(image.integral()))
    return _check("indicator_mass_cancellation", worst <= 1e-12,
                  f"max |total mass of image| = {worst:.3e} (tol 1e-12)")


def check_composite_quadrature() -> CheckResult:
    p = 2
    params = OperatorParams(p, 2.0)
    f = TestFunction(p, (
        (1.0 + 0j, Ball(p, 0, 0)),
        (-2.0 + 0j, Ball(p, 0, -1)),
        (0.5 + 0j, Ball(p, Fraction(1, 2), -1)),
    ))
    worst = 0.0
    for x in (Fraction(0), Fraction(1, 2)):
        val, tail = hypersingular_quadrature(params, f, x, k_hi=14)
        closed = apply_testfunction_at(params, f, x)
        err = abs(val - closed)
        if err > tail + 1e-9:
            return _check("composite_vs_quadrature", False,
                          f"error {err:.3e} outside certificate {tail:.3e} at x={x}")
        worst = max(worst, err)
    return _check("composite_vs_quadrature", True,
                  f"max |quad - superposition| = {worst:.3e} within certificates")


def check_eigenvalue_lambda() -> CheckResult:
    worst_eig = 0.0
    worst_vec = 0.0
    for p in (2, 3):
        for a in (1.5, 2.0):
            for N in (0, 1):
                for M in (2, 3):
                    op = OperatorParams(p, a, GridSpec(p, N, M))
                    B = ball_matrix(op)
                    lam = ball_eigenvalue_floor(p, a, N)
                    eigs = np.linalg.eigvalsh(B.matrix)
                    worst_eig = max(worst_eig, abs(float(eigs[0]) - lam))
                    ones = np.ones(B.grid.dim)
                    worst_vec = max(worst_vec, float(
                        np.max(np.abs(B.matrix @ ones - lam * ones))))
    ok = worst_eig <= 1e-9 and worst_vec <= 1e-9
    return _check("eigenvalue_lambda", ok,
                  f"max |min eig - lambda| = {worst_eig:.3e}, "
                  f"max |B 1 - lambda 1| = {worst_vec:.3e} over 16 grids")


def check_spectral_vs_matrix() -> CheckResult:
    rng = np.random.default_rng(2718)
    worst = 0.0
    for (p, a, N, M) in ((2, 2.0, 1, 2), (3, 1.5, 0, 2)):
        op = OperatorParams(p, a, GridSpec(p, N, M))
        levels, B = ball_levels(op), ball_matrix(op).matrix
        us = [rng.standard_normal(op.grid.dim)
              + 1j * rng.standard_normal(op.grid.dim) for _ in range(10)]
        for lu, u in zip(_rows(levels @ np.column_stack(us)), us):
            worst = max(worst, float(np.max(np.abs(lu - B @ u))))
    return _check("spectral_vs_matrix", worst <= 1e-9,
                  f"max |level path - dense path| = {worst:.3e} (tol 1e-9)")


def check_radial_power() -> CheckResult:
    c, expo = apply_radial_power(OperatorParams(2, 2.0), 4.0)
    target = Fraction(480, 31) * Fraction(7, 24)  # Gamma_2(5)/Gamma_2(3) = 140/31
    err = abs(c - float(target))
    return _check("radial_power", err <= 1e-12 and expo == 2.0,
                  f"|C - 140/31| = {err:.3e}, exponent {expo}")


def check_boundary_identity() -> CheckResult:
    p, N, M = 2, 0, 2
    params = OperatorParams(p, 2.0, GridSpec(p, N, M))
    B = ball_matrix(params)
    ball_N = Ball(p, 0, N)
    cases = {
        "wide_1": TestFunction.indicator(Ball(p, 0, 1)),
        "wide_2": TestFunction.indicator(Ball(p, 0, 2)),
        "shifted_half": TestFunction.indicator(Ball(p, Fraction(1, 2), 0)),
        "shifted_quarter": TestFunction.indicator(Ball(p, Fraction(1, 4), 1)),
    }
    worst = 0.0
    for label, psi in cases.items():
        psi_N = restrict_to_ball(psi, ball_N)
        inner = B.matrix @ to_grid(psi_N, params.grid)
        outer = exterior_constant(params, psi - psi_N, N)
        for i in range(params.grid.dim):
            lhs = apply_testfunction_at(params, psi, params.grid.representative(i))
            err = abs(lhs - (inner[i] + outer))
            worst = max(worst, err)
            if err > 1e-12:
                return _check("boundary_identity", False,
                              f"{label}: mismatch {err:.3e} at grid point {i}")
    return _check("boundary_identity", True,
                  f"max |full-space op - (ball op + exterior constant)| = {worst:.3e}")


# ---------------------------------------------------------------------------
# semigroup suite
# ---------------------------------------------------------------------------

def check_semigroup_indicator_integrals() -> CheckResult:
    """Indicator expansion values vs direct integrals of Z against 1_{B_0}."""
    p, a, t = 2, 2.0, 0.7
    kp = KernelParams(p, a, t)
    exp = heat.semigroup_on_indicator(kp, Ball(p, 0, 0))
    worst = 0.0
    # at the center: integral of Z over B_0
    direct0, b0 = heat.ball_integral_of_Z(kp, 0)
    worst = max(worst, abs(exp.function.value_at(Fraction(0)) - direct0))
    # outside: the integral over B_0 sees the constant shell value of Z
    for j, zj in zip((1, 2, 3), heat.kernel_Z(kp, (1, 2, 3))):
        x = Fraction(1, p**j)  # |x|_p = p^j > 1
        got = exp.function.value_at(x)
        worst = max(worst, abs(got - zj.value))
    tol = exp.pointwise_bound + b0 + 1e-12
    return _check("semigroup_indicator_integrals", worst <= tol,
                  f"max |expansion - direct integral| = {worst:.3e} "
                  f"(certificates {tol:.1e})")


def check_chapman_kolmogorov() -> CheckResult:
    p, a = 2, 2.0
    t1, t2 = 0.4, 0.6
    ball = Ball(p, 0, 0)
    step1 = heat.semigroup_on_indicator(KernelParams(p, a, t1), ball)
    step2 = heat.semigroup_apply_testfunction(KernelParams(p, a, t2), step1.function)
    direct = heat.semigroup_on_indicator(KernelParams(p, a, t1 + t2), ball)
    grid = GridSpec(p, 2, 2)
    worst = 0.0
    points = [grid.representative(i) for i in range(grid.dim)]
    points += [Fraction(p**3), Fraction(1, p**4)]
    for x in points:
        worst = max(worst, abs(step2.function.value_at(x)
                               - direct.function.value_at(x)))
    # the S(t2) pass is an L-infinity contraction of step1's truncation error
    budget = step1.pointwise_bound + step2.pointwise_bound + direct.pointwise_bound
    ok = worst <= min(1e-8, budget + 1e-10)
    return _check("chapman_kolmogorov", ok,
                  f"max |S(t2)S(t1) - S(t1+t2)| = {worst:.3e} on grid+tails "
                  f"(tol 1e-8, certificates {budget:.1e})")


def check_c0_continuity() -> CheckResult:
    """|S(t)1_B - 1_B|_1 vs the closed form 2(1 - int_B Z(t, .)).

    S(t)1_{B_0} is constant on B_0 with value int_{B_0} Z, so by mass
    conservation the L1 distance is twice the exterior mass.  The left side
    comes from the coefficient expansion, the right side from the direct
    shell series: two independent evaluation routes.
    """
    p, a = 2, 2.0
    ball = Ball(p, 0, 0)
    prev = None
    worst = 0.0
    vals = []
    for j in range(0, 21):
        t = 2.0 ** (-j)
        kp = KernelParams(p, a, t)
        prof, bound = heat.semigroup_indicator_profile(kp, ball)
        shells = dict(prof.shell_values)
        shells[0] = shells[0] - 1.0  # subtract the initial indicator
        diff = RadialFunction(p, tuple(shells.items()),
                              value_at_zero=prof.value_at_zero - 1.0,
                              head_constant=True)
        d = diff.l1_norm()
        inside, ib = heat.ball_integral_of_Z(kp, 0)
        formula = 2.0 * (1.0 - inside)
        worst = max(worst, abs(d - formula))
        if prev is not None and d > prev * (1 + 1e-12):
            return _check("c0_continuity", False,
                          f"L1 distance not decreasing at t={t}")
        prev = d
        vals.append(d)
    ok = worst <= 1e-9 and vals[-1] < 1e-5
    return _check("c0_continuity", ok,
                  f"|dist - closed form| <= {worst:.3e} (tol 1e-9), "
                  f"dist(2^-20) = {vals[-1]:.3e} -> 0")


def check_l1_contraction() -> CheckResult:
    rng = np.random.default_rng(5551)
    worst = -math.inf
    for (p, a, N, M) in ((2, 2.0, 1, 3), (3, 1.5, 0, 2)):
        op = OperatorParams(p, a, GridSpec(p, N, M))
        for t in (0.1, 1.0):
            K = heat.semigroup_matrix(op, t)
            T = heat.ball_semigroup_matrix(op, t)
            meas = float(op.grid.coset_measure)
            dim = op.grid.dim
            us = np.column_stack([rng.standard_normal(dim)
                                  + 1j * rng.standard_normal(dim)
                                  for _ in range(25)])
            n0 = np.sum(np.abs(_rows(us)), 1) * meas
            for S in (K, T):
                growth = np.sum(np.abs(_rows(S @ us)), 1) * meas - n0
                worst = max(worst, float(growth.max()))
    return _check("l1_contraction", worst <= 1e-12,
                  f"max (|S(t)u|_1 - |u|_1) = {worst:.3e} over 100 random u")


def check_ball_kernel_vs_expm() -> CheckResult:
    """Level semigroup and the Z_N profile vs expm of the dense generator:
    off the diagonal, entry (i, 0) is p^{-M} Z_N(t, |x_i|)."""
    worst = 0.0
    for (p, a, N, M) in ((2, 2.0, 1, 2), (3, 1.5, 0, 2)):
        op = OperatorParams(p, a, GridSpec(p, N, M))
        for t in (0.3, 1.0):
            T1 = heat.ball_semigroup_matrix(op, t) @ np.eye(op.grid.dim)
            T2 = heat.ball_semigroup_expm(op, t)
            prof = heat.ball_kernel_ZN(KernelParams(p, a, t), N, 1 - M)[0]
            col = op.grid.radial(
                lambda k: 0.0 if k is None else prof.value_at_shell(k).real)
            worst = max(worst, float(np.max(np.abs(T1 - T2))),
                        float(np.max(np.abs(col[1:] * float(p) ** -M
                                            - T2[1:, 0]))))
    return _check("ball_kernel_vs_expm", worst <= 1e-7,
                  f"max |level and Z_N paths - expm path| = {worst:.3e} "
                  "(tol 1e-7)")


def check_ball_kernel_mass() -> CheckResult:
    worst = 0.0
    for (p, a, N, t) in ((2, 2.0, 1, 0.7), (3, 1.5, 0, 1.2)):
        _, _, mass, bound = heat.ball_kernel_ZN(KernelParams(p, a, t), N, -25)
        err = abs(mass - 1.0)
        if err > bound + 1e-8:
            return _check("ball_kernel_mass", False,
                          f"mass defect {err:.3e} beyond certificate at N={N}")
        worst = max(worst, err)
    return _check("ball_kernel_mass", worst <= 1e-8,
                  f"max |mass over B_N - 1| = {worst:.3e} (tol 1e-8)")


def check_c_coefficient_short_time() -> CheckResult:
    p, a, N = 2, 2.0, 1
    ratios = []
    for j in range(4, 17):
        t = 2.0 ** (-j)
        c, _ = heat.ball_c_coefficient(KernelParams(p, a, t), N)
        ratios.append(abs(c) / t**2)
    spread = max(ratios) / max(min(ratios), 1e-300)
    ok = spread <= 4.0 and ratios[-1] > 0
    return _check("c_coefficient_short_time", ok,
                  f"|c(t)|/t^2 in [{min(ratios):.4e}, {max(ratios):.4e}] as t->0 "
                  "(bounded ratio certifies c(0)=c'(0)=0)")


def check_resolvent_inversion() -> CheckResult:
    rng = np.random.default_rng(97)
    op = OperatorParams(2, 2.0, GridSpec(2, 1, 3))
    levels, B = ball_levels(op), ball_matrix(op).matrix
    worst = 0.0
    for mu in (0.5, 2.0):
        us = [rng.standard_normal(op.grid.dim) for _ in range(10)]
        for r, u in zip(_rows(levels.solve(mu, np.column_stack(us), 1.0)), us):
            back = mu * r + B @ r
            scale = max(1.0, float(np.max(np.abs(u))))
            worst = max(worst, float(np.max(np.abs(back - u))) / scale)
    return _check("resolvent_inversion", worst <= 1e-12,
                  f"max |(mu+A) R_mu u - u| = {worst:.3e} (tol 1e-12)")


def check_resolvent_vs_laplace() -> CheckResult:
    """R_mu u = int_0^inf e^{-mu t} S(t) u dt against the shell-sum path.

    The Laplace integral is a 100-node Gauss-Laguerre rule in x = mu t,
    (1/mu) sum_i w_i S(x_i / mu) u, over the full-space semigroup; with 40
    nodes it would miss by ~7e-6, with 100 it misses by ~1e-11.
    """
    p, a, mu = 2, 2.0, 1.0
    op = OperatorParams(p, a, GridSpec(p, 0, 2))
    rng = np.random.default_rng(31)
    uv = rng.uniform(0.2, 1.0, op.grid.dim)
    direct = heat.resolvent_apply(op, mu, uv)

    x, w = np.polynomial.laguerre.laggauss(100)
    laplace = sum(wi * (heat.semigroup_matrix(op, xi / mu) @ uv)
                  for xi, wi in zip(x, w)) / mu
    worst = float(np.max(np.abs(laplace - direct)))
    return _check("resolvent_vs_laplace", worst <= 1e-5,
                  f"max |shell-sum path - Laplace quadrature| = {worst:.3e} "
                  "(tol 1e-5)")


def check_resolvent_positivity() -> CheckResult:
    """Positivity and the mu-contraction |mu R_mu u|_1 <= |u|_1.

    Note mu int R_mu u equals int u only over all of Q_p; on the grid window
    part of the mass sits outside B_N, so only the one-sided bound holds.
    """
    rng = np.random.default_rng(13)
    op = OperatorParams(2, 2.0, GridSpec(2, 1, 3))
    meas = float(op.grid.coset_measure)
    min_val = math.inf
    worst_gain = -math.inf
    for mu in (0.3, 1.0, 4.0):
        uv = np.column_stack([rng.uniform(0.0, 1.0, op.grid.dim)
                              for _ in range(20)])
        r = heat.resolvent_apply(op, mu, uv)
        min_val = min(min_val, float(r.min()))
        gains = (mu * np.sum(np.abs(_rows(r)), 1) * meas
                 - np.sum(_rows(uv), 1) * meas)
        worst_gain = max(worst_gain, float(gains.max()))
    ok = min_val >= -1e-14 and worst_gain <= 1e-12
    return _check("resolvent_positivity", ok,
                  f"min value {min_val:.2e}, "
                  f"max (|mu R u|_1 - |u|_1) = {worst_gain:.2e} (<= 0 expected)")


# ---------------------------------------------------------------------------
# solver suite
# ---------------------------------------------------------------------------

def _solver_problem(m: float = 2.0, tau: float = 0.1) -> pme.PMEProblem:
    return pme.PMEProblem(p=2, alpha=2.0, N=1, M=2, m=m, tau=tau, t_end=tau)


def check_stationary_inequalities() -> CheckResult:
    """L1 bound on the free defect and sup bound on w, for 100 random f."""
    rng = np.random.default_rng(404)
    prob = _solver_problem()
    meas = float(prob.grid.coset_measure)
    f = np.column_stack([rng.uniform(-1.0, 1.0, prob.grid.dim) * (1.0 + i % 3)
                         for i in range(100)])
    eps = np.array([(0.0, 0.01, 0.3)[i % 3] for i in range(100)])
    res = pme.stationary_solve(prob, f, epsilon=eps)
    f, w, w_free = _rows(f), _rows(res.w), _rows(res.w_free)
    l1 = np.sum(np.abs(w_free), 1) - np.sum(np.abs(f), 1)
    worst_l1 = float(np.max(l1 * meas))
    worst_sup = float(np.max(np.max(np.abs(w), 1) - np.max(np.abs(f), 1)))
    ok = worst_l1 <= 1e-12 and worst_sup <= 1e-12
    return _check("stationary_inequalities", ok,
                  f"max L1 excess = {worst_l1:.3e}, max sup excess = {worst_sup:.3e} "
                  "(tol 1e-12, 100 random f)")


def check_stationary_contraction() -> CheckResult:
    rng = np.random.default_rng(405)
    prob = _solver_problem()
    meas = float(prob.grid.coset_measure)
    fs, gs = [], []
    for _ in range(50):
        fs.append(rng.uniform(-1.0, 1.0, prob.grid.dim))
        gs.append(fs[-1] + rng.uniform(-0.5, 0.5, prob.grid.dim))
    eps = np.array([(0.0, 0.05)[i % 2] for i in range(50)] * 2)
    res = pme.stationary_solve(prob, np.column_stack(fs + gs), epsilon=eps)
    gap = _rows(res.w_free[:, :50] - res.w_free[:, 50:])
    data_gap = np.array(fs) - np.array(gs)
    expansion = np.sum(np.abs(gap), 1) - np.sum(np.abs(data_gap), 1)
    worst = float(np.max(expansion * meas))
    return _check("stationary_contraction", worst <= 1e-12,
                  f"max L1 expansion = {worst:.3e} (tol 1e-12, 50 pairs)")


def check_step_contraction_order() -> CheckResult:
    rng = np.random.default_rng(406)
    prob = _solver_problem()
    meas = float(prob.grid.coset_measure)
    us, vs = [], []
    for _ in range(50):
        us.append(rng.uniform(-1.0, 1.0, prob.grid.dim))
        vs.append(us[-1] + np.abs(rng.uniform(0.0, 1.0, prob.grid.dim)))
    nxt, _ = pme.implicit_step(prob, np.column_stack(us + vs))
    gap = nxt[:, :50] - nxt[:, 50:]
    expansion = (np.sum(np.abs(_rows(gap)), 1)
                 - np.sum(np.abs(np.array(us) - np.array(vs)), 1))
    worst_c = float(np.max(expansion * meas))
    worst_o = float(np.max(gap))  # expect un <= vn
    ok = worst_c <= 1e-12 and worst_o <= 1e-12
    return _check("step_contraction_order", ok,
                  f"max L1 expansion = {worst_c:.3e}, "
                  f"max order violation = {worst_o:.3e} (tol 1e-12)")


def check_linear_reduction() -> CheckResult:
    rng = np.random.default_rng(407)
    prob = _solver_problem(m=1.0, tau=0.2)
    A = ball_matrix(prob.operator).matrix
    eye = np.eye(prob.grid.dim)
    worst = 0.0
    us = [rng.uniform(-1.0, 1.0, prob.grid.dim) for _ in range(20)]
    nxt, _ = pme.implicit_step(prob, np.column_stack(us))
    for un, u in zip(_rows(nxt), us):
        lin = np.linalg.solve(eye + prob.tau * A, u)
        worst = max(worst, float(np.max(np.abs(un - lin))))
    return _check("linear_reduction", worst <= 1e-10,
                  f"max |nonlinear path - (I + tau A)^-1| = {worst:.3e} (tol 1e-10)")


def check_evolve_invariants() -> CheckResult:
    rng = np.random.default_rng(408)
    prob = pme.PMEProblem(p=2, alpha=2.0, N=1, M=2, m=2.0, tau=0.05, t_end=0.5)
    u0 = rng.uniform(0.0, 1.0, prob.grid.dim)
    out = pme.evolve(prob, u0)
    min_val = min(float(s.min()) for s in out.snapshots)
    masses = [float(np.sum(s)) for s in out.snapshots]
    sups = [float(np.max(np.abs(s))) for s in out.snapshots]
    mass_ok = all(masses[i + 1] <= masses[i] + 1e-12 for i in range(len(masses) - 1))
    sup_ok = all(sups[i + 1] <= sups[i] + 1e-12 for i in range(len(sups) - 1))
    ok = min_val >= -1e-12 and mass_ok and sup_ok
    return _check("evolve_invariants", ok,
                  f"min value {min_val:.2e}, mass monotone={mass_ok}, "
                  f"sup monotone={sup_ok} over {len(masses) - 1} steps")


def check_refinement_order() -> CheckResult:
    prob = pme.PMEProblem(p=2, alpha=2.0, N=1, M=2, m=2.0, tau=0.1, t_end=0.4)
    u0 = np.full(prob.grid.dim, 0.2)
    u0[::2] += 1.0  # localized bump pattern on the grid
    ladder = pme.refinement_ladder(prob, u0, halvings=3)
    ok = len(ladder.orders) == 2 and all(o >= 0.8 for o in ladder.orders)
    return _check("refinement_order", ok,
                  f"L1 gaps {[f'{g:.3e}' for g in ladder.gaps]}, "
                  f"orders {[f'{o:.3f}' for o in ladder.orders]} (need >= 0.8)")


def check_epsilon_limit() -> CheckResult:
    rng = np.random.default_rng(409)
    prob = _solver_problem()
    f = rng.uniform(-1.0, 1.0, prob.grid.dim)
    eps = [2.0 ** (-j) for j in range(0, 31, 5)] + [0.0]  # the limit last
    v = _rows(pme.stationary_solve(prob, np.repeat(f[:, None], len(eps), 1),
                                   epsilon=np.array(eps)).v)
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(v[:-2], v[1:-1])]
    final_gap = float(np.max(np.abs(v[-1] - v[-2])))
    decreasing = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    ok = final_gap <= 1e-7 and decreasing
    return _check("epsilon_limit", ok,
                  f"|v_eps - v_0| = {final_gap:.3e} at eps=2^-30 (tol 1e-7), "
                  f"gaps decreasing={decreasing}")


def check_accretivity_pairing() -> CheckResult:
    rng = np.random.default_rng(410)
    prob = _solver_problem()
    A = ball_matrix(prob.operator).matrix
    lam = ball_eigenvalue_floor(prob.p, prob.alpha, prob.N)
    worst = math.inf
    for _ in range(50):
        d = rng.standard_normal(prob.grid.dim)
        pairing = float(np.sign(d) @ (A @ d))
        worst = min(worst, pairing - lam * float(np.sum(np.abs(d))))
    return _check("accretivity_pairing", worst >= -1e-12,
                  f"min (sign(d).A d - lam |d|_1) = {worst:.3e} (>= 0 expected)")


# ---------------------------------------------------------------------------
# explicit suite
# ---------------------------------------------------------------------------

def check_rho_frozen() -> CheckResult:
    rho = pme.explicit_rho(2, 2.0, 2.0)
    err = abs(rho - (-31.0 / 140.0))
    return _check("rho_frozen", err <= 1e-12,
                  f"|rho(2,2,2) + 31/140| = {err:.3e}")


def check_amplitude_identity() -> CheckResult:
    worst = 0.0
    for p in (2, 3):
        for a in (1.5, 2.0, 3.0):
            for m in (2.0, 3.0):
                nu = 1.0 / (m - 1.0)
                rho = pme.explicit_rho(p, a, m)
                C = gamma_p(p, a * m / (m - 1) + 1) / gamma_p(p, a / (m - 1) + 1)
                defect = abs(nu * rho + abs(rho) ** m * C) / max(1.0, nu * abs(rho))
                worst = max(worst, defect)
    return _check("amplitude_identity", worst <= 1e-12,
                  f"max relative defect of nu rho + |rho|^m C = {worst:.3e} "
                  "over the (p, alpha, m) lattice")


def check_residual_main() -> CheckResult:
    worst = 0.0
    for (p, a, m) in ((2, 2.0, 2.0), (3, 1.5, 2.0), (2, 2.0, 3.0)):
        worst = max(worst, pme.residual_check_explicit(p, a, m, t0=2.0, t=1.0))
    return _check("residual_main", worst <= 1e-10,
                  f"max residual = {worst:.3e} over shells [-10,10] (tol 1e-10)")


def check_residual_companion() -> CheckResult:
    worst = 0.0
    for (p, a, m) in ((2, 2.0, 2.0), (3, 1.5, 2.0)):
        worst = max(worst, pme.residual_check_explicit(p, a, m, t0=1.0, t=1.0,
                                                       companion=True))
    return _check("residual_companion", worst <= 1e-10,
                  f"max residual = {worst:.3e} (tol 1e-10)")


def check_perturbation_detected() -> CheckResult:
    rho = pme.explicit_rho(2, 2.0, 2.0)
    res = pme.residual_check_explicit(2, 2.0, 2.0, t0=2.0, t=1.0,
                                      rho_override=1.01 * rho)
    return _check("perturbation_detected", res > 1e-4,
                  f"1% amplitude error inflates residual to {res:.3e} (> 1e-4)")


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "kernel": (
        check_kernel_dual_series,
        check_kernel_mass,
        check_kernel_positivity,
        check_kernel_envelope,
        check_linear_split_certificate,
        check_green_modulus,
        check_green_tail,
    ),
    "operator": (
        check_indicator_closed_form,
        check_indicator_vs_quadrature,
        check_indicator_mass,
        check_composite_quadrature,
        check_eigenvalue_lambda,
        check_spectral_vs_matrix,
        check_radial_power,
        check_boundary_identity,
    ),
    "semigroup": (
        check_semigroup_indicator_integrals,
        check_chapman_kolmogorov,
        check_c0_continuity,
        check_l1_contraction,
        check_ball_kernel_vs_expm,
        check_ball_kernel_mass,
        check_c_coefficient_short_time,
        check_resolvent_inversion,
        check_resolvent_vs_laplace,
        check_resolvent_positivity,
    ),
    "solver": (
        check_stationary_inequalities,
        check_stationary_contraction,
        check_step_contraction_order,
        check_linear_reduction,
        check_evolve_invariants,
        check_refinement_order,
        check_epsilon_limit,
        check_accretivity_pairing,
    ),
    "explicit": (
        check_rho_frozen,
        check_amplitude_identity,
        check_residual_main,
        check_residual_companion,
        check_perturbation_detected,
    ),
}


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]


def run_all() -> dict:
    return {name: run_suite(name) for name in SUITES}
