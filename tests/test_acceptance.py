"""Acceptance gate.

Eleven numbered criteria, one test each.  Every test prints a single
PASS/FAIL line naming the criterion and its pinned tolerances, then asserts.
The underlying certified checks run once per module and are shared.
"""

import pytest

from padicpme.verification import run_all

CRITERIA = {
    1: ("indicator_image",
        ["operator.indicator_closed_form",
         "operator.indicator_vs_quadrature",
         "operator.indicator_mass_cancellation"],
        "closed form 4/7, -3/7, -3/56 at p=2, alpha=2, l=0; quadrature "
        "agrees within certified tail <= 1e-8; total mass cancels to 1e-12"),
    2: ("eigenvalue_lambda",
        ["operator.eigenvalue_lambda"],
        "smallest ball-matrix eigenvalue = (p-1)/(p^(a+1)-1) p^(a(1-N)) "
        "within 1e-9 over (p,a,N,M) in {2,3}x{1.5,2}x{0,1}x{2,3}, constant "
        "eigenvector"),
    3: ("kernel_dual_series",
        ["kernel.kernel_dual_series", "kernel.kernel_mass",
         "kernel.kernel_envelope"],
        "shell vs alternating series within 1e-9 at 20 (t,x) points; "
        "mass = 1 within 1e-8; envelope bound with one fitted C on a "
        "10x10 lattice"),
    4: ("semigroup_laws",
        ["semigroup.chapman_kolmogorov", "semigroup.c0_continuity",
         "semigroup.l1_contraction",
         "semigroup.semigroup_indicator_integrals"],
        "composition law within 1e-8 on the grid; C0 distance decays to 0; "
        "L1 contraction on 100 random functions; indicator expansion "
        "matches ball integrals within certificates"),
    5: ("ball_kernel",
        ["semigroup.ball_kernel_vs_expm", "semigroup.ball_kernel_mass",
         "semigroup.c_coefficient_short_time"],
        "Z_N path vs expm(-t(B - lam I)) within 1e-7; mass over B_N = 1 "
        "within 1e-8; c(t)/t^2 stays bounded as t -> 0"),
    6: ("short_time_split",
        ["kernel.linear_split_certificate"],
        "|c_{-k}(t) - p^(-ka)(p^a - 1) t| <= C p^(-2ka) t^2 with one C "
        "per (p,a), k in [1,20], t in (0,2]"),
    7: ("resolvent",
        ["semigroup.resolvent_inversion", "semigroup.resolvent_vs_laplace",
         "semigroup.resolvent_positivity"],
        "(mu I + A) R_mu = I within 1e-12; shell-sum path vs Laplace "
        "quadrature of the semigroup within 1e-5; positivity and "
        "mu-contraction"),
    8: ("green_regularity",
        ["kernel.green_modulus", "kernel.green_tail"],
        "Phi(0) = 0, Phi nondecreasing, Phi -> 0 along |h| = 2^-j; tail "
        "log-log slope within 0.05 of -(alpha+1)"),
    9: ("boundary_identity",
        ["operator.boundary_identity"],
        "restricted operator + exterior constant reproduces the full "
        "operator to 1e-12 for wide and shifted indicators at N=0, p=2, "
        "alpha=2"),
    10: ("solver_bounds",
         ["solver.stationary_inequalities", "solver.stationary_contraction",
          "solver.step_contraction_order", "solver.linear_reduction",
          "solver.refinement_order"],
         "L1/sup bounds violated by at most 1e-12 over 100 rhs; implicit "
         "step L1-contractive and order-preserving; m=1 matches the linear "
         "resolvent to 1e-10; refinement order >= 0.8 over three "
         "tau-halvings"),
    11: ("explicit_profile",
         ["explicit.rho_frozen", "explicit.amplitude_identity",
          "explicit.oracle_identity", "explicit.oracle_solve",
          "explicit.perturbation_detected"],
         "rho(2,2,2) = -31/140 to 1e-12; relative amplitude defect <= 1e-12 "
         "on a (p,a,m) lattice; A g^m = C g + c_N - h_M cell by cell within "
         "its rounding bound; two implicit steps return a_(n+1) g within "
         "2 x Newton target; 1.01 rho gives a defect > 1e-4"),
}


@pytest.fixture(scope="module")
def results():
    flat = {}
    for suite, checks in run_all().items():
        for r in checks:
            flat[f"{suite}.{r.name}"] = r
    return flat


def _gate(num, results):
    slug, keys, pins = CRITERIA[num]
    picked = [(k, results[k]) for k in keys]
    ok = all(r.passed for _, r in picked)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {slug}: {pins}")
    for k, r in picked:
        print(f"    {'PASS' if r.passed else 'FAIL'} {k}: {r.detail}")
    failed = [k for k, r in picked if not r.passed]
    assert not failed, f"criterion {num:02d} ({slug}) failed: {failed}"


def test_criterion_01_indicator_image(results):
    _gate(1, results)


def test_criterion_02_eigenvalue_lambda(results):
    _gate(2, results)


def test_criterion_03_kernel_dual_series(results):
    _gate(3, results)


def test_criterion_04_semigroup_laws(results):
    _gate(4, results)


def test_criterion_05_ball_kernel(results):
    _gate(5, results)


def test_criterion_06_short_time_split(results):
    _gate(6, results)


def test_criterion_07_resolvent(results):
    _gate(7, results)


def test_criterion_08_green_regularity(results):
    _gate(8, results)


def test_criterion_09_boundary_identity(results):
    _gate(9, results)


def test_criterion_10_solver_bounds(results):
    _gate(10, results)


def test_criterion_11_explicit_profile(results):
    _gate(11, results)


def test_all_registered_checks_pass(results):
    """Nothing outside the numbered criteria is allowed to fail either."""
    failed = sorted(k for k, r in results.items() if not r.passed)
    assert failed == []
