import numpy as np
import pytest

from padicpme import fractional, pme
from padicpme.cli import build_initial
from padicpme.errors import DomainError
from padicpme.fractional import ball_matrix
from padicpme.functions import GridFunction
from padicpme.padic import GridSpec
from padicpme.pme import (EvolutionResult, PhiSpec, PMEProblem,
                          StationaryResult, evolve, explicit_rho,
                          explicit_solution, implicit_step,
                          refinement_ladder, residual_check_explicit,
                          stationary_solve)


def _problem(**over):
    base = dict(p=2, alpha=2.0, N=1, M=2, m=2.0, tau=0.05, t_end=0.2)
    base.update(over)
    return PMEProblem(**base)


def test_phi_power_identity_and_odd_symmetry():
    lin = PhiSpec.power(1.0)
    u = np.array([-2.0, -0.5, 0.0, 0.3, 4.0])
    assert np.array_equal(lin.phi(u), u)
    assert np.array_equal(lin.beta(u), u)
    sq = PhiSpec.power(2.0)
    assert np.allclose(sq.phi(u), np.sign(u) * u * u)
    assert np.allclose(sq.beta(sq.phi(u)), u)
    assert np.allclose(sq.phi(-u), -sq.phi(u))
    with pytest.raises(DomainError):
        PhiSpec.power(0.5)


def test_problem_domain_and_config_round_trip():
    with pytest.raises(DomainError):
        _problem(m=0.9)
    with pytest.raises(DomainError):
        _problem(tau=0.0)
    with pytest.raises(DomainError):
        _problem(alpha=-1.0)
    prob = _problem()
    again = PMEProblem.from_config(prob.to_config())
    assert again == prob
    with pytest.raises(DomainError) as exc:
        PMEProblem.from_config({"p": 2, "alpha": 2.0})
    assert "missing" in str(exc.value)


def test_stationary_residual_and_defects():
    prob = _problem()
    rng = np.random.default_rng(11)
    f = rng.uniform(-1, 1, prob.grid.dim)
    res = stationary_solve(prob, f, epsilon=0.1)
    assert isinstance(res, StationaryResult)
    assert res.residual < 1e-10
    v, w, w_free = res.v, res.w, res.w_free
    A = ball_matrix(prob.operator).matrix
    beta = prob.phi_spec.beta
    # v solves eps v + A v + beta(v) = f, and the defects match their
    # definitions, so w coincides with beta(v)
    assert np.max(np.abs(0.1 * v + A @ v + beta(v) - f)) < 1e-10
    assert np.allclose(w, f - 0.1 * v - A @ v, atol=1e-12)
    assert np.allclose(w_free, f - A @ v, atol=1e-12)
    assert np.allclose(w, beta(v), atol=1e-10)


def test_implicit_step_contracts():
    """The restricted operator keeps a spectral floor on constants, so mass
    decays; the step still contracts in L1 and sup norm."""
    prob = _problem()
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, prob.grid.dim)
    u_next, res = implicit_step(prob, u)
    assert np.sum(u_next) < np.sum(u)
    assert np.all(u_next >= -1e-12)
    assert np.sum(np.abs(u_next)) <= np.sum(np.abs(u)) + 1e-10
    assert np.max(np.abs(u_next)) <= np.max(np.abs(u)) + 1e-12
    assert res.iterations >= 1


def test_evolve_shapes_times_and_diagnostics():
    prob = _problem()
    u0 = np.zeros(prob.grid.dim)
    u0[0] = 1.0
    out = evolve(prob, u0)
    assert isinstance(out, EvolutionResult)
    assert len(out.times) == 5 and out.times[-1] == pytest.approx(0.2)
    assert len(out.snapshots) == 5
    assert np.array_equal(out.snapshots[0], u0)
    for key in ("newton_iterations", "residual", "mass", "l1", "linf"):
        assert len(out.diagnostics[key]) == 4
    masses = out.diagnostics["mass"]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    linf = out.diagnostics["linf"]
    assert all(b <= a + 1e-12 for a, b in zip(linf, linf[1:]))
    assert out.final.grid == prob.grid


def test_evolve_rejects_bad_initial_and_times():
    prob = _problem()
    with pytest.raises(DomainError):
        evolve(prob, np.zeros(3))
    with pytest.raises(DomainError):
        evolve(_problem(t_end=0.07), np.zeros(prob.grid.dim))
    wrong = GridFunction(GridSpec(2, 2, 2),
                         np.zeros(16, dtype=np.complex128))
    with pytest.raises(DomainError):
        evolve(prob, wrong)


def test_grid_function_initial_matches_array():
    prob = _problem()
    u0 = np.linspace(0.0, 1.0, prob.grid.dim)
    a = evolve(prob, u0)
    b = evolve(prob, GridFunction(prob.grid, u0.astype(np.complex128)))
    assert np.array_equal(a.snapshots[-1], b.snapshots[-1])


def test_linear_case_reduces_to_backward_euler():
    """m = 1: each step is exactly the linear solve (I + tau A)^{-1}."""
    prob = _problem(m=1.0, tau=0.01, t_end=0.01)
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0, 1, prob.grid.dim)
    out = evolve(prob, u0)
    A = ball_matrix(prob.operator).matrix
    exact = np.linalg.solve(np.eye(len(u0)) + prob.tau * A, u0)
    assert np.max(np.abs(out.snapshots[-1] - exact)) < 1e-10


def test_linear_one_step_defect_is_second_order():
    from scipy.linalg import expm

    u0 = np.random.default_rng(7).uniform(0, 1, 8)
    defects = []
    for tau in (0.01, 0.005):
        prob = _problem(m=1.0, tau=tau, t_end=tau)
        out = evolve(prob, u0)
        exact = expm(-tau * ball_matrix(prob.operator).matrix) @ u0
        defects.append(np.max(np.abs(out.snapshots[-1] - exact)))
    assert 3.0 < defects[0] / defects[1] < 5.0


def test_refinement_ladder_orders():
    prob = _problem(tau=0.1, t_end=0.2)
    u0 = np.full(prob.grid.dim, 0.2)
    u0[::2] += 1.0
    out = refinement_ladder(prob, u0, halvings=2)
    assert out.taus == (0.1, 0.05, 0.025)
    assert all(g > 0 for g in out.gaps)
    assert all(o > 0.8 for o in out.orders)


def test_explicit_rho_oracle_and_guards():
    assert explicit_rho(2, 2.0, 2.0) == pytest.approx(-31 / 140, abs=1e-15)
    with pytest.raises(DomainError):
        explicit_rho(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        explicit_solution(2, 2.0, 2.0, t0=0.0)


def test_explicit_profile_values():
    sol = explicit_solution(2, 2.0, 2.0, t0=4.0)
    assert sol.nu == pytest.approx(1.0)
    assert sol.amplitude == pytest.approx(-31 / 140)
    assert sol.value(1.0, None) == 0.0
    # u(t, |x| = p^k) = rho (t0 - t)^{-nu} |x|^{alpha nu}
    assert sol.value(1.0, 2) == pytest.approx((-31 / 140) / 3.0 * 16.0)
    grid = GridSpec(2, 1, 1)
    vals = sol.to_grid(grid, 1.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(sol.value(1.0, 1))


def test_explicit_time_domain():
    sol = explicit_solution(2, 2.0, 2.0, t0=1.0)
    with pytest.raises(DomainError):
        sol.time_factor(1.0)
    comp = explicit_solution(2, 2.0, 2.0, t0=1.0, companion=True)
    assert comp.time_factor(3.0) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        residual_check_explicit(2, 2.0, 2.0, t0=1.0, t=2.0)


def test_residual_tiny_for_true_rho_only():
    good = residual_check_explicit(2, 2.0, 2.0, t0=2.0, t=1.0)
    assert good < 1e-12
    bad = residual_check_explicit(2, 2.0, 2.0, t0=2.0, t=1.0,
                                  rho_override=-31 / 140 * 1.01)
    assert bad > 1e-4
    comp = residual_check_explicit(2, 2.0, 2.0, t0=2.0, t=1.0,
                                   companion=True)
    assert comp < 1e-12


def _assert_monotone_nonneg(snapshots):
    assert min(float(u.min()) for u in snapshots) >= 0.0
    for key in (np.sum, lambda u: np.sum(np.abs(u)), lambda u: np.max(np.abs(u))):
        vals = [float(key(u)) for u in snapshots]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_p5_radial_power_evolve_converges_by_newton(monkeypatch):
    """Five steps at p=5, dim 625 that once fell through to Gauss-Seidel
    and were refused; the exact level solve keeps Newton converging, and
    the evolve path never builds the dense matrix."""
    def no_dense(*args, **kwargs):
        raise AssertionError("dense ball matrix built on the evolve path")
    monkeypatch.setattr(fractional, "ball_matrix", no_dense)
    monkeypatch.setattr(pme, "ball_matrix", no_dense)
    prob = PMEProblem(p=5, alpha=1.5, N=2, M=2, m=3.0, tau=0.05, t_end=0.25)
    u0 = build_initial(prob.grid, {"kind": "radial_power", "exponent": 1.0})
    out = evolve(prob, u0)
    assert len(out.snapshots) == 6
    assert max(out.diagnostics["newton_iterations"]) <= prob.max_iters
    _assert_monotone_nonneg(out.snapshots)


@pytest.mark.parametrize("p, N, M", [(2, 7, 7), (3, 4, 5)])
def test_implicit_step_on_large_grids(p, N, M):
    """dim 2^14 and 3^9: L1 contraction between two data, the sup bound
    and mass decay, far past the size a dense solve could reach."""
    prob = PMEProblem(p=p, alpha=1.5, N=N, M=M, m=2.0, tau=0.05, t_end=0.05)
    rng = np.random.default_rng(p)
    u = rng.uniform(0.0, 1.0, prob.grid.dim)
    v = u + rng.uniform(-0.5, 0.5, prob.grid.dim)
    un, res = implicit_step(prob, u)
    vn, _ = implicit_step(prob, v)
    assert res.residual <= prob.newton_tol
    assert np.sum(np.abs(un - vn)) <= np.sum(np.abs(u - v)) * (1 + 1e-12)
    assert np.max(np.abs(un)) <= np.max(np.abs(u)) * (1 + 1e-12)
    assert np.sum(un) < np.sum(u)
    assert np.all(un >= 0.0)


def _dense_gauss_seidel(A, phi, f, eps, scale, tol):
    """Reference: the same sweep with each row of A read from the dense
    matrix."""
    from scipy.optimize import brentq

    v = np.zeros(len(f))
    for sweep in range(1, 601):
        for i in range(len(f)):
            r = f[i] - scale * (A[i] @ v) + scale * A[i, i] * v[i]
            a = eps + scale * A[i, i]
            R = max(1.0, abs(r), abs(r) ** phi.m)
            v[i] = brentq(lambda x: a * x + float(phi.beta(x)) - r, -R, R,
                          xtol=1e-15, rtol=8.9e-16)
        if np.max(np.abs(eps * v + scale * (A @ v) + phi.beta(v) - f)) <= tol:
            return v, sweep
    raise AssertionError("reference Gauss-Seidel did not converge")


@pytest.mark.parametrize("eps, scale", [(0.0, 0.3), (0.25, 1.0)])
def test_gauss_seidel_fallback_matches_dense_sweeps(eps, scale):
    """The per-level Gauss-Seidel sweep takes the same sweeps to the same
    point as the sweep over dense rows of ball_matrix."""
    prob = _problem(p=3, N=1, M=1, m=3.0)
    rng = np.random.default_rng(13)
    f = rng.uniform(-1.0, 1.0, prob.grid.dim)
    v, sweeps, res = pme._gauss_seidel_solve(prob.levels, prob.phi_spec, f,
                                             eps, scale, 1e-12)
    A = ball_matrix(prob.operator).matrix
    ref, ref_sweeps = _dense_gauss_seidel(A, prob.phi_spec, f, eps, scale,
                                          1e-12)
    assert sweeps == ref_sweeps and res <= 1e-12
    assert np.max(np.abs(v - ref)) <= 1e-12
