import hashlib
import warnings
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from padicpme import fractional, pme
from padicpme.cli import build_initial
from padicpme.errors import DomainError, SolverError
from padicpme.fractional import LevelOperator, ball_matrix
from padicpme.padic import GridSpec
from padicpme.pme import (_MAX_ITERS, _NEWTON_TOL, DiscreteOracle,
                          EvolutionResult, PMEProblem, StationaryResult,
                          _beta_prime, amplitude_defect, beta, evolve,
                          explicit_rho, explicit_solution, implicit_step,
                          refinement_ladder, stationary_solve)


def _problem(**over):
    base = dict(p=2, alpha=2.0, N=1, M=2, m=2.0, tau=0.05, t_end=0.2)
    base.update(over)
    return PMEProblem(**base)


def test_phi_power_identity_and_odd_symmetry():
    """beta inverts phi(u) = sign(u) |u|^m, is odd, and beta' is
    |v|^{1/m - 1} / m, infinite at 0 for m > 1."""
    u = np.array([-2.0, -0.5, 0.0, 0.3, 4.0])
    assert np.array_equal(beta(u, 1.0), u)
    assert np.array_equal(_beta_prime(u, 1.0), np.ones(5))
    assert np.allclose(beta(np.sign(u) * u * u, 2.0), u)
    assert np.array_equal(beta(-u, 2.0), -beta(u, 2.0))
    with np.errstate(divide="ignore"):
        bp = _beta_prime(u, 2.0)
    assert bp[2] == np.inf
    assert np.allclose(np.delete(bp, 2), 0.5 / np.sqrt(np.abs(np.delete(u, 2))))
    # JSON ints give the same bits as floats
    assert np.array_equal(beta(u, 2), beta(u, 2.0))


def test_problem_domain_and_config_round_trip():
    with pytest.raises(DomainError):
        _problem(m=0.9)
    with pytest.raises(DomainError):
        _problem(tau=0.0)
    with pytest.raises(DomainError):
        _problem(alpha=-1.0)
    prob = _problem()
    cfg = prob.to_config()
    # the step takes only the paper's parameters
    assert set(cfg) == {"p", "alpha", "N", "M", "m", "tau", "t_end"}
    again = PMEProblem.from_config(cfg)
    assert again == prob
    # configs written while the epsilon ladder, the grid_cap option and
    # the Newton knobs existed still load; the retired keys are ignored
    legacy = dict(cfg, epsilon_schedule=[0.5, 0.25, 0.125], grid_cap=4096,
                  newton_tol=1e-13, max_iters=5)
    assert PMEProblem.from_config(legacy) == prob
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
    bv = beta(v, prob.m)
    # v solves eps v + A v + beta(v) = f, and the defects match their
    # definitions, so w coincides with beta(v)
    assert np.max(np.abs(0.1 * v + A @ v + bv - f)) < 1e-10
    assert np.allclose(w, f - 0.1 * v - A @ v, atol=1e-12)
    assert np.allclose(w_free, f - A @ v, atol=1e-12)
    assert np.allclose(w, bv, atol=1e-10)


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
    assert out.grid == prob.grid


def test_evolve_rejects_bad_initial_and_times():
    prob = _problem()
    with pytest.raises(DomainError):
        evolve(prob, np.zeros(3))
    with pytest.raises(DomainError):
        evolve(_problem(t_end=0.07), np.zeros(prob.grid.dim))


def test_evolve_refuses_complex_initial_data():
    """The flow is real: a nonzero imaginary part of a complex array is
    refused, not dropped."""
    prob = _problem()
    u0 = np.linspace(0.0, 1.0, prob.grid.dim)
    for im in (u0, np.where(np.arange(prob.grid.dim) == 3, 1e-300, 0.0)):
        with pytest.raises(DomainError, match="imaginary"):
            evolve(prob, u0 + 1j * im)
    a = evolve(prob, u0)
    b = evolve(prob, u0 + 0j)
    assert np.array_equal(a.snapshots[-1], b.snapshots[-1])


def test_evolve_refuses_non_finite_initial_data():
    """A nan or inf cell is refused with DomainError before any step."""
    prob = _problem()
    for bad in (np.nan, np.inf, -np.inf):
        u0 = np.linspace(0.0, 1.0, prob.grid.dim)
        u0[2] = bad
        with pytest.raises(DomainError, match="finite.* index 2"):
            pme.real_initial(u0)
        with pytest.raises(DomainError, match="finite"):
            evolve(prob, u0)
        with pytest.raises(DomainError, match="finite"):
            evolve(prob, u0.astype(np.complex128))


def test_solves_refuse_a_non_finite_forcing_term():
    """A nan or inf cell of f raises DomainError naming it, and its column
    for an (n, k) f, instead of returning nan after 0 iterations."""
    prob = _problem(tau=0.1)
    n = prob.grid.dim
    for bad in (np.nan, np.inf, -np.inf):
        f = np.ones(n)
        f[3] = f[5] = bad
        with pytest.raises(DomainError, match="finite: 2 .* index 3$"):
            stationary_solve(prob, f, 0.0)
        with pytest.raises(DomainError, match="finite: 2 .* index 3$"):
            implicit_step(prob, f)
        batch = np.ones((n, 3))
        batch[6, 1] = batch[2, 2] = bad
        with pytest.raises(DomainError, match="index 6 of column 1$"):
            stationary_solve(prob, batch, np.zeros(3))
        with pytest.raises(DomainError, match="index 6 of column 1$"):
            implicit_step(prob, batch)


def test_a_non_finite_residual_refuses_and_names_its_column():
    """f = 1e308 on every fourth cell overflows the start's level solve:
    the residual is nan, which is not above its target, so the column
    left as met with v all inf and residual 0.0.  It refuses, naming its
    column in a batch, and no RuntimeWarning escapes (warnings are errors
    here); the same data at 1e300 solve finitely."""
    prob = PMEProblem(2, 2.0, 2, 1, 2.0, 0.05, 0.1)
    f = np.zeros(prob.grid.dim)
    f[::4] = 1e308
    with pytest.raises(SolverError, match="^Newton: residual = nan leaves "
                       "the double range$") as exc:
        stationary_solve(prob, f, 0.0)
    assert exc.value.column is None and np.isnan(exc.value.residual)
    with pytest.raises(SolverError, match="^column 1: Newton") as exc:
        stationary_solve(prob, np.column_stack([f / 1e8, f]), 0.0)
    assert exc.value.column == 1
    res = stationary_solve(prob, f / 1e8, 0.0)
    assert np.isfinite(res.v).all() and np.isfinite(res.residual)


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
    for alpha in (0.0, -1.0):
        with pytest.raises(DomainError, match="alpha must be positive"):
            explicit_rho(2, alpha, 2.0)


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


def test_amplitude_defect_is_ulps_for_rho_only():
    """The double rho of explicit_rho solves nu rho + |rho|^m C = 0 to
    rounding; 1 % off, or of the wrong sign, it does not."""
    rho = explicit_rho(2, 2.0, 2.0)
    assert amplitude_defect(2, 2.0, 2.0, rho) <= 1e-15
    # at m = 2, nu = 1 and |rho| C = 1: the defect of 1.01 rho is
    # 1.01 |rho| (1.01 - 1)
    assert amplitude_defect(2, 2.0, 2.0, 1.01 * rho) == pytest.approx(
        1.01 * 0.01 * 31 / 140, rel=1e-12)
    assert amplitude_defect(2, 2.0, 2.0, -rho) == pytest.approx(2 * 31 / 140)
    # |rho| = 3.7e307 at m = 1.0066, where |rho|^m leaves the double
    # range; the defect does not form it
    rho = explicit_rho(2, 0.5, 1.0066)
    assert amplitude_defect(2, 0.5, 1.0066, rho) <= 1e-12


_ORACLE_CASES = [((p, N, M), alpha, m) for p, N, M in ((2, 3, 4), (3, 2, 3),
                                                      (5, 1, 2))
                 for alpha in (0.5, 1.0, 2.0) for m in (1.5, 2.0, 3.0)]


def _oracle(grid, alpha, m):
    p, N, M = grid
    return DiscreteOracle(PMEProblem(p=p, alpha=alpha, N=N, M=M, m=m,
                                      tau=0.1, t_end=0.1))


def _oracle_id(case):
    (p, N, M), alpha, m = case
    return f"{p}-{N}-{M}-alpha{alpha:g}-m{m:g}"


@pytest.mark.parametrize("case", _ORACLE_CASES + [((2, 10, 10), 1.0, 2.0)],
                         ids=_oracle_id)
def test_discrete_oracle_identity_holds_cell_by_cell(case):
    """A g^m = C g + c_N - h_M on every cell, the centre cell and the
    cells next to B_-M and to the sphere of B_N included, within the
    rounding bound of the level apply; the last case is a grid at the
    cap."""
    gap, bound = _oracle(*case).identity_gap()
    assert np.all(gap <= bound), float(np.max(gap / bound))


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, raises=SolverError,
        reason="ROADMAP item 3b: Newton refuses these steps at m = 3"))
    if case[2] == 3.0 else case for case in _ORACLE_CASES], ids=_oracle_id)
def test_discrete_oracle_steps_return_the_profile(case):
    """Two implicit steps from a_n g plus the oracle's source, solved as
    two columns, return a_{n+1} g, with a_{n+1} the backward Euler
    amplitudes, within 2 (Newton target + rounding floor)."""
    gap, target, floor = _oracle(*case).step_gap(2)
    bound = 2 * (target + floor)
    assert np.all(gap <= bound), float(np.max(gap / bound))


def test_discrete_oracle_refuses_m_at_most_1():
    with pytest.raises(DomainError, match="needs m > 1"):
        _oracle((2, 1, 1), 2.0, 1.0)


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
    assert max(out.diagnostics["newton_iterations"]) <= _MAX_ITERS
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
    assert res.residual <= _NEWTON_TOL
    assert np.sum(np.abs(un - vn)) <= np.sum(np.abs(u - v)) * (1 + 1e-12)
    assert np.max(np.abs(un)) <= np.max(np.abs(u)) * (1 + 1e-12)
    assert np.sum(un) < np.sum(u)
    assert np.all(un >= 0.0)


def _step_data(rng, kind: str, dim: int) -> np.ndarray:
    """signed: uniform on [-1, 1]; point: one unit cell; gapped:
    nonnegative and zero on half of the cells."""
    if kind == "signed":
        return rng.uniform(-1.0, 1.0, dim)
    u = np.zeros(dim)
    if kind == "point":
        u[int(rng.integers(dim))] = 1.0
        return u
    cells = rng.permutation(dim)[: dim // 2]
    u[cells] = rng.uniform(0.1, 1.0, len(cells))
    return u


@pytest.mark.parametrize("N, M, alpha, scale, kind, seed", [
    (2, 2, 2.0, 1e-6, "gapped", 0),
    (3, 3, 0.5, 1.0, "signed", 516),
])
def test_clipped_corners_at_m8_are_refused_not_wrong(N, M, alpha, scale,
                                                     kind, seed):
    """m = 8, where beta'(v) = |v|^(1/m - 1) / m exceeds _BP_CLIP on cells
    with v near 0, so the clipped Newton step overshoots there. On gapped
    data of size 1e-6 Newton stalls far above its target; on this unit
    signed datum it converges only linearly and is still 8.7 times above
    the target after its 80 iterations. Both stalls sit far above the
    rounding floor of G(v), so the step must refuse with the residual it
    reached rather than return a value."""
    prob = _problem(N=N, M=M, alpha=alpha, m=8.0, tau=0.1, t_end=0.1)
    u = scale * _step_data(np.random.default_rng(seed), kind, prob.grid.dim)
    with pytest.raises(SolverError) as exc:
        implicit_step(prob, u)
    assert exc.value.residual is not None
    assert exc.value.residual > _NEWTON_TOL * max(1.0, scale)


@pytest.mark.parametrize("p, N, M, steps", [
    (5, 4, 4, 1), (3, 6, 5, 2), (3, 5, 6, 3)])
def test_radial_power_at_the_rounding_floor_solves(p, N, M, steps):
    """m = 2, tau = 0.1, data |x| on dims 5^8, 3^11 and 3^11: at this size
    the target 1e-12 max|u| sits at the rounding floor of G(v), and the
    last step stalls above it (these steps were once refused). The stalled
    iterate is accepted at its computed rounding floor and keeps
    u_next = beta(v) to 1e-10 max|u|, the sup bound, nonnegativity and
    mass decay."""
    prob = _problem(p=p, N=N, M=M, m=2.0, tau=0.1, t_end=0.1 * steps)
    u = build_initial(prob.grid, {"kind": "radial_power", "exponent": 1.0})
    residuals = []
    for _ in range(steps):
        u_next, res = implicit_step(prob, u)
        assert (np.max(np.abs(beta(res.v, prob.m) - u_next))
                <= 1e-10 * np.max(np.abs(u)))
        assert np.max(u_next) <= np.max(u)
        assert np.all(u_next >= 0.0)
        assert np.sum(u_next) < np.sum(u)
        residuals.append(res.residual / np.max(np.abs(u)))
        u = u_next
    assert residuals[-1] > _NEWTON_TOL


def test_stalled_step_applies_A_once_to_its_result(monkeypatch):
    """The (5, 4, 4) step of the test above stalls at its rounding floor.
    Its last line search ends at the first trial v + theta d that rounds
    back to v, since every shorter step rounds to v too, and w reuses the
    s A v of the accepted iterate. So A is applied to the returned v
    exactly once, by the residual evaluation that accepted it."""
    prob = _problem(p=5, N=4, M=4, m=2.0, tau=0.1, t_end=0.1)
    u = build_initial(prob.grid, {"kind": "radial_power", "exponent": 1.0})
    seen = []
    apply = LevelOperator.apply

    def recording(self, x):
        if self is prob.levels:
            seen.append(x.copy())
        return apply(self, x)

    monkeypatch.setattr(LevelOperator, "apply", recording)
    _, res = implicit_step(prob, u)
    assert res.residual > _NEWTON_TOL * np.max(np.abs(u))  # it stalled
    # A is applied to columns: v is the one argument of shape (n, 1)
    assert sum(np.array_equal(x.ravel(), res.v) for x in seen) == 1


def test_rounding_floor_bounds_the_rounding_of_G():
    """The computed G(v) = eps v + s A v + beta(v) - f differs from the
    exact one, summed in rationals, by no more than the v form's rounding
    floor (_VForm.floor) of v as one column; m = 1 keeps beta(v) = v
    exact."""
    rng = np.random.default_rng(3)
    for p, N, M in ((2, 3, 3), (3, 2, 2), (5, 1, 2)):
        A = PMEProblem(p=p, alpha=1.5, N=N, M=M, m=1.0, tau=1.0,
                       t_end=1.0).levels
        for scale, eps in ((1.0, 0.0), (1e3, 0.3), (1e-3, 1.0)):
            v = rng.uniform(-1.0, 1.0, A.grid.dim) * 10.0 ** rng.integers(
                -3, 4, A.grid.dim)
            f = rng.uniform(-1.0, 1.0, A.grid.dim)
            g = eps * v + scale * A.apply(v) + beta(v, 1.0) - f
            fv, idx = [Fraction(x) for x in v], np.arange(A.grid.dim)
            exact = []
            for i in idx:
                av = Fraction(A.c) * fv[i]
                for L, h in enumerate(A.h):
                    same = np.flatnonzero((idx - i) % p**L == 0)
                    av += Fraction(h) * sum(fv[j] for j in same)
                exact.append((Fraction(eps) + 1) * fv[i]
                             + Fraction(scale) * av - Fraction(f[i]))
            err = max(abs(Fraction(x) - e) for x, e in zip(g, exact))
            model = pme._VForm(A, 1.0, scale, f[:, None], eps)
            assert 0 < err <= model.floor(v[:, None])[0]


_STEP_GRIDS = ((2, 2, 2), (2, 1, 4), (2, 3, 3), (3, 1, 2), (3, 2, 2))
_KINDS = ("signed", "gapped", "point")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(grid=st.sampled_from(_STEP_GRIDS),
       alpha=st.sampled_from((0.5, 2.0)),
       m=st.sampled_from((1.0, 1.5, 2.0, 4.0, 8.0)),
       tau=st.sampled_from((1e-3, 0.1, 10.0, 1e3)),
       scale=st.sampled_from((1e-6, 1.0, 1e6)),
       kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
       seed=st.integers(0, 2**16))
def test_implicit_step_refuses_or_keeps_invariants(grid, alpha, m, tau, scale,
                                                   kinds, seed):
    """Over the solver's domain (dims 16-81, m >= 1, any tau and data
    scale, signed, gapped and point data) a step either raises SolverError
    with its residual or returns a finite u_next that solves the step and
    keeps the paper's invariants: the L1 and sup bounds, nonnegativity and
    mass decay for nonnegative data, and L1 contraction against a second
    datum. u_next equals beta(v) only up to the Newton target, so pointwise
    bounds get that slack per cell and sums get it summed over the cells."""
    p, N, M = grid
    prob = PMEProblem(p=p, alpha=alpha, N=N, M=M, m=m, tau=tau, t_end=tau)
    rng = np.random.default_rng(seed)
    u, w = (scale * _step_data(rng, kind, prob.grid.dim) for kind in kinds)
    cell_slack = 4 * _NEWTON_TOL * max(1.0, scale)
    slack = prob.grid.dim * cell_slack
    steps = []
    for x in (u, w):
        try:
            x_next, res = implicit_step(prob, x)
        except SolverError as exc:
            assert exc.residual is not None and exc.residual > 0
            continue
        assert np.all(np.isfinite(x_next))
        # the step equation: u_next = beta(v) with u - u_next = tau A v
        assert np.max(np.abs(beta(res.v, m) - x_next)) <= cell_slack
        assert np.sum(np.abs(x_next)) <= np.sum(np.abs(x)) + slack
        assert np.max(np.abs(x_next)) <= np.max(np.abs(x)) + cell_slack
        if np.all(x >= 0):
            assert np.all(x_next >= -cell_slack)
            assert np.sum(x_next) <= np.sum(x) + slack
        steps.append(x_next)
    if len(steps) == 2:
        un, wn = steps
        assert np.sum(np.abs(un - wn)) <= np.sum(np.abs(u - w)) + 2 * slack


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(grid=st.sampled_from(((2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 1))),
       alpha=st.sampled_from((0.5, 2.0)),
       m=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
       tau=st.sampled_from((1e-3, 0.1, 10.0)),
       columns=st.lists(st.tuples(st.sampled_from(_KINDS),
                                  st.sampled_from((1e-3, 1.0, 1e3)),
                                  st.sampled_from((0.0, 0.01, 0.3, 2.0))),
                        min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
def test_columns_solve_exactly_as_they_do_alone(grid, alpha, m, tau, columns,
                                                seed):
    """k problems as the columns of one call, each with its own data (gapped
    and point data hold zeros) and epsilon: every column's v, w and w_free
    have the sha256 of its solo solve, iterations is the solo total and
    residual the solo maximum, for stationary_solve and implicit_step; a
    refusing column refuses the batch with its own reason and residual.
    apply and solve of the level operator keep columns apart the same way."""
    p, N, M = grid
    prob = PMEProblem(p=p, alpha=alpha, N=N, M=M, m=m, tau=tau, t_end=tau)
    rng = np.random.default_rng(seed)
    f = np.column_stack([scale * _step_data(rng, kind, prob.grid.dim)
                         for kind, scale, _ in columns])
    eps = np.array([e for *_, e in columns])
    for batch_call, solo_call in (
            (lambda: stationary_solve(prob, f, eps, tau),
             lambda j: stationary_solve(prob, f[:, j].copy(), eps[j], tau)),
            (lambda: implicit_step(prob, f)[1],
             lambda j: implicit_step(prob, f[:, j].copy())[1])):
        solo = []
        for j in range(len(columns)):
            try:
                solo.append(solo_call(j))
            except SolverError as exc:
                solo.append(exc)
        refused = [j for j, r in enumerate(solo) if isinstance(r, SolverError)]
        if refused:
            with pytest.raises(SolverError) as exc:
                batch_call()
            assert exc.value.column in refused
            alone = solo[exc.value.column]
            assert exc.value.reason == str(alone)
            assert exc.value.residual == alone.residual
            continue
        got = batch_call()
        for j, r in enumerate(solo):
            column = (got.v[:, j], got.w[:, j], got.w_free[:, j])
            assert ([_sha(a) for a in column]
                    == [_sha(r.v), _sha(r.w), _sha(r.w_free)])
        assert got.iterations == sum(r.iterations for r in solo)
        assert got.residual == max(r.residual for r in solo)
        assert type(got.iterations) is int and type(got.residual) is float
    A = prob.levels
    for batch, alone in ((A.apply(f), lambda j: A.apply(f[:, j].copy())),
                         (A.solve(eps, f, tau),
                          lambda j: A.solve(eps[j], f[:, j].copy(), tau))):
        for j in range(len(columns)):
            assert _sha(batch[:, j]) == _sha(alone(j))


@pytest.mark.parametrize("p, N, M, m", [(3, 3, 4, 2.0), (5, 2, 3, 3.0),
                                        (2, 6, 6, 3.0)])
def test_stalled_columns_leave_at_their_floor_as_they_do_alone(p, N, M, m):
    """Radial powers |x|^e on dims 2187 to 4096, whose steps stall and are
    accepted at the rounding floor (3 of the 12 solo steps at p = 3, all
    of them on the other grids) after different iteration counts and at
    different theta: stepped as one batch of columns, each column keeps the
    sha256 of its solo step over three steps."""
    prob = _problem(p=p, N=N, M=M, m=m, alpha=2.0, tau=0.1, t_end=0.3)
    u = np.column_stack([
        scale * build_initial(prob.grid, {"kind": "radial_power",
                                          "exponent": e})
        for e, scale in ((1.0, 1.0), (2.0, 1.0), (2.0, 0.1), (0.5, 3.0))])
    stalled = 0
    for _ in range(3):
        u_next, res = implicit_step(prob, u)
        for j in range(u.shape[1]):
            alone_next, alone = implicit_step(prob, u[:, j].copy())
            assert ([_sha(res.v[:, j]), _sha(u_next[:, j])]
                    == [_sha(alone.v), _sha(alone_next)])
            stalled += alone.residual > _NEWTON_TOL * np.max(np.abs(u[:, j]))
        u = u_next
    assert stalled >= 3


def test_a_refusing_column_refuses_the_batch_and_is_named():
    """pme-hard's m = 8 point datum of size 1e-6 on (3, 1, 2) refuses (80
    iterations, far above the rounding floor); put between two columns
    that converge, it refuses the batch with its solo reason and
    residual, and the message names column 1."""
    prob = PMEProblem(p=3, alpha=0.5, N=1, M=2, m=8.0, tau=1e3, t_end=1e3)
    point = np.zeros(prob.grid.dim)
    point[4] = 1e-6
    with pytest.raises(SolverError) as solo:
        implicit_step(prob, point)
    assert solo.value.column is None
    u = np.random.default_rng(0).uniform(0.1, 1.0, prob.grid.dim)
    with pytest.raises(SolverError) as exc:
        implicit_step(prob, np.column_stack([u, point, np.zeros_like(u)]))
    assert exc.value.column == 1
    assert str(exc.value) == f"column 1: {solo.value}"
    assert exc.value.residual == solo.value.residual


def test_a_singular_newton_system_names_its_column_after_others_left():
    """Lowering c by 0.9 / tau keeps the first solve (d = 1) positive, but
    a Newton system with beta'(v) < 0.9 is not.  The zero column meets its
    target before the first iteration and leaves; the large column then
    fails as the second live column, and the error names its column, 2."""
    prob = PMEProblem(p=2, alpha=2.0, N=1, M=2, m=2.0, tau=1.0, t_end=1.0)
    A = prob.levels
    prob.levels = LevelOperator(prob.grid, A.c - 0.9, A.h)
    f = np.zeros((prob.grid.dim, 3))
    f[:, 1], f[:, 2] = 0.01, 9.0
    with pytest.raises(SolverError) as solo:
        stationary_solve(prob, f[:, 2].copy(), 0.0)
    assert str(solo.value).startswith("singular Newton system: ")
    with pytest.raises(SolverError) as exc:
        stationary_solve(prob, f, 0.0)
    assert exc.value.column == 2
    assert str(exc.value) == f"column 2: {solo.value}"
    assert exc.value.residual == solo.value.residual


def test_column_input_refuses_a_wrong_shape():
    prob = _problem()
    n = prob.grid.dim
    for shape in ((n + 1,), (n + 1, 2), (2, n), (n, 2, 1), (n, 0)):
        with pytest.raises(DomainError):
            stationary_solve(prob, np.ones(shape), 0.0)
        with pytest.raises(DomainError):
            implicit_step(prob, np.ones(shape))
    for f, eps in ((np.ones(n), np.zeros(1)), (np.ones((n, 3)), np.zeros(2)),
                   (np.ones((n, 3)), np.zeros((n, 3)))):
        with pytest.raises(DomainError):
            stationary_solve(prob, f, eps)


def _outcome(call) -> tuple:
    """The sha256 of v, w and w_free with iterations and residual, or the
    message, residual and column of the SolverError the call raises."""
    try:
        r = call()
    except SolverError as exc:
        return str(exc), exc.residual, exc.column
    return _sha(r.v), _sha(r.w), _sha(r.w_free), r.iterations, r.residual


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(grid=st.sampled_from(((2, 2, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1),
                             (5, 1, 1))),
       alpha=st.sampled_from((0.5, 2.0)),
       m=st.sampled_from((1.0, 1.5, 2.0, 3.0, 4.0, 8.0)),
       tau=st.sampled_from((1e-3, 0.1, 10.0, 1e3)),
       columns=st.lists(st.tuples(st.sampled_from(_KINDS),
                                  st.sampled_from((1e-6, 1.0, 1e6)),
                                  st.sampled_from((0.0, 0.01, 2.0))),
                        min_size=1, max_size=4),
       batch=st.booleans(),
       seed=st.integers(0, 2**16))
def test_line_search_block_width_cannot_change_a_result(grid, alpha, m, tau,
                                                        columns, batch, seed):
    """With one trial per block (_BLOCK_CELLS = 1) the line search is the
    sequential one, theta after theta.  At the default width it tries the
    thetas after 1 as the columns of one G call, and a step or a solve,
    of one vector or a batch with its own epsilon per column, returns
    the same bits or refuses with the same message, residual and column."""
    p, N, M = grid
    prob = PMEProblem(p=p, alpha=alpha, N=N, M=M, m=m, tau=tau, t_end=tau)
    rng = np.random.default_rng(seed)
    f = np.column_stack([scale * _step_data(rng, kind, prob.grid.dim)
                         for kind, scale, _ in columns])
    eps = np.array([e for *_, e in columns])
    if not batch:
        f, eps = f[:, 0].copy(), eps[0]
    calls = (lambda: stationary_solve(prob, f, eps, tau),
             lambda: implicit_step(prob, f)[1])
    wide = [_outcome(call) for call in calls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pme, "_BLOCK_CELLS", 1)
        assert [_outcome(call) for call in calls] == wide


def test_a_refusing_step_calls_G_once_per_iteration(monkeypatch):
    """A (2, 2, 2), m = 8 point datum of size 1e-6, as in pme-hard's
    refusals: with one G call per trial, its 80 Newton iterations apply A
    1776 times.  Each of its line searches rejects theta = 1.  The first
    tries theta = 1 alone and the rest of the ladder in one more call;
    every later one follows a search that rejected theta = 1, so its first
    block is the whole ladder, theta = 1 included.  So A is applied once
    per iteration, plus once for the first search's second block, once
    for the first G and once for the rounding floor.  The refusal and its
    residual are those of the sequential search."""
    prob = PMEProblem(p=2, alpha=0.5, N=2, M=2, m=8.0, tau=1e3, t_end=1e3)
    u = np.zeros(prob.grid.dim)
    u[0] = 1e-6
    calls = []
    apply = LevelOperator.apply

    def counting(self, x):
        calls.append(1)
        return apply(self, x)

    monkeypatch.setattr(LevelOperator, "apply", counting)
    with pytest.raises(SolverError) as exc:
        implicit_step(prob, u)
    assert str(exc.value).startswith(
        f"Newton did not converge in {_MAX_ITERS} iterations above the "
        f"rounding floor ")
    assert exc.value.residual == 0.0001474344268152183
    assert len(calls) <= _MAX_ITERS + 3


def _record_searches(monkeypatch) -> list:
    """(solve, warm, wide, took, columns) of each line search of pme: the
    number of its Newton run, whether that run started warm, whether the
    search's first block was full width, whether it took theta = 1 in
    every column, and its live columns."""
    searches, warm = [], []
    search, newton = pme._line_search, pme._newton_solve

    def solving(model):
        warm.append(model.v_prev is not None)
        return newton(model)

    def searching(model, d, it, target, wide):
        out = search(model, d, it, target, wide)
        searches.append((len(warm), warm[-1], wide, bool(out[2]),
                         it[0].shape[1]))
        return out
    monkeypatch.setattr(pme, "_newton_solve", solving)
    monkeypatch.setattr(pme, "_line_search", searching)
    return searches


@pytest.mark.parametrize("grid, alpha, m, tau", [((2, 2, 2), 0.5, 4.0, 10.0),
                                                 ((3, 2, 1), 2.0, 3.0, 10.0)])
def test_block_first_searches_keep_the_bits_of_the_sequential_search(
        monkeypatch, grid, alpha, m, tau):
    """From the domain of the block-width test above: a 4-step warm evolve
    of signed data, a batch of three columns with their own epsilon and
    the same batch with a refusing point datum of size 1e-6 in column 0.
    Their searches alternate between taking theta = 1 and rejecting it, so
    a search after a rejection tries theta = 1 in a full-width block, on
    warm-started steps and with several columns live too.  At the default
    width and at one trial per block (_BLOCK_CELLS = 1) they give the same
    bits, iteration counts and refusals."""
    p, N, M = grid
    config = dict(p=p, alpha=alpha, N=N, M=M, m=m, tau=tau, t_end=4 * tau)
    dim = p ** (N + M)
    rng = np.random.default_rng(1)
    u = _step_data(rng, "signed", dim)
    columns = (("signed", 1.0, 0.0), ("gapped", 1.0, 2.0),
               ("signed", 1e6, 0.01))
    f = np.column_stack([scale * _step_data(rng, kind, dim)
                         for kind, scale, _ in columns])
    eps = np.array([e for *_, e in columns])
    refusing = f.copy()
    refusing[:, 0] = 1e-6 * _step_data(rng, "point", dim)

    def outcomes():
        out = evolve(PMEProblem(**config), u)
        prob = PMEProblem(**config)
        return ([_sha(x) for x in out.snapshots],
                out.diagnostics["newton_iterations"],
                out.diagnostics["residual"],
                _outcome(lambda: stationary_solve(prob, f, eps, tau)),
                _outcome(lambda: stationary_solve(prob, refusing, eps, tau)))

    with pytest.MonkeyPatch.context() as mp:
        searches = _record_searches(mp)
        wide = outcomes()
    assert wide[4][0].startswith("column 0: Newton did not converge")
    # a search is wide exactly after one of its solve that rejected theta = 1
    for before, (solve, _, w, _, _) in zip([None] + searches, searches):
        assert w == (before is not None and before[0] == solve
                     and not before[3])
    # a wide first block that took theta = 1, on a warm step and on a batch
    assert any(w and took and warm for _, warm, w, took, _ in searches)
    assert any(w and took and k > 1 for *_, w, took, k in searches)
    # and a search after one that took theta = 1 that rejected it
    assert any(a[0] == b[0] and a[3] and not b[3]
               for a, b in zip(searches, searches[1:]))
    monkeypatch.setattr(pme, "_BLOCK_CELLS", 1)
    assert outcomes() == wide


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "ROADMAP item 3b: Newton converges only linearly on small data at "
    "m = 3 and ends 80 iterations above its absolute target"))
def test_a_small_point_datum_at_m3_solves():
    """(2, 2, 2), alpha = 0.5, tau = 0.1: a point datum of size 1e-3 ends
    in "Newton did not converge in 80 iterations" with residual 6.5e-11
    against a target of 1e-12, where its rounding floor is 6.2e-18."""
    prob = PMEProblem(p=2, alpha=0.5, N=2, M=2, m=3.0, tau=0.1, t_end=0.1)
    u = np.zeros(prob.grid.dim)
    u[0] = 1e-3
    _, res = implicit_step(prob, u)
    assert res.residual <= _NEWTON_TOL


@pytest.mark.parametrize("rungs", [1, 2])
def test_a_line_search_that_exhausts_its_ladder_stalls(monkeypatch, rungs):
    """The (2, 2, 2), m = 3 point datum of size 1e-3 above rejects every
    rung of a ladder cut to one or two thetas, and so stalls above its
    rounding floor, alone and as column 1 of a batch whose constant and
    zero columns solve; the batch names it with its solo message and
    residual.  On the full ladder it runs out of iterations instead."""
    def outcome(u):
        prob = PMEProblem(p=2, alpha=0.5, N=2, M=2, m=3.0, tau=0.1,
                          t_end=0.1)
        return _outcome(lambda: implicit_step(prob, u)[1])

    n = 16
    point = np.zeros(n)
    point[0] = 1e-3
    batch = np.column_stack([np.ones(n), point, np.zeros(n)])
    assert outcome(point)[0].startswith(
        f"Newton did not converge in {_MAX_ITERS} iterations ")
    monkeypatch.setattr(pme, "_LADDER", rungs)
    monkeypatch.setattr(pme, "_THETA", np.ldexp(1.0, -np.arange(rungs)))
    message, residual, column = outcome(point)
    assert message.startswith(
        "Newton line search stalled above the rounding floor ")
    assert column is None
    assert outcome(batch) == (f"column 1: {message}", residual, 1)


@pytest.mark.parametrize("p, N, M", [(5, 2, 3), (2, 6, 6)])
def test_a_stall_inside_a_block_leaves_as_in_sequence(p, N, M):
    """m = 3 radial powers on dims 3125 and 4096 stall at the rounding
    floor, where a late trial rounds back to v.  Blocks of many trials
    (a cap of 2^16 cells) meet that trial inside a block; one vector and
    a batch of four still give the bits of the sequential search."""
    prob = _problem(p=p, N=N, M=M, m=3.0, alpha=2.0, tau=0.1, t_end=0.1)
    u = np.column_stack([
        scale * build_initial(prob.grid, {"kind": "radial_power",
                                          "exponent": e})
        for e, scale in ((1.0, 1.0), (2.0, 1.0), (2.0, 0.1), (0.5, 3.0))])
    calls = [lambda: implicit_step(prob, u)[1]]
    calls += [lambda j=j: implicit_step(prob, u[:, j].copy())[1]
              for j in range(u.shape[1])]
    outcomes = []
    for cells in (1, 2**16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pme, "_BLOCK_CELLS", cells)
            outcomes.append([_outcome(call) for call in calls])
    assert outcomes[0] == outcomes[1]
    assert all(len(o) == 5 for o in outcomes[0])  # none refused


def _cold_loop(prob, u0, steps):
    """The snapshots, iterations and residuals of steps implicit steps,
    each started cold (the problem forgets its last solve), or the
    SolverError that one of them raises."""
    u, snaps, its, residuals = u0, [u0], [], []
    try:
        for _ in range(steps):
            prob._last_solve = None
            u, res = implicit_step(prob, u)
            snaps.append(u)
            its.append(res.iterations)
            residuals.append(res.residual)
    except SolverError as exc:
        return exc
    return snaps, its, residuals


def _evolve_data(grid, kind, rng) -> np.ndarray:
    """_step_data, or the indicator of B_0, or |x|."""
    if kind == "indicator":
        return build_initial(grid, {"kind": kind, "radius_exp": 0})
    if kind == "radial_power":
        return build_initial(grid, {"kind": kind, "exponent": 1.0})
    return _step_data(rng, kind, grid.dim)


def _record_starts(monkeypatch) -> list:
    """The v_prev that each later Newton run of pme starts from, in the
    model's column form: (n, 1) for a vector."""
    starts = []
    newton = pme._newton_solve

    def recording(model):
        starts.append(None if model.v_prev is None else model.v_prev.copy())
        return newton(model)
    monkeypatch.setattr(pme, "_newton_solve", recording)
    return starts


def test_a_step_from_the_last_steps_output_starts_from_its_v(monkeypatch):
    """A solve whose f has the bits of the last solve's w on the same
    problem, epsilon and operator scale starts from that solve's v; a
    first solve, a changed or differently scaled f, an f changed in place
    and a new problem start cold.  A batch of steps keeps, column by
    column, the bits of each column's own chain of steps."""
    starts = _record_starts(monkeypatch)
    prob = _problem(m=3.0)
    u0 = _step_data(np.random.default_rng(3), "gapped", prob.grid.dim)
    u1, r1 = implicit_step(prob, u0)
    u2, _ = implicit_step(prob, u1)
    assert starts[0] is None and _sha(starts[1]) == _sha(r1.v)
    stepped = u2.copy()
    w, _ = implicit_step(prob, u1 + 1e-9)   # other bits
    w = stationary_solve(prob, w, 0.0, 2 * prob.tau).w   # other scale
    stationary_solve(prob, w, 0.5, 2 * prob.tau)   # other epsilon
    implicit_step(replace(prob), u1)   # other problem
    assert [s is None for s in starts[2:]] == [True, True, True, True]
    implicit_step(prob, u0)
    again, _ = implicit_step(prob, u1)   # u1 is the last w again: warm
    assert _sha(again) == _sha(stepped)
    again[0] += 1.0   # the caller changes the returned u: cold
    implicit_step(prob, again)
    assert starts[-3] is None and starts[-2] is not None
    assert starts[-1] is None

    batch = np.column_stack([u0, 0.5 * u0, np.zeros_like(u0)])
    fresh = replace(prob)
    chain = [implicit_step(fresh, batch)[0]]
    chain.append(implicit_step(fresh, chain[0])[0])
    for j in range(batch.shape[1]):
        alone = replace(prob)
        a1, _ = implicit_step(alone, batch[:, j].copy())
        a2, _ = implicit_step(alone, a1)
        assert _sha(chain[0][:, j]) == _sha(a1)
        assert _sha(chain[1][:, j]) == _sha(a2)


@pytest.mark.parametrize("p, N, M", [(2, 2, 3), (3, 2, 2), (5, 1, 2)])
def test_linear_evolve_keeps_the_bits_of_cold_steps(p, N, M):
    """At m = 1, beta' = 1 and beta(v) - v = +0 exactly, so the start
    linearized around the previous v is the cold start: every snapshot of
    evolve has the sha256 of a loop of cold implicit steps."""
    prob = _problem(p=p, N=N, M=M, m=1.0, alpha=1.5, tau=0.1, t_end=0.5)
    u0 = _step_data(np.random.default_rng(p), "signed", prob.grid.dim)
    snaps, its, _ = _cold_loop(prob, u0, 5)
    out = evolve(replace(prob), u0)
    assert [_sha(u) for u in out.snapshots] == [_sha(u) for u in snaps]
    assert out.diagnostics["newton_iterations"] == its


@pytest.mark.parametrize("kind", ["indicator", "signed", "gapped",
                                  "radial_power"])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 4.0])
def test_warm_started_evolve_matches_cold_steps_in_fewer_iterations(m, kind):
    """From step 2 on, evolve starts Newton at beta linearized around the
    previous v.  Over grids of dims 64-125, tau in {0.05, 1} and data of
    size 1 and 1e-3, it refuses only where the cold loop refuses too (small
    data at m >= 3, ROADMAP item 3b), never takes more iterations in a
    run and takes fewer over all of them.  Both runs solve each step to a
    residual r, and the resolvent is an L-infinity contraction, so step n's
    snapshots differ by at most the sum over steps k <= n of
    2 (r_warm,k + r_cold,k).  That bound, not the Newton target, is what
    the two runs can be held to: it grows with the steps, and runs that
    stop at their rounding floor exceed the target."""
    totals = np.zeros(2, int)  # warm and cold iterations of the cases
    for c, (p, N, M, alpha, tau) in enumerate(((2, 3, 3, 0.5, 0.05),
                                               (3, 2, 2, 1.0, 1.0),
                                               (5, 1, 2, 2.0, 0.05))):
        prob = PMEProblem(p=p, alpha=alpha, N=N, M=M, m=m, tau=tau,
                          t_end=6 * tau)
        base = _evolve_data(prob.grid, kind, np.random.default_rng(c))
        for scale in (1.0, 1e-3):
            cold = _cold_loop(prob, scale * base, 6)
            try:
                out = evolve(prob, scale * base)
            except SolverError:
                assert isinstance(cold, SolverError)
                continue
            if isinstance(cold, SolverError):
                continue
            snaps, its, residuals = cold
            warm_its = sum(out.diagnostics["newton_iterations"])
            assert warm_its <= sum(its)
            totals += warm_its, sum(its)
            bound = 0.0
            for n, (r_cold, r_warm) in enumerate(
                    zip(residuals, out.diagnostics["residual"]), 1):
                bound += 2 * (r_cold + r_warm)
                assert np.max(np.abs(out.snapshots[n] - snaps[n])) <= bound
    assert totals[0] < totals[1]


def test_a_warm_start_at_exact_zeros_converges_without_warnings():
    """Indicator data at m = 3, started from v_prev = phi(u0), which is
    exactly 0 off B_0, where beta' is +inf.  The start clips beta' there
    as the Newton loop does, so the step converges with no RuntimeWarning
    and matches the cold step within their residuals; a batch keeps the
    bits of its columns' solo steps.  (Within evolve such zeros are rare:
    one step leaves v near 1e-15 off B_0, so the v_prev is seeded here.)"""
    prob = PMEProblem(p=3, alpha=1.0, N=2, M=2, m=3.0, tau=0.05, t_end=0.05)
    u0 = build_initial(prob.grid, {"kind": "indicator", "radius_exp": 0})
    v_prev = u0 ** 3
    assert np.count_nonzero(v_prev == 0) > prob.grid.dim // 2

    def warm(f, v):
        prob._last_solve = (f.copy(), np.array(0.0), prob.tau, v)
        return implicit_step(prob, f)

    cold_next, cold = implicit_step(replace(prob), u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u_next, res = warm(u0, v_prev)
    assert res.residual <= _NEWTON_TOL
    assert (np.max(np.abs(u_next - cold_next))
            <= 2 * (res.residual + cold.residual))
    batch = np.column_stack([u0, 0.5 * u0])
    starts = np.column_stack([v_prev, res.v])
    batch_next, _ = warm(batch, starts)
    for j in range(2):
        alone, _ = warm(batch[:, j].copy(), starts[:, j].copy())
        assert _sha(batch_next[:, j]) == _sha(alone)


@pytest.mark.parametrize("cfg", [[], "p = 2", None, 2,
                                 [("p", 2), ("alpha", 2.0)]])
def test_from_config_refuses_a_non_object(cfg):
    with pytest.raises(DomainError, match="config must be a JSON object"):
        PMEProblem.from_config(cfg)
