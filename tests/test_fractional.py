from fractions import Fraction

import numpy as np
import pytest

from padicpme.errors import DomainError, ResourceError, SolverError
from padicpme.fractional import (LevelOperator, OperatorParams,
                                 apply_radial_power, apply_testfunction_at,
                                 apply_to_indicator, ball_levels, ball_matrix,
                                 ball_spectrum, evaluate_indicator_image,
                                 exterior_constant, hypersingular_quadrature,
                                 mass_of_image, restrict_to_ball)
from padicpme.functions import TestFunction
from padicpme.padic import Ball, GridSpec, PAdicExpansion, gamma_p
from padicpme.pme import _BP_CLIP


def _zero(p):
    return PAdicExpansion.zero(p)


def test_params_domain():
    with pytest.raises(DomainError):
        OperatorParams(2, 0.0)
    with pytest.raises(DomainError):
        OperatorParams(2, -1.0)
    op = OperatorParams(2, 2.0)
    assert op.hypersingular_coefficient == pytest.approx(-24 / 7)


def test_indicator_image_frozen_values():
    """p=2, alpha=2, unit ball: 4/7 inside, -3/7 and -3/56 outside."""
    prof = apply_to_indicator(OperatorParams(2, 2.0), Ball(_zero(2), 0))
    assert prof.value_at_zero.real == pytest.approx(4 / 7, abs=1e-15)
    assert prof.value_at_shell(0).real == pytest.approx(4 / 7, abs=1e-15)
    assert prof.value_at_shell(1).real == pytest.approx(-3 / 7, abs=1e-15)
    assert prof.value_at_shell(2).real == pytest.approx(-3 / 56, abs=1e-15)
    # far field follows p^l Gamma_p(a+1) |x|^{-a-1}
    assert prof.value_at_shell(5).real == pytest.approx(
        gamma_p(2, 3.0) * 2.0 ** (-15), abs=1e-18)


def test_indicator_image_scales_with_radius():
    """Dilation: the image of 1_{B_l} is p^{-l a} times the rescaled image."""
    p, a, l = 3, 1.5, 2
    prof0 = apply_to_indicator(OperatorParams(p, a), Ball(_zero(p), 0))
    profl = apply_to_indicator(OperatorParams(p, a), Ball(_zero(p), l))
    assert profl.value_at_zero.real == pytest.approx(
        float(p) ** (-l * a) * prof0.value_at_zero.real)
    assert profl.value_at_shell(l + 1).real == pytest.approx(
        float(p) ** (-l * a) * prof0.value_at_shell(1).real)


def test_image_of_shifted_ball_recenters():
    p = 2
    c = PAdicExpansion.from_rational(p, Fraction(1, 2))
    op = OperatorParams(p, 2.0)
    shifted = evaluate_indicator_image(op, Ball(c, 0), Fraction(1, 2))
    centered = evaluate_indicator_image(op, Ball(_zero(p), 0), Fraction(0))
    assert shifted == pytest.approx(centered)


def test_image_mass_cancels():
    assert mass_of_image(OperatorParams(2, 2.0), Ball(_zero(2), 0)) < 1e-14
    assert mass_of_image(OperatorParams(5, 0.7), Ball(_zero(5), -1)) < 1e-14


def test_superposition_linearity():
    op = OperatorParams(2, 2.0)
    b0, b1 = Ball(_zero(2), 0), Ball(_zero(2), 1)
    f = TestFunction(2, ((2.0 + 0j, b0), (-1.0 + 0j, b1)))
    x = Fraction(1, 2)
    direct = apply_testfunction_at(op, f, x)
    parts = (2.0 * evaluate_indicator_image(op, b0, x)
             - 1.0 * evaluate_indicator_image(op, b1, x))
    assert direct == pytest.approx(parts)


def test_radial_power_oracle_and_guards():
    c, expo = apply_radial_power(OperatorParams(2, 2.0), 4.0)
    assert c == pytest.approx(140 / 31, abs=1e-13)
    assert expo == 2.0
    for bad in (-1.0, 2.0, 1.0):  # poles and zero of the gamma quotient
        with pytest.raises(DomainError):
            apply_radial_power(OperatorParams(2, 2.0), bad)


def test_quadrature_certificate_honest():
    op = OperatorParams(2, 2.0)
    f = TestFunction.indicator(Ball(_zero(2), 0))
    for x in (Fraction(0), Fraction(1, 2), Fraction(4)):
        val, tail = hypersingular_quadrature(op, f, x, k_lo=-4, k_hi=12)
        closed = apply_testfunction_at(op, f, x)
        assert abs(val - closed) <= tail + 1e-12


def test_quadrature_node_cap():
    op = OperatorParams(2, 2.0)
    f = TestFunction.indicator(Ball(_zero(2), -4))
    with pytest.raises(ResourceError):
        hypersingular_quadrature(op, f, Fraction(0), k_lo=-4, k_hi=40)


def test_quadrature_callable_needs_metadata():
    op = OperatorParams(2, 2.0)
    with pytest.raises(DomainError):
        hypersingular_quadrature(op, lambda x: 1.0, Fraction(0),
                                 k_lo=0, k_hi=4)


def test_ball_matrix_structure():
    grid = GridSpec(2, 1, 2)
    op = OperatorParams(2, 2.0, grid)
    B = ball_matrix(op)
    m = B.matrix
    assert np.allclose(m, m.T)
    # circulant in i - j mod dim
    for i in range(grid.dim):
        for j in range(grid.dim):
            assert m[i, j] == m[(i + 1) % grid.dim, (j + 1) % grid.dim]
    # off-diagonal entries are negative, diagonal positive
    off = m[~np.eye(grid.dim, dtype=bool)]
    assert np.all(off < 0) and np.all(np.diag(m) > 0)
    assert np.allclose(m.sum(axis=1), B.lam)


# (p, alpha, N, M): dims 8 to 1024, including M < 0 and N = 0
LEVEL_GRIDS = ((2, 2.0, 1, 2), (2, 0.5, 5, 5), (3, 1.5, 2, 3), (3, 0.3, 0, 4),
               (5, 0.7, 2, 2), (5, 2.0, 3, -1))


@pytest.mark.parametrize("p, alpha, N, M", LEVEL_GRIDS)
def test_level_apply_matches_ball_matrix(p, alpha, N, M):
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    B = ball_matrix(op).matrix
    levels = ball_levels(op)
    rng = np.random.default_rng(p * 100 + N)
    for x in (rng.standard_normal(len(B)),
              rng.standard_normal(len(B)) + 1j * rng.standard_normal(len(B))):
        ref = B @ x
        bound = 1e-14 * np.max(np.abs(B).sum(1)) * np.max(np.abs(x))
        assert np.max(np.abs(levels.apply(x) - ref)) <= bound
    assert levels.c + sum(levels.h) == pytest.approx(B[0, 0], rel=1e-14)
    assert all(h < 0 for h in levels.h)
    with pytest.raises(DomainError):
        levels.apply(np.ones(len(B) + 1))


@pytest.mark.parametrize("p, alpha, N, M", LEVEL_GRIDS)
def test_level_dense_and_operators(p, alpha, N, M):
    """dense() is the ball matrix entry by entry; @ applies, a scalar
    scales every weight, and nbytes counts the K + 1 weights."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    B = ball_matrix(op).matrix
    levels = ball_levels(op)
    assert np.max(np.abs(levels.dense() - B)) <= 1e-14 * np.max(np.abs(B))
    x = np.random.default_rng(p).standard_normal(len(B))
    assert np.array_equal(levels @ x, levels.apply(x))
    scaled = 2.5 * levels
    assert scaled.c == 2.5 * levels.c
    assert scaled.h == tuple(2.5 * h for h in levels.h)
    assert levels.nbytes == 8 * (N + M + 1)


# (p, N, M): dims 4 to 625, including N <= 0, M < 0 and p = 5
SPECTRUM_GRIDS = ((2, 1, 2), (2, 3, -1), (2, 4, 4), (3, 0, 3), (3, -1, 3),
                  (5, 1, 1), (5, 2, 2))


@pytest.mark.parametrize("p, N, M", SPECTRUM_GRIDS)
def test_from_gaps_has_the_given_spectrum(p, N, M):
    """The eigenvalues of from_gaps(top, gaps) are mu_0 once and mu_l with
    multiplicity (p - 1) p^{l-1}, for the ball spectrum and for a random
    one, and ball_levels is from_gaps of ball_spectrum."""
    grid = GridSpec(p, N, M)
    op = OperatorParams(p, 1.3, grid)
    K = N + M
    mult = [1] + [(p - 1) * p ** (l - 1) for l in range(1, K + 1)]
    ball = ball_spectrum(op)
    for mu in (ball, np.random.default_rng(p + K).uniform(-1.0, 2.0, K + 1)):
        levels = LevelOperator.from_gaps(grid, mu[-1], mu[:-1] - mu[1:])
        got = np.linalg.eigvalsh(levels.dense())
        want = np.sort(np.repeat(mu, mult))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(mu))
    assert ball_levels(op) == LevelOperator.from_gaps(grid, ball[-1],
                                                      ball[:-1] - ball[1:])


@pytest.mark.parametrize("p, alpha, N, M", LEVEL_GRIDS)
def test_level_solve_matches_dense_solve(p, alpha, N, M):
    """(diag(d) + s A) x = b: the tree solve is backward stable, and its
    forward gap to LU stays within eps times Varah's bound on the condition
    number, ||J||_inf / min_i(d_i + s lam), of the diagonally dominant J."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    dense = ball_matrix(op)
    B, lam = dense.matrix, dense.lam
    levels = ball_levels(op)
    n = len(B)
    rng = np.random.default_rng(p * 100 + N)
    for scale in (0.0, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e16, _BP_CLIP):
        for eps, s in ((0.0, 1.0), (1e-3, 0.05), (0.5, 1e3), (1.0, 0.0)):
            d = eps + scale * rng.uniform(0.0, 1.0, n)
            J = np.diag(d) + s * B
            b = rng.standard_normal(n)
            x = levels.solve(d, b, s)
            norm_j = np.max(np.abs(J).sum(1))
            backward = np.max(np.abs(J @ x - b)) / (norm_j * np.max(np.abs(x)))
            assert backward <= 1e-14, (scale, eps, s)
            ref = np.linalg.solve(J, b)
            kappa = norm_j / np.min(d + s * lam)
            gap = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
            assert gap <= 1e-14 * max(1.0, kappa), (scale, eps, s)


def test_level_solve_rejects_bad_pivots():
    levels = ball_levels(OperatorParams(3, 1.5, GridSpec(3, 1, 2)))
    b = np.ones(27)
    with pytest.raises(SolverError):
        levels.solve(0.0, b, 0.0)                # zero diagonal
    with pytest.raises(SolverError):
        levels.solve(-2.0 * levels.c, b, 1.0)    # negative leaf pivot
    with pytest.raises(SolverError):
        levels.solve(np.inf, b, 1.0)             # infinite leaf pivot
    d = np.full(27, -0.9 * levels.c)  # leaves pass, a class pivot fails
    with pytest.raises(SolverError):
        levels.solve(d, b, 1.0)


def test_restrict_to_ball():
    p = 2
    psi = TestFunction.indicator(Ball(_zero(p), 2))
    inner = restrict_to_ball(psi, Ball(_zero(p), 0))
    assert inner.canonicalize() == TestFunction.indicator(
        Ball(_zero(p), 0)).canonicalize()
    # support wholly outside the ball restricts to zero
    far = TestFunction.indicator(
        Ball(PAdicExpansion.from_rational(p, Fraction(1, 4)), -2))
    assert restrict_to_ball(far, Ball(_zero(p), 0)).canonicalize().terms == ()


def test_exterior_constant_hand_values():
    """At p=2, alpha=2, N=0 the exterior parts of wide indicators reduce to
    geometric sums with known closed forms."""
    op = OperatorParams(2, 2.0, GridSpec(2, 0, 2))
    ball_N = Ball(_zero(2), 0)
    psi1 = TestFunction.indicator(Ball(_zero(2), 1))
    r1 = exterior_constant(op, psi1 - restrict_to_ball(psi1, ball_N), 0)
    assert r1.real == pytest.approx(-3 / 7, abs=1e-15)
    psi2 = TestFunction.indicator(Ball(_zero(2), 2))
    r2 = exterior_constant(op, psi2 - restrict_to_ball(psi2, ball_N), 0)
    assert r2.real == pytest.approx(-15 / 28, abs=1e-15)
