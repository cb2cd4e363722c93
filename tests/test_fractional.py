from fractions import Fraction

import numpy as np
import pytest

from padicpme.errors import DomainError, ResourceError, SolverError
from padicpme.fractional import (DENSE_GRID_CAP, LevelOperator,
                                 OperatorParams, apply_radial_power,
                                 apply_testfunction_at, apply_to_indicator,
                                 ball_eigenvalue_floor, ball_levels, ball_matrix, ball_spectrum,
                                 exterior_constant, hypersingular_quadrature,
                                 mass_of_image, restrict_to_ball)
from padicpme.functions import TestFunction, to_grid
from padicpme.padic import Ball, GridSpec, gamma_p, int_valuation
from padicpme.pme import _BP_CLIP


def test_params_domain():
    with pytest.raises(DomainError):
        OperatorParams(2, 0.0)
    with pytest.raises(DomainError):
        OperatorParams(2, -1.0)
    op = OperatorParams(2, 2.0)
    assert op.hypersingular_coefficient == pytest.approx(-24 / 7)


def test_indicator_image_frozen_values():
    """p=2, alpha=2, unit ball: 4/7 inside, -3/7 and -3/56 outside."""
    prof = apply_to_indicator(OperatorParams(2, 2.0), Ball(2, 0, 0))
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
    prof0 = apply_to_indicator(OperatorParams(p, a), Ball(p, 0, 0))
    profl = apply_to_indicator(OperatorParams(p, a), Ball(p, 0, l))
    assert profl.value_at_zero.real == pytest.approx(
        float(p) ** (-l * a) * prof0.value_at_zero.real)
    assert profl.value_at_shell(l + 1).real == pytest.approx(
        float(p) ** (-l * a) * prof0.value_at_shell(1).real)


def test_image_of_shifted_ball_recenters():
    p = 2
    c = Fraction(1, 2)
    op = OperatorParams(p, 2.0)
    shifted = apply_testfunction_at(op, TestFunction.indicator(Ball(p, c, 0)),
                                    Fraction(1, 2))
    centered = apply_testfunction_at(
        op, TestFunction.indicator(Ball(p, 0, 0)), Fraction(0))
    assert shifted == pytest.approx(centered)


def test_image_mass_cancels():
    assert mass_of_image(OperatorParams(2, 2.0), Ball(2, 0, 0)) < 1e-14
    assert mass_of_image(OperatorParams(5, 0.7), Ball(5, 0, -1)) < 1e-14


def test_superposition_linearity():
    op = OperatorParams(2, 2.0)
    b0, b1 = Ball(2, 0, 0), Ball(2, 0, 1)
    f = TestFunction(2, ((2.0 + 0j, b0), (-1.0 + 0j, b1)))
    x = Fraction(1, 2)
    direct = apply_testfunction_at(op, f, x)
    parts = (2.0 * apply_testfunction_at(op, TestFunction.indicator(b0), x)
             - 1.0 * apply_testfunction_at(op, TestFunction.indicator(b1), x))
    assert direct == pytest.approx(parts)


def test_radial_power_oracle_and_guards():
    c, expo = apply_radial_power(OperatorParams(2, 2.0), 4.0)
    assert c == pytest.approx(140 / 31, abs=1e-13)
    assert expo == 2.0
    for bad in (-1.0, 2.0, 1.0):  # poles and zero of the gamma quotient
        with pytest.raises(DomainError):
            apply_radial_power(OperatorParams(2, 2.0), bad)


_QUADRATURE_POINTS = tuple(Fraction(q) for q in ("0", "1/2", "4", "1/3", "2/7"))


def test_quadrature_certificate_honest():
    op = OperatorParams(2, 2.0)
    f = TestFunction.indicator(Ball(2, 0, 0))
    for x in _QUADRATURE_POINTS:
        val, tail = hypersingular_quadrature(op, f, x, k_hi=12)
        closed = apply_testfunction_at(op, f, x)
        assert abs(val - closed) <= tail + 1e-12


def test_quadrature_node_cap():
    """k_hi = 40 asks for a sample of 2^44 cosets: its grid's 2^20-cell
    cap refuses it before anything is allocated."""
    op = OperatorParams(2, 2.0)
    f = TestFunction.indicator(Ball(2, 0, -4))
    with pytest.raises(ResourceError):
        hypersingular_quadrature(op, f, Fraction(0), k_hi=40)


def test_quadrature_spans_wide_and_fine_terms():
    """A term 2^18 times wider than the constancy radius: 1_{B(0, 2^10)}
    - 1_{B(1/4, 2^-8)} at x = 1/4 samples 2^16 cosets, term by term, and
    stays within its certificate of the closed form."""
    op = OperatorParams(2, 2.0)
    f = (TestFunction.indicator(Ball(2, 0, 10))
         - TestFunction.indicator(Ball(2, Fraction(1, 4), -8)))
    x = Fraction(1, 4)
    val, tail = hypersingular_quadrature(op, f, x, k_hi=8)
    closed = apply_testfunction_at(op, f, x)
    assert abs(closed + 37449.142857) < 1e-5
    assert abs(val - closed) <= tail < 2e-5


def _quadrature_oracle(op, f, x, k_hi):
    """The shell sum node by node: one exact f(x - y) per coset y + B_c of
    each shell k in [c + 1, k_hi], c the constancy exponent."""
    p, a = op.p, op.alpha
    c = f.constancy_radius_exp()
    fx = f.value_at(x)
    total = 0j
    for k in range(c + 1, k_hi + 1):
        ys = (Fraction(m) / Fraction(p) ** k
              for m in range(1, p ** (k - c)) if m % p)
        shell = sum(f.value_at(x - y) - fx for y in ys)
        total += float(p) ** (-k * (a + 1) + c) * shell
    return op.hypersingular_coefficient * total


@pytest.mark.parametrize("p, alpha, k_hi", [
    (2, 2.0, 6), (2, 0.7, 3), (3, 1.3, 4), (3, 2.5, 2)])
def test_quadrature_matches_exact_node_sum(p, alpha, k_hi):
    op = OperatorParams(p, alpha)
    at = lambda q, l: Ball(p, q, l)
    f = TestFunction(p, (  # overlapping raw terms, complex coefficients
        (1.0 - 0.5j, at(0, 1)),
        (-2.0 + 0j, at(0, -1)),
        (0.25j, at(Fraction(1, p), -1)),
        (0.75 + 1j, at(Fraction(1, p), -2)),
        (-1.5 + 0j, at(4, 0)),
    ))
    for x in _QUADRATURE_POINTS:
        val, _ = hypersingular_quadrature(op, f, x, k_hi=k_hi)
        ref = _quadrature_oracle(op, f, x, k_hi)
        assert abs(val - ref) <= 1e-15 * abs(ref), (x, val, ref)


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


@pytest.mark.parametrize("p, alpha, N, M", [
    (2, 2.0, 1, 2), (2, 0.5, 3, 3), (2, 3.0, 0, 1), (3, 1.5, 2, 2),
    (3, 0.3, 0, 4), (5, 0.7, 2, 1), (5, 2.0, 3, -1), (7, 1.0, 1, 1),
    (7, 0.5, -1, 3)])
def test_ball_matrix_entries_bit_for_bit(p, alpha, N, M):
    """Every entry has the bits of its closed form, evaluated here one
    entry at a time: the inside value of the coset-indicator image on the
    diagonal, and p^-M Gamma_p(alpha + 1) p^{-k (alpha + 1)} where
    |x_i - x_j| = p^k with k = N - v_p(i - j)."""
    grid = GridSpec(p, N, M)
    B = ball_matrix(OperatorParams(p, alpha, grid)).matrix
    gp = gamma_p(p, alpha + 1.0)
    for i in range(grid.dim):
        for j in range(grid.dim):
            if i == j:
                ref = (float(p) ** (M * alpha) * (1 - 1 / p)
                       / (1 - float(p) ** (-alpha - 1)))
            else:
                k = N - int_valuation(i - j, p)
                ref = float(p) ** (-M) * gp * float(p) ** (-k * (alpha + 1))
            assert B[i, j] == ref, (i, j)


def test_ball_eigenvalue_floor_refuses_a_nonpositive_alpha():
    for alpha in (0.0, -1.0):
        with pytest.raises(DomainError, match="alpha must be positive"):
            ball_eigenvalue_floor(2, alpha, 1)


def test_dense_oracles_refuse_past_the_dense_cap():
    """dim 8192 is a valid grid, but an n x n matrix there would take
    512 MB: both dense oracles refuse before they allocate."""
    op = OperatorParams(2, 2.0, GridSpec(2, 7, 6))
    assert op.grid.dim == 2 * DENSE_GRID_CAP
    with pytest.raises(ResourceError):
        ball_matrix(op)
    levels = ball_levels(op)
    with pytest.raises(ResourceError):
        levels.dense()
    x = np.ones(op.grid.dim)  # the level form still applies there
    assert np.allclose(levels @ x, ball_spectrum(op)[0])


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
    """dense() is the ball matrix entry by entry; @ applies, and nbytes
    counts the K + 1 weights."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    B = ball_matrix(op).matrix
    levels = ball_levels(op)
    assert np.max(np.abs(levels.dense() - B)) <= 1e-14 * np.max(np.abs(B))
    x = np.random.default_rng(p).standard_normal(len(B))
    assert np.array_equal(levels @ x, levels.apply(x))
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
    with pytest.raises(SolverError):
        levels.solve(np.nan, b, 1.0)             # NaN leaf pivot
    one_nan = np.ones(27)
    one_nan[13] = np.nan
    with pytest.raises(SolverError):
        levels.solve(one_nan, b, 1.0)            # one NaN leaf pivot
    d = np.full(27, -0.9 * levels.c)  # leaves pass, a class pivot fails
    with pytest.raises(SolverError):
        levels.solve(d, b, 1.0)
    for L in (0, 2):                  # NaN class pivots, top and bottom
        h = list(levels.h)
        h[L] = np.nan
        with pytest.raises(SolverError):
            LevelOperator(levels.grid, levels.c, tuple(h)).solve(1.0, b, 1.0)


# (p, N, M): p = 11 and 13 sum their top fold as one run of more than 8
COLUMN_GRIDS = ((2, 1, 2), (3, 2, 1), (5, 1, 1), (11, 0, 1), (13, 1, 1))


@pytest.mark.parametrize("p, N, M", COLUMN_GRIDS)
def test_level_columns_are_bit_identical_to_single_vectors(p, N, M):
    """apply on (dim, k) data, and solve with a scalar, a (k,) or a
    (dim, k) diagonal, treat each column as its own vector, bit for bit."""
    levels = ball_levels(OperatorParams(p, 1.5, GridSpec(p, N, M)))
    n, k = levels.grid.dim, 4
    rng = np.random.default_rng(p + N)
    x = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 7, (n, k))
    z = x + 1j * rng.standard_normal((n, k))
    per_column = rng.uniform(0.0, 2.0, k)
    per_cell = rng.uniform(0.0, 2.0, (n, k))
    cases = (
        (levels.apply(x), lambda j: levels.apply(x[:, j].copy())),
        (levels.apply(z), lambda j: levels.apply(z[:, j].copy())),
        (levels.solve(0.3, x, 0.7),
         lambda j: levels.solve(0.3, x[:, j].copy(), 0.7)),
        (levels.solve(per_column, x, 0.7),
         lambda j: levels.solve(per_column[j], x[:, j].copy(), 0.7)),
        (levels.solve(per_cell, x, 0.7),
         lambda j: levels.solve(per_cell[:, j].copy(), x[:, j].copy(), 0.7)),
    )
    for batch, alone in cases:
        assert batch.shape == x.shape
        for j in range(k):
            assert batch[:, j].tobytes() == alone(j).tobytes()


def test_level_operator_refuses_a_wrong_leading_dimension():
    levels = ball_levels(OperatorParams(2, 1.5, GridSpec(2, 1, 2)))
    for shape in ((9,), (9, 2), (2, 8), (8, 2, 2), (8, 0), ()):
        x = np.ones(shape)
        with pytest.raises(DomainError):
            levels.apply(x)
        with pytest.raises(DomainError):
            levels.solve(1.0, x, 1.0)


def test_level_solve_names_the_column_of_a_bad_pivot():
    """A batch fails as a whole; the error names the first column with a
    bad leaf or class pivot, and one vector's message stays as it was."""
    levels = ball_levels(OperatorParams(3, 1.5, GridSpec(3, 1, 2)))
    b = np.ones((27, 4))
    leaf = np.array([1.0, 1.0, -2.0 * levels.c, 1.0])
    two_nan = np.ones((27, 4))
    two_nan[0, 3] = two_nan[5, 1] = np.nan
    classes = np.array([1.0, -0.9 * levels.c, 1.0, -0.9 * levels.c])
    for d, column in ((leaf, 2), (two_nan, 1), (classes, 1)):
        with pytest.raises(SolverError) as exc:
            levels.solve(d, b, 1.0)
        assert exc.value.column == column
        assert str(exc.value) == f"column {column}: {exc.value.reason}"
    with pytest.raises(SolverError) as exc:
        levels.solve(-2.0 * levels.c, np.ones(27), 1.0)
    assert exc.value.column is None
    assert str(exc.value) == ("level solve hit a non-positive or non-finite "
                              "pivot")


def test_restrict_to_ball():
    """Checked as functions, on one point of each coset of the finest ball
    (radius 1/4) in B(0, 8), which holds every ball here."""
    p = 2
    points = [Fraction(m, 4) for m in range(32)]
    psi = TestFunction.indicator(Ball(p, 0, 2))
    inner = restrict_to_ball(psi, Ball(p, 0, 0))
    unit = TestFunction.indicator(Ball(p, 0, 0))
    assert [inner.value_at(y) for y in points] == [
        unit.value_at(y) for y in points]
    # support wholly outside the ball restricts to zero
    far = TestFunction.indicator(Ball(p, Fraction(1, 4), -2))
    assert not any(restrict_to_ball(far, Ball(p, 0, 0)).value_at(y)
                   for y in points)


@pytest.mark.parametrize("terms", [
    ((1.0, Ball(2, 0, 2)),),
    ((2.0, Ball(2, 0, 1)), (-0.5, Ball(2, 1, -2)),
     (1.5, Ball(2, Fraction(1, 4), 0))),
], ids=["wide", "three_terms"])
def test_boundary_identity_term_by_term(terms):
    """D^alpha psi = B psi_N + R_N(psi - psi_N) on the grid of B_0 at
    M = 2, with psi_N = psi 1_{B_0}.  1_{B_2} sends a center-0 ball wider
    than B_N through exterior_constant; the three-term psi mixes a wide
    ball, one inside B_0 and one in the shell |x| = 4."""
    p, N = 2, 0
    params = OperatorParams(p, 2.0, GridSpec(p, N, 2))
    psi = TestFunction(p, tuple((complex(c), b) for c, b in terms))
    psi_N = restrict_to_ball(psi, Ball(p, 0, N))
    inner = ball_matrix(params).matrix @ to_grid(psi_N, params.grid)
    outer = exterior_constant(params, psi - psi_N, N)
    for i in range(params.grid.dim):
        lhs = apply_testfunction_at(params, psi,
                                    params.grid.representative(i))
        assert abs(lhs - (inner[i] + outer)) <= 1e-12


def test_exterior_constant_hand_values():
    """At p=2, alpha=2, N=0 the exterior parts of wide indicators reduce to
    geometric sums with known closed forms."""
    op = OperatorParams(2, 2.0, GridSpec(2, 0, 2))
    ball_N = Ball(2, 0, 0)
    psi1 = TestFunction.indicator(Ball(2, 0, 1))
    r1 = exterior_constant(op, psi1 - restrict_to_ball(psi1, ball_N), 0)
    assert r1.real == pytest.approx(-3 / 7, abs=1e-15)
    psi2 = TestFunction.indicator(Ball(2, 0, 2))
    r2 = exterior_constant(op, psi2 - restrict_to_ball(psi2, ball_N), 0)
    assert r2.real == pytest.approx(-15 / 28, abs=1e-15)


_NO_GRID = OperatorParams(2, 1.0)
_AT_THREE = TestFunction.indicator(Ball(3, 0, 0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ball_matrix(_NO_GRID),
                 "ball_matrix needs an OperatorParams with a grid",
                 id="ball_matrix-no-grid"),
    pytest.param(lambda: ball_spectrum(_NO_GRID),
                 "ball_spectrum needs an OperatorParams with a grid",
                 id="ball_spectrum-no-grid"),
    pytest.param(lambda: OperatorParams(3, 1.0, GridSpec(2, 1, 1)),
                 "grid prime differs from operator prime",
                 id="OperatorParams-prime"),
    pytest.param(lambda: apply_to_indicator(_NO_GRID, Ball(3, 0, 0)),
                 "ball prime differs from operator prime",
                 id="apply_to_indicator-prime"),
    pytest.param(lambda: exterior_constant(_NO_GRID, _AT_THREE, 0),
                 "prime mismatch", id="exterior_constant-prime"),
    pytest.param(lambda: restrict_to_ball(_AT_THREE, Ball(2, 0, 0)),
                 "prime mismatch", id="restrict_to_ball-prime"),
])
def test_fractional_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_quadrature_of_cancelling_terms_is_exactly_zero():
    """Terms that cancel make f = 0: its sup is exactly 0, so the
    quadrature returns (0j, 0.0) without summing a shell."""
    one = TestFunction.indicator(Ball(2, Fraction(1, 2), -1), 1.5)
    f = one + one.scale(-1.0)
    assert hypersingular_quadrature(OperatorParams(2, 1.0), f, Fraction(0),
                                    k_hi=8) == (0j, 0.0)
