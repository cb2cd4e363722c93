import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicpme.errors import DomainError
from padicpme.fractional import OperatorParams, ball_matrix
from padicpme.functions import GridFunction, TestFunction
from padicpme.heat import (KernelParams, ball_c_coefficient,
                           ball_integral_of_Z, ball_kernel_ZN,
                           ball_semigroup_expm, ball_semigroup_matrix,
                           coeff_ck, green_kernel_value,
                           green_profile, green_tail_constant,
                           green_zero_value, kernel_Z, kernel_Z_alternating,
                           kernel_Z_profile, kernel_Z_shell_series,
                           kernel_mass_estimate, linear_split_bound,
                           resolvent_apply,
                           semigroup_matrix, semigroup_on_indicator,
                           smoothness_modulus)
from padicpme.padic import (LEVEL_GRID_CAP, Ball, GridSpec, PAdicExpansion,
                            int_valuation)


def test_params_domain():
    with pytest.raises(DomainError):
        KernelParams(2, 2.0, -0.5)
    with pytest.raises(DomainError):
        KernelParams(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        KernelParams(4, 2.0, 1.0)
    with pytest.raises(DomainError):
        kernel_Z(KernelParams(2, 2.0, 0.0), 0)


def test_alternating_series_rejects_large_argument():
    # z = t p^{alpha(1 - shell)} = 2^8 at shell -3
    with pytest.raises(DomainError):
        kernel_Z_alternating(KernelParams(2, 2.0, 1.0), -3)
    with pytest.raises(DomainError):
        kernel_Z_alternating(KernelParams(2, 2.0, 1.0), None)


def test_series_and_alternating_agree():
    for p, a, t, j in ((2, 2.0, 1.0, 1), (3, 1.5, 0.25, 0), (2, 0.8, 2.0, 3)):
        params = KernelParams(p, a, t)
        ev_s = kernel_Z_shell_series(params, j)
        ev_a = kernel_Z_alternating(params, j)
        assert abs(ev_s.value - ev_a.value) <= (
            ev_s.truncation_bound + ev_a.truncation_bound + 1e-15)


def test_coeff_ck_oracle_and_sign():
    params = KernelParams(2, 2.0, 1.0)
    assert coeff_ck(params, 0) == pytest.approx(
        math.exp(-1.0) - math.exp(-4.0), rel=1e-14)
    for k in range(-30, 10):
        assert coeff_ck(params, k) >= 0.0
    # underflow guard: enormous exponents give exactly 0
    assert coeff_ck(KernelParams(2, 2.0, 1.0), 2000) == 0.0


def test_linear_split_certificate():
    for p, a, k in ((2, 2.0, 3), (3, 1.5, 7)):
        slope, quad = linear_split_bound(p, a, k)
        for t in (1e-3, 0.1, 0.5, 2.0):
            c = coeff_ck(KernelParams(p, a, t), -k)
            assert abs(c - slope * t) <= quad * t * t * (1 + 1e-12)


@settings(max_examples=60)
@given(p=st.sampled_from([2, 3, 5]),
       a=st.floats(0.4, 3.0),
       t=st.floats(1e-3, 5.0),
       j=st.integers(-3, 6))
def test_kernel_scaling_identity(p, a, t, j):
    """Z(t, p^j) = p Z(p^alpha t, p^{j+1}), from substituting xi -> xi/p
    in the oscillatory integral."""
    lhs = kernel_Z_shell_series(KernelParams(p, a, t), j)
    rhs = kernel_Z_shell_series(KernelParams(p, a, t * float(p) ** a), j + 1)
    tol = lhs.truncation_bound + p * rhs.truncation_bound
    assert abs(lhs.value - p * rhs.value) <= tol + 1e-14 * abs(lhs.value) + 1e-18


def test_kernel_positivity_and_mass():
    for p, a, t in ((2, 2.0, 1.0), (3, 1.5, 0.1), (5, 0.6, 4.0)):
        params = KernelParams(p, a, t)
        assert kernel_Z(params, None).value > 0
        for j in range(-6, 8):
            assert kernel_Z(params, j).value > 0
        mass, bound = kernel_mass_estimate(params)
        assert abs(mass - 1.0) <= bound + 1e-10


def test_kernel_profile_matches_pointwise():
    params = KernelParams(2, 2.0, 0.5)
    prof = kernel_Z_profile(params, -4, 6)
    for j in (-4, 0, 3, 6):
        assert prof.value_at_shell(j).real == pytest.approx(
            kernel_Z(params, j).value, rel=1e-12)
    assert prof.value_at_zero.real == pytest.approx(
        kernel_Z(params, None).value, rel=1e-12)
    # far shells decay like |x|^{-alpha-1}
    ratio = prof.value_at_shell(6).real / prof.value_at_shell(5).real
    assert ratio == pytest.approx(2.0 ** (-3), rel=1e-2)


def test_ball_integral_monotone_to_one():
    params = KernelParams(2, 2.0, 1.0)
    vals = [ball_integral_of_Z(params, l)[0] for l in range(-3, 21)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # 1 - integral decays like p^{-l alpha}
    assert vals[-1] == pytest.approx(1.0, abs=1e-11)


def test_semigroup_expansion_mass_accounting():
    """Truncated expansion mass + deficit telescopes to the exact p^l."""
    p, l = 2, 1
    params = KernelParams(p, 2.0, 0.7)
    ball = Ball(PAdicExpansion.zero(p), l)
    for k_max in (l + 2, l + 6, l + 15):
        exp = semigroup_on_indicator(params, ball, k_max=k_max)
        assert exp.k_max == k_max
        mass = exp.function.integral().real
        assert mass + exp.mass_deficit == pytest.approx(float(p) ** l,
                                                        rel=1e-13)
        assert exp.mass_deficit == pytest.approx(
            float(p) ** l * (1 - math.exp(-0.7 * float(p) ** (-k_max * 2.0))),
            rel=1e-12)


def test_semigroup_expansion_value_vs_ball_integral():
    """S(t) 1_{B_0} at the center equals the ball integral of the kernel."""
    params = KernelParams(2, 2.0, 0.3)
    exp = semigroup_on_indicator(params, Ball(PAdicExpansion.zero(2), 0))
    direct, bound = ball_integral_of_Z(params, 0)
    assert abs(exp.function.value_at(Fraction(0)).real - direct) <= (
        exp.pointwise_bound + bound + 1e-14)


def test_semigroup_matrix_positive_and_column_stochastic():
    op = OperatorParams(2, 2.0, GridSpec(2, 1, 2))
    for T in (semigroup_matrix(op, 0.4).dense(),
              ball_semigroup_matrix(op, 0.4).dense(),
              ball_semigroup_expm(op, 0.4)):
        assert np.all(T > -1e-14)
    # the restricted flow conserves mass: columns sum to one
    TN = ball_semigroup_matrix(op, 0.4).dense()
    assert np.allclose(TN.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(TN, ball_semigroup_expm(op, 0.4), atol=1e-9)


def _semigroup_gather(op, t):
    """Reference: the dense S(t) matrix gathered entry by entry from the
    certified kernel, p^{-M} Z(t, |x_i - x_j|) off the diagonal and the
    ball integral on it."""
    kp = KernelParams(op.p, op.alpha, t)
    p, N, M, dim = op.p, op.grid.N, op.grid.M, op.grid.dim
    w = np.empty(dim)
    w[0], _ = ball_integral_of_Z(kp, -M)
    for d in range(1, dim):
        w[d] = float(p) ** (-M) * kernel_Z(kp, N - int_valuation(d, p)).value
    idx = (np.arange(dim)[:, None] - np.arange(dim)[None, :]) % dim
    return w[idx]


def _ball_semigroup_gather(op, t):
    kp = KernelParams(op.p, op.alpha, t, N=op.grid.N)
    c, _ = ball_c_coefficient(kp)
    return (math.exp(kp.lam * t) * _semigroup_gather(op, t)
            + c * float(op.grid.coset_measure))


# (p, alpha, N, M): dims 4 to 1024, including N <= 0 and M < 0
SEMIGROUP_GRIDS = ((2, 2.0, 1, 2), (2, 0.5, 5, 5), (3, 1.5, 3, 3),
                   (3, 1.2, -1, 3), (5, 0.7, 2, 2), (5, 2.0, 1, 2),
                   (2, 2.0, 3, -1))


@pytest.mark.parametrize("p, alpha, N, M", SEMIGROUP_GRIDS)
@pytest.mark.parametrize("t", [0.125, 1.0])
def test_semigroup_levels_match_dense_oracles(p, alpha, N, M, t):
    """The level forms equal the entry-by-entry gather, and the ball
    semigroup equals expm of the dense generator."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    S, T = semigroup_matrix(op, t), ball_semigroup_matrix(op, t)
    for got, ref in ((S, _semigroup_gather(op, t)),
                     (T, _ball_semigroup_gather(op, t))):
        dense = got.dense()
        assert np.max(np.abs(dense - ref)) <= 1e-14 * np.max(np.abs(ref))
        x = np.random.default_rng(p + N).standard_normal(len(ref))
        assert np.max(np.abs(got @ x - ref @ x)) <= 1e-14 * np.sum(np.abs(x))
    assert np.max(np.abs(T.dense() - ball_semigroup_expm(op, t))) <= 1e-12


# (p, alpha, N, M): dims 2^12 to 2^16
LARGE_GRIDS = ((2, 2.0, 6, 6), (2, 0.5, 8, 8), (3, 1.5, 4, 4),
               (3, 0.7, 5, 5), (5, 1.2, 3, 3), (5, 2.0, 4, 2))


@pytest.mark.parametrize("p, alpha, N, M", LARGE_GRIDS)
def test_ball_semigroup_invariants_at_scale(p, alpha, N, M):
    """Mass, positivity, L1 contraction and T(s) T(t) = T(s + t) on grids
    no dense matrix could hold."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M, cap=LEVEL_GRID_CAP))
    n = op.grid.dim
    rng = np.random.default_rng(n)
    point = np.zeros(n)
    point[n // 3] = 1.0
    gapped = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.3)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for s, t in ((1e-5, 3e-5), (1e-3, 2e-3), (0.1, 0.3)):
        Ts, Tt, Tst = (ball_semigroup_matrix(op, x) for x in (s, t, s + t))
        assert np.max(np.abs(Tt @ np.ones(n) - 1.0)) <= 1e-14
        assert abs(np.sum(Tt @ z) - np.sum(z)) <= 1e-14 * np.sum(np.abs(z))
        assert np.all(Tt @ point >= 0.0) and np.all(Tt @ gapped >= 0.0)
        assert np.sum(np.abs(Tt @ z)) <= (1 + 1e-14) * np.sum(np.abs(z))
        assert (np.max(np.abs(Ts @ (Tt @ z) - Tst @ z))
                <= 1e-14 * np.max(np.abs(z)))


# (p, alpha, N, M): dims 4 to 32, including N < 0 and M < 0
SMALL_GRIDS = ((2, 2.0, 1, 2), (3, 1.2, -1, 3), (2, 2.0, 3, -1),
               (3, 1.5, 1, 2), (2, 0.5, 2, 3), (5, 2.0, 1, 1))


@pytest.mark.parametrize("p, alpha, N, M", SMALL_GRIDS)
@pytest.mark.parametrize("t", [10.0, 100.0])
def test_ball_semigroup_matches_expm_at_large_times(p, alpha, N, M, t):
    """At times where the kernel route e^{lam t} S(t) + c(t) cancels, the
    level weights equal expm of the dense generator."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    T = ball_semigroup_matrix(op, t).dense()
    assert np.max(np.abs(T - ball_semigroup_expm(op, t))) <= 1e-12


@pytest.mark.parametrize("p, alpha, N, M", SMALL_GRIDS + LARGE_GRIDS[:3])
def test_ball_semigroup_weights_at_every_time(p, alpha, N, M):
    """From t = 1e-12 to 1e6 every weight is finite and nonnegative and
    T 1 = 1."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M, cap=LEVEL_GRID_CAP))
    ones = np.ones(op.grid.dim)
    for t in 10.0 ** np.arange(-12, 7):
        T = ball_semigroup_matrix(op, t)
        w = np.array((T.c,) + T.h)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0), t
        assert np.max(np.abs(T @ ones - 1.0)) <= 1e-14, t


def test_ball_kernel_needs_N():
    params = KernelParams(2, 2.0, 1.0)  # N unset
    with pytest.raises(DomainError):
        ball_c_coefficient(params)
    with pytest.raises(DomainError):
        ball_kernel_ZN(params, -4)
    with pytest.raises(DomainError):
        params.lam


def test_ball_kernel_mass_is_one():
    params = KernelParams(2, 2.0, 0.9, N=1)
    _, _, mass, bound = ball_kernel_ZN(params, -25)
    assert abs(mass - 1.0) <= bound + 1e-9


@pytest.mark.parametrize("p, alpha, N, M", SMALL_GRIDS)
@pytest.mark.parametrize("t", [0.5, 10.0, 100.0])
def test_ball_kernel_profile_matches_expm(p, alpha, N, M, t):
    """Off the diagonal, expm(-t (B - lam I))[i, j] = p^{-M} Z_N(t, p^k)
    with |x_i - x_j| = p^k, also where e^{lam t} Z + c(t) cancels."""
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
    T = ball_semigroup_expm(op, t)
    prof = ball_kernel_ZN(KernelParams(p, alpha, t, N=N), 1 - M)[0]
    col = op.grid.radial(
        lambda k: 0.0 if k is None else prof.value_at_shell(k).real)
    assert np.max(np.abs(float(p) ** -M * col[1:] - T[1:, 0])) <= 1e-12


def _ZN_reference(p, alpha, N, t):
    """[Z_N(t, p^N), Z_N(t, p^{N-1}), ..., Z_N(t, 0)] as 40-digit sums of
    the spectral series, to a relative tail below 1e-45."""
    with mpmath.workdps(40):
        P, a, T = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(t)
        mu = [P ** (a * (1 - N)) * (P - 1) / (P ** (a + 1) - 1)]
        sums = [mpmath.mpf(0)]
        while True:
            l = len(mu) - 1
            mu.append(P ** (a * (l + 1 - N)))
            g = (mpmath.exp(-T * (mu[l] - mu[0]))
                 * -mpmath.expm1(-T * (mu[l + 1] - mu[l])))
            sums.append(sums[-1] + P ** (l - N) * g)
            if (T * mu[-1] * (P ** a - 1) > 200
                    and P ** (l - N) * g < 1e-45 * sums[-1]):
                return sums[1:]


@pytest.mark.parametrize("p, alpha, N", [(2, 0.5, 3), (2, 2.0, 1),
                                         (3, 1.5, 0), (5, 0.7, -1)])
def test_ball_kernel_certificates_hold(p, alpha, N):
    """Every shell value and the value at 0 lie within the pointwise
    certificate of a 40-digit sum, and the mass within its certificate
    of 1, from t = 1e-4 to 1e6."""
    for t in (1e-4, 1e-2, 0.5, 100.0, 1e6):
        prof, bound, mass, mass_bound = ball_kernel_ZN(
            KernelParams(p, alpha, t, N=N), N - 8)
        ref = _ZN_reference(p, alpha, N, t)
        points = [(ref[min(N - k, len(ref) - 1)], v)
                  for k, v in prof.shell_values]
        points.append((ref[-1], prof.value_at_zero))
        for want, got in points:
            assert abs(mpmath.mpf(got.real) - want) <= bound, (t, want)
        assert abs(mass - 1.0) <= mass_bound <= 1e-13, t


def test_ball_c_coefficient_short_time():
    params0 = KernelParams(2, 2.0, 0.0, N=0)
    c0, _ = ball_c_coefficient(params0)
    assert c0 == pytest.approx(0.0, abs=1e-15)
    # c(t) = O(t^2): halving t divides c by about four
    cs = [ball_c_coefficient(KernelParams(2, 2.0, t, N=0))[0]
          for t in (1e-2, 5e-3, 2.5e-3)]
    assert cs[0] / cs[1] == pytest.approx(4.0, rel=0.02)
    assert cs[1] / cs[2] == pytest.approx(4.0, rel=0.02)


def test_green_domain_guards():
    for bad_alpha in (1.0, 0.7):
        with pytest.raises(DomainError):
            green_kernel_value(2, bad_alpha, 1.0, 0)
        with pytest.raises(DomainError):
            green_zero_value(2, bad_alpha, 1.0)
        with pytest.raises(DomainError):
            green_tail_constant(2, bad_alpha, 1.0)
    with pytest.raises(DomainError):
        green_kernel_value(2, 2.0, 0.0, 0)


def test_green_tail_oracle():
    assert green_tail_constant(2, 2.0, 1.0) == pytest.approx(24 / 7)
    # far shells approach tail * p^{-k(alpha+1)}
    k = 14
    expected = green_tail_constant(2, 2.0, 1.0) * 2.0 ** (-3 * k)
    assert green_kernel_value(2, 2.0, 1.0, k) == pytest.approx(expected,
                                                               rel=1e-3)


def test_green_positive_decreasing():
    vals = [green_zero_value(3, 1.8, 0.5)]
    vals += [green_kernel_value(3, 1.8, 0.5, j) for j in range(-8, 9)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    prof = green_profile(3, 1.8, 0.5, -2, 2)
    assert prof.value_at_shell(0).real == pytest.approx(
        green_kernel_value(3, 1.8, 0.5, 0))


def test_smoothness_modulus_decays():
    vals = [smoothness_modulus(2, 2.0, 1.0, r) for r in range(0, 8)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_semigroup_matrix_agrees_with_testfunction_route():
    """Grid semigroup columns reproduce S(t) applied to coset indicators."""
    grid = GridSpec(2, 1, 1)
    op = OperatorParams(2, 2.0, grid)
    t = 0.6
    K = semigroup_matrix(op, t).dense()
    params = KernelParams(2, 2.0, t)
    j = 2
    ball_j = Ball(grid.representative(j), -grid.M)
    exp = semigroup_on_indicator(params, ball_j, k_max=40)
    for i in range(grid.dim):
        want = exp.function.value_at(grid.representative(i).value).real
        assert K[i, j] == pytest.approx(want, abs=exp.pointwise_bound + 1e-10)



def _resolvent_fold_tile(op, mu, vals):
    """Reference: the ball-average sum with one fold/tile per grid scale."""
    p, a = op.p, op.alpha
    N, M, dim = op.grid.N, op.grid.M, op.grid.dim
    meas = float(op.grid.coset_measure)

    def a_k(k):
        pka = float(p) ** (k * a)
        return pka * (float(p) ** a - 1) / ((mu + pka) * (mu + pka * float(p) ** a))

    head, k = 0.0, -N
    while -N - k <= 600:
        term = a_k(k) * float(p) ** k
        head += term
        if term <= 1e-18 and float(p) ** (k * (a + 1)) <= 1e-18 * mu * mu:
            break
        k -= 1
    out = head * np.sum(vals) * meas
    for k in range(-N + 1, M + 1):
        step = p ** (N + k)
        folded = vals.reshape(dim // step, step).sum(axis=0) * meas
        out = out + a_k(k) * float(p) ** k * np.tile(folded, dim // step)
    return out + vals / (mu + float(p) ** ((M + 1) * a))


@pytest.mark.parametrize("p, N, M", [(2, 1, 3), (3, 2, 2), (5, 0, 2), (2, 4, -1)])
@pytest.mark.parametrize("mu", [0.05, 0.7, 30.0])
def test_resolvent_apply_matches_fold_tile_reference(p, N, M, mu):
    """Complex data through the level form agree with the scale-by-scale
    sum."""
    op = OperatorParams(p, 1.5, GridSpec(p, N, M))
    rng = np.random.default_rng(p + N)
    vals = rng.standard_normal(op.grid.dim) + 1j * rng.standard_normal(op.grid.dim)
    ref = _resolvent_fold_tile(op, mu, vals)
    got = resolvent_apply(op, mu, GridFunction(op.grid, vals)).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
