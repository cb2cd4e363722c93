import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicpme import heat
from padicpme.errors import DomainError
from padicpme.fractional import OperatorParams, ball_matrix
from padicpme.functions import TestFunction
from padicpme.heat import (KernelParams, ball_c_coefficient,
                           ball_integral_of_Z, ball_kernel_ZN,
                           ball_semigroup_expm, ball_semigroup_matrix,
                           coeff_ck, green_kernel, green_tail_constant,
                           kernel_Z, kernel_Z_alternating,
                           kernel_Z_shell_series,
                           kernel_mass_estimate, linear_split_bound,
                           resolvent_apply,
                           semigroup_apply_testfunction,
                           semigroup_matrix, semigroup_on_indicator,
                           smoothness_modulus)
from padicpme.padic import Ball, GridSpec, int_valuation


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
    """Far shells of Z(t, .) decay like |x|^{-alpha-1}."""
    params = KernelParams(2, 2.0, 0.5)
    ratio = kernel_Z(params, 6).value / kernel_Z(params, 5).value
    assert ratio == pytest.approx(2.0 ** (-3), rel=1e-2)


def test_ball_integral_monotone_to_one():
    params = KernelParams(2, 2.0, 1.0)
    vals = [ball_integral_of_Z(params, l)[0] for l in range(-3, 21)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # 1 - integral decays like p^{-l alpha}
    assert vals[-1] == pytest.approx(1.0, abs=1e-11)


def test_semigroup_expansion_mass_accounting():
    """Truncated expansion mass + deficit telescopes to the exact p^l, and
    the deficit is p^l (1 - e^{-x}), x = t p^{-k_max alpha}, to 1e-12
    relative against 40-digit arithmetic (abs=0: pytest.approx's default
    abs=1e-12 would swamp a deficit of ~3e-10)."""
    p, l, a, t = 2, 1, 2.0, 0.7
    params = KernelParams(p, a, t)
    ball = Ball(p, 0, l)
    for k_max in (l + 2, l + 6, l + 15):
        exp = semigroup_on_indicator(params, ball, k_max=k_max)
        assert exp.k_max == k_max
        mass = exp.function.integral().real
        assert mass + exp.mass_deficit == pytest.approx(float(p) ** l,
                                                        rel=1e-13, abs=0)
        with mpmath.workdps(40):
            x = mpmath.mpf(t) * mpmath.mpf(p) ** (-k_max * mpmath.mpf(a))
            deficit = float(mpmath.mpf(p) ** l * -mpmath.expm1(-x))
        assert exp.mass_deficit == pytest.approx(deficit, rel=1e-12, abs=0)


@pytest.mark.parametrize("p, a, t, l", [(2, 2.0, 0.7, 0), (2, 2.0, 1e-3, 2)])
def test_semigroup_mass_deficit_is_relatively_accurate(p, a, t, l):
    """The truncated mass p^l (1 - e^{-x}), x = t p^{-k_max alpha}, is
    ~1e-10 relative to p^l at the default k_max; 1 - e^{-x} would lose
    five to six digits there.  Against 40-digit arithmetic."""
    exp = semigroup_on_indicator(KernelParams(p, a, t), Ball(p, 0, l))
    with mpmath.workdps(40):
        x = mpmath.mpf(t) * mpmath.mpf(p) ** (-exp.k_max * mpmath.mpf(a))
        ref = mpmath.mpf(p) ** l * -mpmath.expm1(-x)
    assert x < 1e-9
    assert abs(exp.mass_deficit - ref) <= 1e-14 * ref


def test_semigroup_expansion_value_vs_ball_integral():
    """S(t) 1_{B_0} at the center equals the ball integral of the kernel."""
    params = KernelParams(2, 2.0, 0.3)
    exp = semigroup_on_indicator(params, Ball(2, 0, 0))
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
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
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
    op = OperatorParams(p, alpha, GridSpec(p, N, M))
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


@pytest.mark.parametrize("alpha, t", [(1e-300, 1.0), (1e-15, 1.0),
                                      (0.005, 1.0), (0.01, 1e-3)])
def test_ball_kernel_refuses_levels_beyond_the_double_range(alpha, t):
    """At small alpha the series needs levels past p^{l - N} = e^700
    before it localizes: the call refuses.  It once returned a nan value
    at 0 with a nan certificate (alpha 0.005 and 0.01), or added levels
    without end (alpha 1e-300 and 1e-15, where mu_l stays near 1)."""
    with pytest.raises(ArithmeticError, match="failed to localize"):
        ball_kernel_ZN(KernelParams(2, alpha, t, N=1), -3)


def test_ball_c_coefficient_short_time():
    params0 = KernelParams(2, 2.0, 0.0, N=0)
    c0, _ = ball_c_coefficient(params0)
    assert c0 == pytest.approx(0.0, abs=1e-15)
    # c(t) = O(t^2): halving t divides c by about four
    cs = [ball_c_coefficient(KernelParams(2, 2.0, t, N=0))[0]
          for t in (1e-2, 5e-3, 2.5e-3)]
    assert cs[0] / cs[1] == pytest.approx(4.0, rel=0.02)
    assert cs[1] / cs[2] == pytest.approx(4.0, rel=0.02)


def _gap_sums_reference(p, gap, shells):
    """{j: sum_{k <= -j} p^k d_k for each shell j, None: the sum over all
    k} as 40-digit sums; gap(k) is d_k >= 0 at the working precision.
    Below the shells the terms fall geometrically and above them they
    fall once past their peak; both sums stop at a term below 1e-45 of
    the total so far."""
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        total, k = mpmath.mpf(0), -max(shells) - 1
        while True:
            term = P ** k * gap(k)
            total += term
            if term < 1e-45 * total:
                break
            k -= 1
        sums = {}
        for k in range(-max(shells), -min(shells) + 1):
            total += P ** k * gap(k)
            sums[-k] = total
        prev = None
        while True:
            k += 1
            term = P ** k * gap(k)
            total += term
            if prev is not None and term < prev and term < 1e-45 * total:
                break
            prev = term
        sums[None] = total
    return sums


def _ball_integral_reference(p, alpha, t, l):
    """int_{B_l} Z(t, .) = p^l sum_{k <= -l} p^k (1 - 1/p) e^{-t p^{k alpha}}
    as a 40-digit sum, stopped at a term below 1e-45 of the total."""
    with mpmath.workdps(40):
        P, A, T = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(t)
        total, k = mpmath.mpf(0), -l
        while True:
            term = P ** k * (1 - 1 / P) * mpmath.exp(-T * P ** (A * k))
            total += term
            if term < 1e-45 * total:
                return P ** l * total
            k -= 1


@pytest.mark.parametrize("p, alpha", [(2, 2.0), (3, 1.8), (5, 3.0),
                                      (2, 1.2), (2, 0.5)])
def test_kernel_shell_series_against_40_digit_sum(p, alpha):
    """On shells -10..30 and at 0, from t = 1e-6 to 1e3, every value lies
    within its certificate of a 40-digit sum and within 1e-13 relative;
    so does the integral of Z over B_l, checked against the direct sum
    p^l sum_{k <= -l} p^k (1 - 1/p) e^{-t p^{k alpha}}."""
    P, A = mpmath.mpf(p), mpmath.mpf(alpha)
    shells = range(-10, 31)
    for t in (1e-6, 1e-2, 1.0, 1e3):
        T = mpmath.mpf(t)
        ref = _gap_sums_reference(p, lambda k: mpmath.exp(-T * P ** (A * k))
                                  * -mpmath.expm1(-T * P ** (A * k) * (P ** A - 1)),
                                  shells)
        params = KernelParams(p, alpha, t)
        for j in list(shells) + [None]:
            ev = kernel_Z_shell_series(params, j)
            err = abs(mpmath.mpf(ev.value) - ref[j])
            assert err <= ev.truncation_bound, (t, j)
            assert err <= 1e-13 * ref[j], (t, j)
        for l in (-6, 0, 4):
            want = _ball_integral_reference(p, alpha, t, l)
            got, bound = ball_integral_of_Z(params, l)
            assert abs(mpmath.mpf(got) - want) <= bound <= 1e-14 * want, (t, l)


@pytest.mark.parametrize("p, alpha, mu", [(2, 2.0, 1.0), (3, 1.8, 0.5),
                                          (5, 3.0, 4.0), (2, 1.2, 1.0)])
def test_green_kernel_against_40_digit_sum(p, alpha, mu):
    """E_mu on shells -10..30 and at 0 lies within its certificate of a
    40-digit sum of the resolvent gaps and within 1e-13 relative."""
    P, A, MU = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(mu)

    def gap(k):
        s = P ** (A * k)
        return s * (P ** A - 1) / ((MU + s) * (MU + s * P ** A))

    shells = range(-10, 31)
    ref = _gap_sums_reference(p, gap, shells)
    for j in list(shells) + [None]:
        ev = green_kernel(p, alpha, mu, j)
        err = abs(mpmath.mpf(ev.value) - ref[j])
        assert err <= ev.truncation_bound, j
        assert err <= 1e-13 * ref[j], j


@pytest.mark.parametrize("p, alpha, N, ts", [
    (2, 2.0, 1, (1e-3, 0.5, 10.0, 100.0)), (3, 1.5, 0, (1e-2, 1.0, 100.0)),
    (5, 0.7, -1, (1e-4, 3.0, 200.0))])
def test_ball_c_coefficient_certificate_holds(p, alpha, N, ts):
    """c(t) = p^{-N} (1 - e^{lam t} int_{B_N} Z) lies within its
    certificate of a 40-digit evaluation, also where c(t) is O(t^2) and
    its two parts cancel, and where its power series had lost every
    digit; once e^{lam t} leaves the double range the result is
    (-inf, inf)."""
    for t in ts:
        params = KernelParams(p, alpha, t, N=N)
        c, bound = ball_c_coefficient(params)
        with mpmath.workdps(40):
            P, A, T = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(t)
            lam = P ** (A * (1 - N)) * (P - 1) / (P ** (A + 1) - 1)
            want = P ** -N * (1 - mpmath.exp(lam * T)
                              * _ball_integral_reference(p, alpha, t, N))
        assert abs(mpmath.mpf(c) - want) <= bound, t
        # the two parts of c(t) are O(p^{-N} min(1, t mu_1)) and cancel
        parts = float(p) ** -N * min(1.0, t * float(p) ** (alpha * (1 - N)))
        assert bound <= 1e-12 * abs(want) + 1e-14 * parts, t
    assert ball_c_coefficient(KernelParams(2, 2.0, 1e4, N=1)) == (-math.inf,
                                                                   math.inf)


def test_green_domain_guards():
    for bad_alpha in (1.0, 0.7):
        with pytest.raises(DomainError):
            green_kernel(2, bad_alpha, 1.0, 0)
        with pytest.raises(DomainError):
            green_kernel(2, bad_alpha, 1.0)
        with pytest.raises(DomainError):
            green_tail_constant(2, bad_alpha, 1.0)
    with pytest.raises(DomainError):
        green_kernel(2, 2.0, 0.0, 0)


def test_green_tail_oracle():
    assert green_tail_constant(2, 2.0, 1.0) == pytest.approx(24 / 7)
    # far shells approach tail * p^{-k(alpha+1)}
    k = 14
    expected = green_tail_constant(2, 2.0, 1.0) * 2.0 ** (-3 * k)
    assert green_kernel(2, 2.0, 1.0, k).value == pytest.approx(expected,
                                                               rel=1e-3)


def test_green_positive_decreasing():
    vals = [green_kernel(3, 1.8, 0.5).value]
    vals += [green_kernel(3, 1.8, 0.5, j).value for j in range(-8, 9)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


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
    ball_j = Ball(2, grid.representative(j), -grid.M)
    exp = semigroup_on_indicator(params, ball_j, k_max=40)
    for i in range(grid.dim):
        want = exp.function.value_at(grid.representative(i)).real
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
    got = resolvent_apply(op, mu, vals)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("p, N, M", [(2, 1, 3), (3, 1, 2), (5, 0, 2),
                                     (11, 1, 1)])
def test_resolvent_apply_columns_match_single_calls(p, N, M):
    """(dim, k) data are k independent columns: each column of the result
    equals resolvent_apply on that column alone, bit for bit, for real and
    complex data (p = 11 folds its top level pairwise)."""
    op = OperatorParams(p, 1.5, GridSpec(p, N, M))
    rng = np.random.default_rng(p + N)
    real = rng.standard_normal((op.grid.dim, 4))
    for u in (real, real + 1j * rng.standard_normal(real.shape)):
        got = resolvent_apply(op, 0.7, u)
        assert got.shape == u.shape
        for j in range(u.shape[1]):
            alone = resolvent_apply(op, 0.7, u[:, j].copy())
            assert got[:, j].tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# shell sequences: one gap sum for many shells
# ---------------------------------------------------------------------------

def _bits(ev):
    gap = None if ev.series_gap is None else ev.series_gap.hex()
    return ev.value.hex(), ev.truncation_bound.hex(), gap


def _one_by_one(evaluate, shells):
    """The bits of evaluate(j) for each j, or the first error's (type,
    message), as a loop of one-shell calls gives them."""
    try:
        return [_bits(evaluate(j)) for j in shells]
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _at_once(evaluate, shells):
    try:
        return [_bits(ev) for ev in evaluate(shells)]
    except ArithmeticError as exc:
        return type(exc), str(exc)


_SHELL_LISTS = [
    [None],
    [],
    [3],
    list(range(-30, 31)) + [None],
    [5, None, -7, 5, 0, 30, -30, None, 12, 12],
    [None, 40, -40, 1],
]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("t", [1e-3, 0.3, 10.0, 1e3])
def test_heat_shell_lists_keep_the_bits_of_one_shell_calls(p, alpha, t):
    params = KernelParams(p, alpha, t)
    for shells in _SHELL_LISTS:
        for f in (kernel_Z, kernel_Z_shell_series):
            want = _one_by_one(lambda j: f(params, j), shells)
            assert _at_once(lambda js: f(params, js), shells) == want
            assert _at_once(lambda js: f(params, js), tuple(shells)) == want
        ints = [j for j in shells if j is not None]
        assert (_at_once(lambda js: kernel_Z(params, js), np.array(ints, int))
                == _one_by_one(lambda j: kernel_Z(params, j), ints))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("alpha", [1.2, 2.0, 3.0])
@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
def test_green_shell_lists_keep_the_bits_of_one_shell_calls(p, alpha, mu):
    for shells in _SHELL_LISTS:
        want = _one_by_one(lambda j: green_kernel(p, alpha, mu, j), shells)
        assert _at_once(lambda js: green_kernel(p, alpha, mu, js),
                        shells) == want


_SHELLS = st.one_of(st.none(), st.integers(-60, 60),
                    st.sampled_from([-1500, 1100, 2000]))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]),
       alpha=st.sampled_from([0.5, 1.01, 1.05, 1.3, 2.0, 3.0]),
       log_t=st.floats(-6, 6), log_mu=st.floats(-2, 2),
       shells=st.lists(_SHELLS, max_size=10))
def test_shell_lists_fail_as_the_loop_of_one_shell_calls(p, alpha, log_t,
                                                         log_mu, shells):
    """A shell list gives each shell's bits, or raises the error the loop
    of one-shell calls raises first: shells far out leave the double
    range, and E_mu(0) refuses alpha near 1."""
    params = KernelParams(p, alpha, 10.0 ** log_t)
    for f in (kernel_Z, kernel_Z_shell_series):
        assert (_at_once(lambda js: f(params, js), shells)
                == _one_by_one(lambda j: f(params, j), shells))
    if alpha > 1:
        mu = 10.0 ** log_mu
        assert (_at_once(lambda js: green_kernel(p, alpha, mu, js), shells)
                == _one_by_one(lambda j: green_kernel(p, alpha, mu, j), shells))


def test_a_failing_cross_check_raises_in_shell_order(monkeypatch):
    """kernel_Z checks each shell's alternating series in turn: a
    disagreement at shell 3 raises before the range error at shell 1100,
    and after it when 1100 comes first, as in a loop of one-shell calls."""
    alternating = heat.kernel_Z_alternating

    def wrong_at_3(params, shell):
        ev = alternating(params, shell)
        return replace(ev, value=ev.value + 1.0) if shell == 3 else ev

    monkeypatch.setattr(heat, "kernel_Z_alternating", wrong_at_3)
    params = KernelParams(2, 2.0, 1.0)
    for shells in ([0, 3, 1100], [0, 1100, 3]):
        want = _one_by_one(lambda j: kernel_Z(params, j), shells)
        assert want[0] is ArithmeticError
        assert _at_once(lambda js: kernel_Z(params, js), shells) == want
    assert "disagree at shell 3" in _at_once(
        lambda js: kernel_Z(params, js), [0, 3, 1100])[1]


def test_coeff_ck_arrays_match_scalar_calls():
    ks = np.arange(-200, 201)
    for p in (2, 3, 5):
        for alpha in (0.5, 1.5, 3.0):
            for t in (1e-6, 1.0, 1e6):
                params = KernelParams(p, alpha, t)
                got = coeff_ck(params, ks)
                want = [float(coeff_ck(params, int(k))) for k in ks]
                assert [float(c).hex() for c in got] == [c.hex() for c in want]


def test_far_inner_shells_skip_the_cross_check():
    """z = t p^{alpha (1 - shell)} overflows on shells far inside: there
    the alternating series is unusable and kernel_Z is the shell series."""
    params = KernelParams(2, 2.0, 1.0)
    ev = kernel_Z(params, -600)
    assert ev == kernel_Z_shell_series(params, -600)
    assert ev.series_gap is None
    assert ev.value == pytest.approx(kernel_Z(params, None).value, rel=1e-15)
    with pytest.raises(DomainError, match="z=inf"):
        kernel_Z_alternating(params, -600)
    # alpha 26 ln p > 709: the mass estimate's innermost shells
    mass, bound = kernel_mass_estimate(KernelParams(2, 50.0, 1.0))
    assert abs(mass - 1.0) <= bound < 1e-6


def test_ball_integral_certificate_where_the_exponential_vanishes():
    """At t = 1e300, t p^{alpha (1 - l)} overflows and e^{-x} is exactly
    0; the certificate stays finite and still covers the mass."""
    params = KernelParams(2, 3.0, 1e300)
    total, bound = ball_integral_of_Z(params, -26)
    want = _ball_integral_reference(2, 3.0, 1e300, -26)
    assert abs(mpmath.mpf(total) - want) <= bound <= 1e-12 * total
    mass, mass_bound = kernel_mass_estimate(params)
    assert math.isfinite(mass_bound) and abs(mass - 1.0) <= mass_bound


def test_green_tail_constant_beyond_the_double_range():
    for p, alpha in ((2, 2.0), (3, 1.5), (5, 3.0)):
        c = green_tail_constant(p, alpha, 1.0)
        assert green_tail_constant(p, alpha, 1e-150) == pytest.approx(c * 1e300)
        for mu in (1e-160, 1e-200):
            assert green_tail_constant(p, alpha, mu) == math.copysign(math.inf, c)


_NO_GRID = OperatorParams(2, 1.0)
_ON_GRID = OperatorParams(2, 1.0, GridSpec(2, 1, 1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: semigroup_matrix(_NO_GRID, 1.0),
                 "semigroup_matrix needs a grid-bound operator",
                 id="semigroup_matrix-no-grid"),
    pytest.param(lambda: resolvent_apply(_NO_GRID, 1.0, np.zeros(4)),
                 "resolvent_apply needs a grid-bound operator",
                 id="resolvent_apply-no-grid"),
    pytest.param(lambda: resolvent_apply(_ON_GRID, 0.0, np.zeros(4)),
                 "resolvent parameter mu must be positive",
                 id="resolvent_apply-mu-zero"),
    pytest.param(lambda: ball_semigroup_matrix(_ON_GRID, -1.0),
                 "time must be nonnegative, got -1.0",
                 id="ball_semigroup_matrix-negative-t"),
    pytest.param(lambda: semigroup_on_indicator(KernelParams(2, 1.0, 1.0),
                                                Ball(3, 0, 0)),
                 "ball prime differs from kernel prime",
                 id="semigroup_on_indicator-prime"),
    pytest.param(lambda: semigroup_apply_testfunction(
                     KernelParams(2, 1.0, 1.0),
                     TestFunction.indicator(Ball(3, 0, 0))),
                 "prime mismatch", id="semigroup_apply_testfunction-prime"),
])
def test_heat_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
