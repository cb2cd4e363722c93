"""Heat kernel, semigroup, resolvent and Green function of D^alpha.

Every series is truncated against an explicit remainder estimate, and each
evaluation hands that certificate back to the caller; nothing relies on "it
looked converged".  Three independent representations of the kernel (shell
series, alternating power series, grid matrix exponential) cross-check each
other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError
from .fractional import (LevelOperator, OperatorParams, ball_eigenvalue_floor,
                         ball_matrix, ball_spectrum)
from .functions import GridFunction, RadialFunction, TestFunction
from .padic import Ball, PAdicExpansion, check_prime, gamma_p
# the benchmark's tracer wraps heat.int_valuation; nothing here calls it
from .padic import int_valuation  # noqa: F401

_TARGET = 1e-18  # default absolute truncation target for certified series
_MAX_SHELLS = 4000


def _exp_neg_t_pow(t: float, p: int, a: float, k: int) -> float:
    """exp(-t p^{a k}) without overflow at extreme k."""
    w = a * k * math.log(p)
    if w > 700.0:
        return 0.0
    return math.exp(-t * math.exp(w))


@dataclass(frozen=True)
class KernelParams:
    """Prime, exponent and time for kernel evaluations; N fixes the ball
    B_N when the restricted kernel is wanted."""

    p: int
    alpha: float
    t: float
    N: int | None = None

    def __post_init__(self):
        check_prime(self.p)
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.t >= 0:
            raise DomainError(f"time must be nonnegative, got {self.t}")

    @property
    def lam(self) -> float:
        if self.N is None:
            raise DomainError("lam needs the ball exponent N")
        return ball_eigenvalue_floor(self.p, self.alpha, self.N)

    def _require_positive_time(self):
        if self.t == 0:
            raise DomainError("kernel evaluation needs t > 0")


def coeff_ck(params: KernelParams, k: int) -> float:
    """c_k(t) = exp(-p^{k alpha} t) - exp(-p^{(k+1) alpha} t) >= 0.

    Evaluated as -exp(-a t) expm1(-(b - a) t), which stays relatively
    accurate when both exponentials are within rounding of 1 (deep shells,
    short times); the naive difference would lose all significant digits
    there.
    """
    t, p, a = params.t, params.p, params.alpha
    wa = a * k * math.log(p)
    if wa > 700.0:
        return 0.0
    A = math.exp(wa)
    return -math.exp(-A * t) * math.expm1(-A * (float(p) ** a - 1.0) * t)


def linear_split_bound(p: int, alpha: float, k: int) -> tuple:
    """Short-time split c_{-k}(t) = slope * t + O(t^2).

    Returns (slope, quad) with slope = p^{-k alpha}(p^alpha - 1) and the
    certified constant quad = (p^{2 alpha}/2) p^{-2 k alpha} bounding the
    quadratic remainder: |c_{-k}(t) - slope t| <= quad t^2 for all t >= 0,
    from |c''| <= sup(a^2 e^{-at}, b^2 e^{-bt}) <= b^2 with b = p^alpha a.
    """
    check_prime(p)
    a = float(p) ** (-k * alpha)
    slope = a * (float(p) ** alpha - 1.0)
    quad = 0.5 * float(p) ** (2 * alpha) * a * a
    return slope, quad


@dataclass(frozen=True)
class KernelEvaluation:
    value: float
    truncation_bound: float
    shells_used: int


def kernel_Z_shell_series(params: KernelParams, shell: int | None = None) -> KernelEvaluation:
    """Z(t, |x| = p^shell) by the shell decomposition of the spectral integral.

    At x = 0 the upper tail is cut once consecutive terms decay by factor
    >= 2, giving remainder <= 2 g(K+1).  For x != 0 with z = t p^{(1-j)a}
    > 1 the raw shell sum carries no cancellation and only its lower tail
    (remainder < p^{K-1}) is truncated; for z <= 1 the raw sum loses all
    relative accuracy (every exponential is near 1), so the identity
    sum_{k<=-j} p^k (1-1/p) = p^{-j} is used to subtract the constants
    exactly and sum expm1 terms instead, keeping the result relatively
    accurate even where Z is far below the working precision.
    """
    params._require_positive_time()
    p, a, t = params.p, params.alpha, params.t
    w = 1 - 1.0 / p

    total = 0.0
    used = 0
    bound = 0.0

    if shell is not None:
        j = shell
        log_z = math.log(t) + (1 - j) * a * math.log(p)
        if log_z <= 0.0:
            # small-z regime: cancellation-free expm1 form
            z = math.exp(log_z)
            total = -float(p) ** (-j) * math.expm1(-z)
            k = -j
            while True:
                total += float(p) ** k * w * math.expm1(-t * float(p) ** (a * k))
                used += 1
                rem = (w * t * float(p) ** ((k - 1) * (1 + a))
                       / (1 - float(p) ** (-(1 + a))))
                if rem <= _TARGET or rem <= 1e-16 * abs(total):
                    bound += rem + 5e-16 * abs(total)
                    break
                k -= 1
                if used > _MAX_SHELLS:
                    raise ArithmeticError("lower shell series failed to localize")
            return KernelEvaluation(total, bound, used)
        total -= float(p) ** (-j) * _exp_neg_t_pow(t, p, a, 1 - j)
        start = -j
    else:
        # upper branch k = 0, 1, ...
        k = 0
        while True:
            g = float(p) ** k * w * _exp_neg_t_pow(t, p, a, k)
            total += g
            used += 1
            ratio_ok = t * math.exp(min(a * k * math.log(p), 700.0)) * (p**a - 1) >= math.log(2 * p)
            if ratio_ok and g <= _TARGET:
                g_next = float(p) ** (k + 1) * w * _exp_neg_t_pow(t, p, a, k + 1)
                bound += 2.0 * g_next
                break
            k += 1
            if used > _MAX_SHELLS:
                raise ArithmeticError("upper shell series failed to localize")
        start = -1

    k = start
    while True:
        total += float(p) ** k * w * _exp_neg_t_pow(t, p, a, k)
        used += 1
        if float(p) ** (k - 1) <= _TARGET:
            bound += float(p) ** (k - 1)
            break
        k -= 1
        if used > _MAX_SHELLS:
            raise ArithmeticError("lower shell series failed to localize")

    return KernelEvaluation(total, bound, used)


def kernel_Z_alternating(params: KernelParams, shell: int) -> KernelEvaluation:
    """Z(t, |x| = p^shell) by the alternating power series in t.

    Terms are ((-1)^m / m!) (1 - p^{alpha m}) / (1 - p^{-alpha m - 1})
    t^m |x|^{-alpha m - 1}; the m-th term is dominated by
    (|x|^{-1} / (1 - p^{-alpha-1})) z^m / m! with z = t p^{alpha(1-shell)},
    which certifies the factorial tail.  Diverges at x = 0 by design.
    """
    params._require_positive_time()
    if shell is None:
        raise DomainError("the alternating series is only valid away from 0")
    p, a, t = params.p, params.alpha, params.t
    j = int(shell)
    z = t * float(p) ** (a * (1 - j))
    scale = float(p) ** (-j) / (1 - float(p) ** (-a - 1))

    if z > 60.0:
        raise DomainError(
            f"alternating series is numerically unusable at z={z:.3g}")

    total = 0.0
    zpow = 1.0
    fact = 1.0
    max_abs = 0.0
    m = 0
    while True:
        m += 1
        zpow *= z
        fact *= m
        coeff = (1 - float(p) ** (a * m)) / (1 - float(p) ** (-a * m - 1))
        term = ((-1) ** m / fact) * coeff * (t * float(p) ** (-j * a)) ** m
        term *= float(p) ** (-j)
        total += term
        max_abs = max(max_abs, abs(term))
        if m > 2 and z < m + 2:
            rem = scale * zpow * z / (fact * (m + 1)) / (1 - z / (m + 2))
            if rem <= max(_TARGET, 1e-17 * (1 + abs(total))):
                roundoff = 3e-16 * m * max_abs
                return KernelEvaluation(total, rem + roundoff, m)
        if m > 500:
            raise ArithmeticError("alternating kernel series failed to converge")


_CROSS_CHECK_Z_CAP = 8.0


def kernel_Z(params: KernelParams, shell: int | None = None,
             cross_check: bool = True) -> KernelEvaluation:
    """Certified kernel value; the shell series is authoritative and, where
    the alternating series is numerically trustworthy (z <= 8), the two are
    required to agree within their combined certificates."""
    ev = kernel_Z_shell_series(params, shell)
    if cross_check and shell is not None:
        z = params.t * float(params.p) ** (params.alpha * (1 - shell))
        if z <= _CROSS_CHECK_Z_CAP:
            other = kernel_Z_alternating(params, shell)
            tol = ev.truncation_bound + other.truncation_bound + 1e-9 * (1 + abs(ev.value))
            if abs(ev.value - other.value) > tol:
                raise ArithmeticError(
                    f"kernel representations disagree at shell {shell}: "
                    f"{ev.value} vs {other.value}")
    return ev


def kernel_Z_profile(params: KernelParams, k_min: int, k_max: int) -> RadialFunction:
    """Radial kernel profile on shells [k_min, k_max] plus the origin."""
    shells = {k: complex(kernel_Z(params, k).value) for k in range(k_min, k_max + 1)}
    zero = kernel_Z(params, None).value
    return RadialFunction(params.p, tuple(shells.items()),
                          value_at_zero=complex(zero))


def ball_integral_of_Z(params: KernelParams, l: int) -> tuple:
    """(integral of Z(t, .) over B_l, certified bound).

    Exact spectral form: int_{B_l} Z = p^l sum_{k <= -l} p^k (1-1/p)
    exp(-t p^{k alpha}); only the geometric lower tail is truncated.
    """
    params._require_positive_time()
    p, a, t = params.p, params.alpha, params.t
    w = 1 - 1.0 / p
    total = 0.0
    k = -l
    used = 0
    while True:
        total += float(p) ** k * w * _exp_neg_t_pow(t, p, a, k)
        used += 1
        if float(p) ** (k - 1) <= _TARGET:
            tail = float(p) ** (k - 1)
            break
        k -= 1
        if used > _MAX_SHELLS:
            raise ArithmeticError("ball integral failed to localize")
    return float(p) ** l * total, float(p) ** l * tail


def kernel_mass_estimate(params: KernelParams, k_min: int = -25,
                         k_max: int = 25) -> tuple:
    """(mass estimate, certificate) for int Z(t, x) dx from pointwise values.

    The head ball B_{k_min - 1} is integrated in closed form, shells
    [k_min, k_max] use certified pointwise kernel values, and the exterior
    is bounded through 0 <= Z(t, p^k) <= (p^a - 1) t p^{-k(a+1)} / (1 - p^{-a-1}).
    """
    p, a, t = params.p, params.alpha, params.t
    head, head_bound = ball_integral_of_Z(params, k_min - 1)
    total = head
    bound = head_bound
    w = 1 - 1.0 / p
    for k in range(k_min, k_max + 1):
        ev = kernel_Z(params, k)
        total += float(p) ** k * w * ev.value
        bound += float(p) ** k * w * ev.truncation_bound
    tail = (w * (float(p) ** a - 1) * t / (1 - float(p) ** (-a - 1))
            * float(p) ** (-(k_max + 1) * a) / (1 - float(p) ** (-a)))
    return total, bound + tail


# ---------------------------------------------------------------------------
# semigroup acting on test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemigroupExpansion:
    """Truncated indicator expansion of S(t) f with its certificates.

    function evaluates pointwise up to pointwise_bound; the truncated
    expansion integrates to the exact original mass minus mass_deficit.
    """

    function: TestFunction
    pointwise_bound: float
    k_max: int
    mass_deficit: float


def semigroup_on_indicator(params: KernelParams, ball: Ball,
                           k_max: int | None = None,
                           target: float = 1e-15) -> SemigroupExpansion:
    """S(t) applied to a ball indicator, as nested indicator layers.

    S(t) 1_{B(x0, p^l)} = e^{-t p^{-l a}} 1_{B(x0, p^l)}
                        + p^l sum_{k > l} p^{-k} c_{-k}(t) 1_{B(x0, p^k)},
    truncated at k_max with pointwise remainder
    t (p^a - 1) p^l p^{-(k_max+1)(a+1)} / (1 - p^{-a-1}) and truncated mass
    exactly p^l exp(-t p^{-k_max a}).
    """
    p, a, t = params.p, params.alpha, params.t
    if ball.p != p:
        raise DomainError("ball prime differs from kernel prime")
    l = ball.radius_exp

    def pointwise_tail(K: int) -> float:
        return (t * (float(p) ** a - 1) * float(p) ** l
                * float(p) ** (-(K + 1) * (a + 1)) / (1 - float(p) ** (-a - 1)))

    if k_max is None:
        k_max = l + 1
        while pointwise_tail(k_max) > target and k_max < l + 400:
            k_max += 1

    terms = [(complex(_exp_neg_t_pow(t, p, a, -l)), ball)]
    for k in range(l + 1, k_max + 1):
        ck = coeff_ck(params, -k)
        terms.append((complex(float(p) ** (l - k) * ck), Ball(ball.center, k)))
    deficit = float(p) ** l * (1.0 - _exp_neg_t_pow(t, p, a, -k_max))
    return SemigroupExpansion(TestFunction(p, tuple(terms)),
                              pointwise_tail(k_max), k_max, deficit)


def semigroup_apply_testfunction(params: KernelParams, f: TestFunction,
                                 k_max: int | None = None,
                                 target: float = 1e-15) -> SemigroupExpansion:
    """S(t) f by linearity over the (possibly non-canonical) terms of f."""
    if f.p != params.p:
        raise DomainError("prime mismatch")
    terms: list = []
    bound = 0.0
    deficit = 0.0
    k_used = 0
    for c, b in f.terms:
        part = semigroup_on_indicator(params, b, k_max=k_max, target=target)
        terms.extend((c * ci, bi) for ci, bi in part.function.terms)
        bound += abs(c) * part.pointwise_bound
        deficit += abs(c) * part.mass_deficit
        k_used = max(k_used, part.k_max)
    return SemigroupExpansion(TestFunction(params.p, tuple(terms)),
                              bound, k_used, deficit)


def semigroup_indicator_profile(params: KernelParams, ball: Ball,
                                k_max: int | None = None,
                                target: float = 1e-15) -> tuple:
    """(radial profile of S(t) 1_B about the ball's center, pointwise bound).

    Constant inside the ball (head), with one value per shell l < k <= k_max
    outside; beyond k_max the truncated expansion vanishes and the certified
    pointwise bound covers the discarded layers.
    """
    exp = semigroup_on_indicator(params, ball, k_max=k_max, target=target)
    l = ball.radius_exp
    center_val = exp.function.value_at(ball.center)
    shells = {l: center_val}
    for k in range(l + 1, exp.k_max + 1):
        probe = ball.center + PAdicExpansion(params.p, ((-k, 1),))
        shells[k] = exp.function.value_at(probe)
    profile = RadialFunction(params.p, tuple(shells.items()),
                             value_at_zero=center_val, head_constant=True)
    return profile, exp.pointwise_bound


# ---------------------------------------------------------------------------
# semigroup and resolvent on the grid
# ---------------------------------------------------------------------------

def semigroup_matrix(op: OperatorParams, t: float) -> LevelOperator:
    """Exact evaluation operator of the full-space S(t) on grid cosets.

    Entry (i, j) is the integral of Z(t, x_i - y) over the coset of x_j.
    On level l >= 1 its eigenvalue is e^{-t p^{alpha(l-N)}}, so the gaps
    there are c_{l-N}(t); on constants it is the integral of Z over B_N,
    whose gap to level 1 is p^N Z(t, p^N), one cancellation-free kernel
    value.
    """
    grid = op.grid
    if grid is None:
        raise DomainError("semigroup_matrix needs a grid-bound operator")
    kp = KernelParams(op.p, op.alpha, t)
    p, N, M = op.p, grid.N, grid.M
    gaps = ([float(p) ** N * kernel_Z(kp, N).value]
            + [coeff_ck(kp, l - N) for l in range(1, N + M)])
    return LevelOperator.from_gaps(grid, _exp_neg_t_pow(t, p, op.alpha, M),
                                   gaps)


def ball_c_coefficient(params: KernelParams) -> tuple:
    """(c(t), certificate) for the constant part of the restricted kernel.

    Z_N(t, x) = e^{lam t} Z(t, x) + c(t) on B_N, with

      c(t) = p^{-N} - p^{-N} (1 - 1/p) e^{lam t}
             sum_{n>=0} ((-t p^{-N a})^n / n!) / (1 - p^{-a n - 1}),

    an entire alternating series whose factorial tail is certified by
    1/(1 - p^{-a n - 1}) <= p/(p-1), plus the rounding of the sum, which
    swamps c(t) at large t where the terms grow like e^{z} and cancel.
    """
    if params.N is None:
        raise DomainError("ball coefficient needs the ball exponent N")
    p, a, t, N = params.p, params.alpha, params.t, params.N
    lam = params.lam
    z = t * float(p) ** (-N * a)

    total = 0.0
    term = 1.0  # (-z)^n / n!
    max_abs = 0.0
    n = 0
    while True:
        total += term / (1 - float(p) ** (-a * n - 1))
        max_abs = max(max_abs, abs(term))
        n += 1
        term *= -z / n
        rem = (p / (p - 1)) * abs(term) / max(1e-300, 1 - z / (n + 1)) if z < n + 1 else None
        if rem is not None and rem <= _TARGET * (1 + abs(total)):
            break
        if n > 600:
            raise ArithmeticError("ball coefficient series failed to converge")

    pref = float(p) ** (-N) * (1 - 1.0 / p) * math.exp(lam * t)
    c = float(p) ** (-N) - pref * total
    return c, pref * (rem + 3e-16 * n * max_abs * p / (p - 1))


def _ball_gaps(mu: np.ndarray, t: float) -> tuple:
    """Level gaps of exp(-t (A - lam)) for the spectrum mu = [lam, mu_1, ..]:
    g_l = e^{-t (mu_l - lam)} (1 - e^{-t (mu_{l+1} - mu_l)}) >= 0 below the
    last level, formed with expm1 and free of cancellation at every t, and
    the last level's eigenvalue e^{-t (mu_last - lam)}."""
    decay = t * (mu - mu[0])
    gaps = np.exp(-decay[:-1]) * -np.expm1(-t * np.diff(mu))
    return gaps, math.exp(-decay[-1])


def ball_kernel_ZN(params: KernelParams, k_min: int) -> tuple:
    """(profile of Z_N(t, .) on shells [k_min, N] and at 0, pointwise
    certificate, mass over B_N, mass certificate).

    With g_l the level gaps of the ball semigroup, Z_N(t, .) is
    sum_l g_l p^{l-N} 1_{B_{N-l}}: Z_N(t, p^k) sums the levels l <= N - k
    and Z_N(t, 0) all of them, every term >= 0.  Level l >= 1 carries
    mu_l = p^{alpha (l-N)} past any grid.  Levels stop at the first L + 1
    with t mu_{L+1} (p^alpha - 1) >= log(2p), from where the terms at
    least halve, and 2 p^{L+1} e^{-t (mu_{L+1} - lam)} <= _TARGET; as
    Z_N(t, 0) >= p^{-N}, the dropped levels weigh <= _TARGET p^{-N} at any
    point and <= _TARGET in mass.  The head ball B_{k_min-1} integrates to
    sum_l g_l min(1, p^{l-N+k_min-1}).  The rounding certificate carries
    each mu's relative error u (9 + |log mu| + ...) through the exponents.
    """
    if params.N is None:
        raise DomainError("restricted kernel needs the ball exponent N")
    params._require_positive_time()
    p, a, t, N = params.p, params.alpha, params.t, params.N
    mu = [params.lam]
    while True:
        l = len(mu)
        if a * (l - N) * math.log(p) > 700.0:
            raise ArithmeticError(
                "restricted kernel series failed to localize")
        mu.append(float(p) ** (a * (l - N)))
        if (t * mu[-1] * (p ** a - 1) >= math.log(2 * p)
                and math.log(2) + l * math.log(p) - t * (mu[-1] - mu[0])
                <= math.log(_TARGET)):
            break
    mu = np.array(mu)
    g, _ = _ball_gaps(mu, t)
    L = len(g) - 1
    terms = float(p) ** (np.arange(L + 1) - N) * g
    values = np.cumsum(terms)  # values[j] = Z_N(t, p^{N-j}), values[L] at 0

    u = 2.0 ** -53
    logs = np.abs(np.log(mu))
    rho = u * (9 + logs[0] + 3 * (a + 1) * math.log(p) + logs[:-1] + logs[1:])
    err_decay = t * (mu[:-1] + mu[0])
    err_decay[0] = 0.0  # t (mu_0 - lam) = 0 exactly
    y = t * np.diff(mu)
    err_gap = t * (mu[1:] + mu[:-1]) * np.exp(-y) / -np.expm1(-y)
    rel = 2 * rho * (err_decay + err_gap) + 8 * u

    ks = np.arange(k_min, N + 1)
    shell_values = values[np.minimum(N - ks, L)]
    profile = RadialFunction(p, tuple(zip(ks.tolist(), shell_values)),
                             value_at_zero=values[-1])
    bound = terms @ rel + (L + 2) * u * values[-1] + _TARGET * float(p) ** -N
    head = g @ np.minimum(1.0, float(p) ** (np.arange(L + 1) - N + k_min - 1))
    mass = float(p) ** ks * (1 - 1 / p) @ shell_values + head
    mass_bound = g @ rel + (2 * L + len(ks) + 4) * u * mass + _TARGET
    return profile, bound, mass, mass_bound


def ball_semigroup_matrix(op: OperatorParams, t: float) -> LevelOperator:
    """Ball semigroup exp(-t (A - lam)) in level form: eigenvalue
    e^{-t (mu_l - lam)} on level l, and the gaps of _ball_gaps."""
    if not t >= 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    gaps, top = _ball_gaps(ball_spectrum(op), t)
    return LevelOperator.from_gaps(op.grid, top, gaps)


def ball_semigroup_expm(op: OperatorParams, t: float) -> np.ndarray:
    """Matrix exponential route: exp(-t (B - lam I)) for the grid matrix B.

    On grid functions the restricted generator acts exactly as B - lam I
    (the matrix B keeps the constant-mode eigenvalue lam that the
    mass-conserving flow subtracts), so this equals ball_semigroup_matrix(op,
    t).dense(); it is the independent dense oracle of that path.
    """
    B = ball_matrix(op)
    A = B.matrix - B.lam * np.eye(B.grid.dim)
    return scipy.linalg.expm(-t * A)


def resolvent_apply(op: OperatorParams, mu: float, u: GridFunction) -> GridFunction:
    """(mu + D^alpha)^{-1} u for a grid-supported u, evaluated on the grid.

    Ball-average form: R_mu = sum_k a_k p^k Avg_{B_{-k}} with
    a_k = p^{k alpha}(p^alpha - 1) / ((mu + p^{k alpha})(mu + p^{(k+1) alpha})).
    Averages over balls containing B_N see the total mass (the coarse
    head); on level l >= 1 the eigenvalue is 1 / (mu + p^{alpha(l-N)}), so
    the gaps there are a_{l-N}.  sum_k a_k = 1/mu, so the map is
    positivity preserving with L1 gain exactly 1/mu.
    """
    grid = op.grid
    if grid is None:
        raise DomainError("resolvent_apply needs a grid-bound operator")
    if u.grid != grid:
        raise DomainError("grid mismatch")
    if not mu > 0:
        raise DomainError("resolvent parameter mu must be positive")
    p, a = op.p, op.alpha
    N, M = grid.N, grid.M

    def a_k(k: int) -> float:
        pka = float(p) ** (k * a)
        return pka * (float(p) ** a - 1) / ((mu + pka) * (mu + pka * float(p) ** a))

    # coarse scales: the ball B(x, p^{-k}) swallows all of supp u
    head = 0.0
    k = -N
    while True:
        term = a_k(k) * float(p) ** k
        head += term
        if term <= _TARGET and float(p) ** (k * (a + 1)) <= _TARGET * mu * mu:
            break
        k -= 1
        if -N - k > 600:
            break

    levels = LevelOperator.from_gaps(
        grid, 1.0 / (mu + float(p) ** (M * a)),
        [head * float(p) ** N] + [a_k(l - N) for l in range(1, N + M)])
    return GridFunction(grid, levels.apply(u.values))


# ---------------------------------------------------------------------------
# Green function (alpha > 1)
# ---------------------------------------------------------------------------

def _require_green_domain(alpha: float):
    if not alpha > 1:
        raise DomainError(f"the Green kernel needs alpha > 1, got {alpha}")


def green_kernel_value(p: int, alpha: float, mu: float, shell: int) -> float:
    """E_mu(|x| = p^shell) = sum_{k <= -shell} p^k (1-1/p)/(p^{k alpha} + mu)
    - p^{-shell} / (p^{(1-shell) alpha} + mu), truncated geometrically."""
    check_prime(p)
    _require_green_domain(alpha)
    if not mu > 0:
        raise DomainError("mu must be positive")
    j = int(shell)
    w = 1 - 1.0 / p
    total = -float(p) ** (-j) / (float(p) ** ((1 - j) * alpha) + mu)
    k = -j
    while True:
        total += float(p) ** k * w / (float(p) ** (k * alpha) + mu)
        if float(p) ** (k - 1) / mu <= _TARGET:
            break
        k -= 1
        if -j - k > _MAX_SHELLS:
            raise ArithmeticError("Green series failed to localize")
    return total


def green_zero_value(p: int, alpha: float, mu: float) -> float:
    """E_mu(0); finite precisely because alpha > 1."""
    check_prime(p)
    _require_green_domain(alpha)
    if not mu > 0:
        raise DomainError("mu must be positive")
    w = 1 - 1.0 / p
    total = 0.0
    k = 0
    while True:  # upper branch, decays like p^{k(1 - alpha)}
        total += float(p) ** k * w / (float(p) ** (k * alpha) + mu)
        if float(p) ** (k * (1 - alpha)) / (1 - float(p) ** (1 - alpha)) <= _TARGET:
            break
        k += 1
        if k > _MAX_SHELLS:
            raise ArithmeticError("Green series failed to localize")
    k = -1
    while True:
        total += float(p) ** k * w / (float(p) ** (k * alpha) + mu)
        if float(p) ** (k - 1) / mu <= _TARGET:
            break
        k -= 1
        if -k > _MAX_SHELLS:
            raise ArithmeticError("Green series failed to localize")
    return total


def green_profile(p: int, alpha: float, mu: float,
                  k_min: int, k_max: int) -> RadialFunction:
    shells = {k: complex(green_kernel_value(p, alpha, mu, k))
              for k in range(k_min, k_max + 1)}
    return RadialFunction(p, tuple(shells.items()),
                          value_at_zero=complex(green_zero_value(p, alpha, mu)))


def green_tail_constant(p: int, alpha: float, mu: float) -> float:
    """Leading far-field constant: E_mu(x) ~ -Gamma_p(alpha+1) mu^{-2} |x|^{-alpha-1}."""
    _require_green_domain(alpha)
    return -gamma_p(p, alpha + 1.0) / (mu * mu)


def smoothness_modulus(p: int, alpha: float, mu: float, r: int,
                       j_max: int | None = None) -> float:
    """Upper modulus of L1 continuity of E_mu at scale |h| = p^{-r}:

    Phi(p^{-r}) = 2 sum_{j > r} p^{-j} (1 - 1/p) |E(p^{-j}) - E(p^{-r})|,

    covering both the region |x| < |h| (where |x - h| = p^{-r}) and the
    shell |x| = |h|.  The j-tail is controlled by E's limit at 0.
    """
    check_prime(p)
    _require_green_domain(alpha)
    if j_max is None:
        j_max = r + 60
    e_r = green_kernel_value(p, alpha, mu, -r)
    w = 1 - 1.0 / p
    total = 0.0
    for j in range(r + 1, j_max + 1):
        total += float(p) ** (-j) * w * abs(green_kernel_value(p, alpha, mu, -j) - e_r)
    cap = abs(green_zero_value(p, alpha, mu)) + abs(e_r)
    total += cap * float(p) ** (-j_max - 1)  # tail of the j-sum
    return 2.0 * total
