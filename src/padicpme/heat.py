"""Heat kernel, semigroup, resolvent and Green function of D^alpha.

For a radial multiplier m, e^{-t |xi|^alpha} (heat) or 1 / (mu + |xi|^alpha)
(resolvent), the kernel is K(p^j) = sum_{k <= -j} p^k d_k, and K(0) the sum
over all k, with gaps d_k = m(p^k) - m(p^{k+1}) >= 0.  `_gap_sum` sums every
such series and certifies both tails and the rounding, so nothing relies on
"it looked converged".  It sums a sequence of shells at once, with the
gaps evaluated once over the span of the shells' windows: kernel_Z,
kernel_Z_shell_series and green_kernel take one shell or a sequence of
shells, and a single shell is the one-element case of that path.  The
alternating power series, the indicator expansions of S(t) f and the grid
matrix exponential cross-check it in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, check_real
from .fractional import (LevelOperator, OperatorParams, ball_eigenvalue_floor,
                         ball_matrix, ball_spectrum)
from .functions import RadialFunction, TestFunction
from .padic import Ball, check_prime, gamma_p
# the benchmark's tracer wraps heat.int_valuation; nothing here calls it
from .padic import int_valuation  # noqa: F401

_TARGET = 1e-18  # absolute target of the alternating and restricted series
_LAYER_TARGET = 1e-15  # pointwise target of a truncated indicator expansion
_MAX_SHELLS = 4000
_U = 2.0 ** -53  # unit roundoff
_TAIL = 2.0 ** -60  # a gap sum's tails, relative to its envelope at the knee


def _exp_neg_t_pow(t: float, p: int, a: float, k: int) -> float:
    """exp(-t p^{a k}) without overflow at extreme k."""
    w = a * k * math.log(p)
    if w > 700.0:
        return 0.0
    return math.exp(-t * math.exp(w))


@dataclass(frozen=True)
class KernelParams:
    """Prime, exponent and time for kernel evaluations."""

    p: int
    alpha: float
    t: float

    def __post_init__(self):
        check_prime(self.p)
        if not check_real("alpha", self.alpha) > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not check_real("t", self.t) >= 0:
            raise DomainError(f"time must be nonnegative, got {self.t}")

    def _require_positive_time(self):
        if self.t == 0:
            raise DomainError("kernel evaluation needs t > 0")


def _heat_gaps(t: float, p: int, a: float, k) -> tuple:
    """(c_k(t), bound on its relative rounding) at an integer or integer
    array k.

    With s = p^{k a} = e^w, c_k = e^{-t s} (1 - e^{-t s (p^a - 1)}).  The
    relative errors of s, u (2 + |w|) from rounding k a, and of p^a - 1,
    u (1 + p^a / (p^a - 1)), reach c_k through e^{-t s} with gain t s and
    through expm1 with gain <= 1.  Where t s overflows, c_k is exactly 0.
    """
    pa = float(p) ** a
    x = t * np.power(float(p), a * k)
    c = np.exp(-x) * -np.expm1(-x * (pa - 1))
    rho = _U * (5 + a * math.log(p) * np.abs(k) + pa / (pa - 1))
    return c, (np.minimum(x, 1e3) + 1) * rho + 3 * _U


def coeff_ck(params: KernelParams, k):
    """c_k(t) = exp(-p^{k alpha} t) - exp(-p^{(k+1) alpha} t) >= 0 at an
    integer k or an integer array k.

    Evaluated as -exp(-a t) expm1(-(b - a) t), which stays relatively
    accurate when both exponentials are within rounding of 1 (deep shells,
    short times); the naive difference would lose all significant digits
    there.
    """
    with np.errstate(over="ignore"):
        return _heat_gaps(params.t, params.p, params.alpha, np.asarray(k))[0]


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
    """A kernel value; truncation_bound certifies |value - exact| and covers
    the truncated tails and the rounding.  series_gap is |shell series -
    alternating series| where kernel_Z compared the two, else None."""

    value: float
    truncation_bound: float
    series_gap: float | None = None


def _over_shells(shell, evaluate):
    """evaluate(list of shells) at a sequence of shells, returning the
    list, or at one shell (an integer or None), returning its result."""
    if np.iterable(shell):
        return evaluate(list(shell))
    return evaluate([shell])[0]


def _tops(shells: list) -> list:
    """The gap-sum tops of shells: K(p^j) sums k <= -j, K(0) all k."""
    return [None if j is None else -int(j) for j in shells]


def _gap_sum(p: int, a: float, gaps, knee: float, lower: float,
             upper: tuple | None, tops: Sequence) -> Iterator[KernelEvaluation]:
    """Certified sums of p^k d_k over k <= top for each top of tops, or
    over all k where top is None, yielded in the order of tops.

    gaps(k) gives d_k >= 0 and a bound on its relative rounding at an
    integer array k; it runs with overflow and division by zero silenced,
    since terms far out in a tail may over- or underflow.  The terms obey
    p^k d_k <= e^lower p^{k (1 + a)} for every k and, if upper = (c, g)
    with g > 0 is given (it must be when a top is None),
    p^k d_k <= e^c p^{-g k}.  Each top's window [k_lo, k_hi] is set in
    closed form so that each envelope's tail outside it is at most _TAIL
    times the lower envelope at k_0 = min(top, floor(log_p(knee) / a)).
    The multiplier bends there from linear decay to its tail, and the
    envelope exceeds the term by at most e (1 + p^a) for the heat and
    resolvent gaps.  gaps(k) and the terms are formed once, on the span
    of all the windows; every window lies inside |k| log p <= 700, so the
    span does too.  A value is the correctly rounded sum of its window's
    terms (math.fsum), and its bound adds both tails to the rounding of
    every term of the window (one dot product over the window's slice),
    so each value and bound is the one a single top gives.  A window
    wider than _MAX_SHELLS, one that reaches p^k beyond e^{+-700}, or one
    whose bounds leave the double range raises ArithmeticError, as does a
    value that leaves the double range; the error is raised when the
    generator reaches that top, after the values of the tops before it.
    """
    lp = math.log(p)
    k_knee = math.floor(math.log(knee) / (a * lp))
    g_low = (1 + a) * lp
    shrink_low = math.log1p(-math.exp(-g_low))
    windows, failure = [], None
    for top in tops:
        try:
            k0 = k_knee if top is None else min(k_knee, top)
            # each tail is geometric:
            # sum_{k>=K} e^{c - g k} = e^{c - g K} / (1 - e^-g)
            log_ref = lower + g_low * k0 + math.log(_TAIL)
            k_lo = k0 + math.floor((math.log(_TAIL) + shrink_low) / g_low) + 1
            tails = math.exp(lower + g_low * (k_lo - 1) - shrink_low)
            k_hi = top
            if upper is not None:
                c, g = upper[0], upper[1] * lp
                shrink = math.log1p(-math.exp(-g))
                cut = max(k0, math.ceil((c - shrink - log_ref) / g) - 1)
                if top is None or cut < top:
                    k_hi = cut
                    tails += math.exp(c - g * (cut + 1) - shrink)
        except OverflowError:  # a window bound beyond the double range
            failure = ArithmeticError(
                "kernel series window leaves the double range")
            break
        n = k_hi - k_lo + 1
        if n > _MAX_SHELLS:
            failure = ArithmeticError(
                f"kernel series failed to localize ({n} terms)")
        elif max(-k_lo, k_hi) * lp > 700.0:  # p^k, and the gaps, overflow
            failure = ArithmeticError("kernel series leaves the double range")
        if failure is not None:
            break
        windows.append((k_lo, k_hi, tails))
    if windows:
        first = min(w[0] for w in windows)
        k = np.arange(first, max(w[1] for w in windows) + 1)
        with np.errstate(over="ignore", divide="ignore"):
            d, rel = gaps(k)
            terms = np.power(float(p), k) * d
        for k_lo, k_hi, tails in windows:
            window = slice(k_lo - first, k_hi - first + 1)
            value = math.fsum(terms[window])
            bound = (tails + float(terms[window] @ rel[window])
                     + 3 * _U * value)
            if not (math.isfinite(value) and math.isfinite(bound)):
                raise ArithmeticError("kernel series leaves the double range")
            yield KernelEvaluation(value, bound)
    if failure is not None:
        raise failure


def _heat_series(params: KernelParams, shells: list) -> Iterator[KernelEvaluation]:
    """The gap sums of c_k(t) at each shell, in order (see _gap_sum)."""
    params._require_positive_time()
    p, a, t = params.p, params.alpha, params.t
    b = 2.0 / a
    knee = 1.0 / t
    try:
        slope = t * (float(p) ** a - 1)
    except OverflowError:  # p^alpha itself leaves the double range
        slope = math.inf
    for name, x in (("1/t", knee), ("t (p^alpha - 1)", slope)):
        if not 0 < x < math.inf:  # the window below takes their logs
            raise ArithmeticError(f"heat kernel series: {name} = {x!r} "
                                  "leaves the double range")
    return _gap_sum(p, a, lambda k: _heat_gaps(t, p, a, k), knee,
                    math.log(slope), (b * math.log(b / (math.e * t)), 1.0),
                    _tops(shells))


def kernel_Z_shell_series(params: KernelParams,
                          shell: int | Sequence | None = None):
    """Z(t, |x| = p^shell), or Z(t, 0) if shell is None, as the gap sum of
    c_k(t) (`coeff_ck`): every term is >= 0, so the value is relatively
    accurate on every shell, also where Z is far below the working
    precision.  Envelopes: c_k <= t p^{k a} (p^a - 1), and with b = 2 / a,
    c_k <= e^{-t p^{k a}} <= (b / (e t))^b p^{-2k}.  For a sequence of
    shells, the list of their KernelEvaluations, from one gap sum."""
    return _over_shells(shell, lambda shells: list(_heat_series(params, shells)))


def kernel_Z_alternating(params: KernelParams, shell: int) -> KernelEvaluation:
    """Z(t, |x| = p^shell) by the alternating power series in t.

    Terms are ((-1)^m / m!) (1 - p^{alpha m}) / (1 - p^{-alpha m - 1})
    t^m |x|^{-alpha m - 1}; the m-th term is dominated by
    (|x|^{-1} / (1 - p^{-alpha-1})) z^m / m! with z = t p^{alpha(1-shell)},
    which certifies the factorial tail.  Diverges at x = 0 by design.  A
    power of p beyond the double range raises ArithmeticError.
    """
    params._require_positive_time()
    if shell is None:
        raise DomainError("the alternating series is only valid away from 0")
    p, a, t = params.p, params.alpha, params.t
    j = int(shell)
    z = _alternating_z(params, j)
    if z > 60.0:
        raise DomainError(
            f"alternating series is numerically unusable at z={z:.3g}")
    try:  # p^{alpha m} or p^{-shell} may leave the double range
        scale = float(p) ** (-j) / (1 - float(p) ** (-a - 1))
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
                    return KernelEvaluation(total, rem + roundoff)
            if m > 500:
                raise ArithmeticError(
                    "alternating kernel series failed to converge")
    except OverflowError:
        raise ArithmeticError(f"alternating kernel series at shell {j} "
                              "leaves the double range") from None


def _alternating_z(params: KernelParams, shell: int) -> float:
    """z = t p^{alpha (1 - shell)} of the alternating series, inf where
    the power leaves the double range."""
    try:
        return params.t * float(params.p) ** (params.alpha * (1 - shell))
    except OverflowError:
        return math.inf


_CROSS_CHECK_Z_CAP = 8.0


def kernel_Z(params: KernelParams, shell: int | Sequence | None = None):
    """Certified kernel value; the shell series is authoritative and, where
    the alternating series is numerically trustworthy (z <= 8), the two are
    required to agree within their combined certificates; their gap is
    returned as series_gap.  For a sequence of shells, the list of their
    values: one gap sum for all of them, and each shell's cross-check in
    turn, so the first shell that fails raises as it would alone."""
    def evaluate(shells):
        out = []
        for j, ev in zip(shells, _heat_series(params, shells)):
            if (j is not None
                    and _alternating_z(params, int(j)) <= _CROSS_CHECK_Z_CAP):
                other = kernel_Z_alternating(params, j)
                gap = abs(ev.value - other.value)
                tol = (ev.truncation_bound + other.truncation_bound
                       + 1e-9 * (1 + abs(ev.value)))
                if gap > tol:
                    raise ArithmeticError(
                        f"kernel representations disagree at shell {j}: "
                        f"{ev.value} vs {other.value}")
                ev = replace(ev, series_gap=gap)
            out.append(ev)
        return out

    return _over_shells(shell, evaluate)


def ball_integral_of_Z(params: KernelParams, l: int) -> tuple:
    """(integral of Z(t, .) over B_l, certified bound).

    The integral is p^l sum_{k <= -l} p^k (1 - 1/p) e^{-t p^{k alpha}}
    = p^l Z(t, p^l) + e^{-t p^{alpha (1-l)}}, two terms >= 0.  The
    exponential's rounding follows _heat_gaps: gain t s on the relative
    error u (1 + 3|w|) of s = p^{alpha (1-l)} = e^w.  Where t s overflows,
    the exponential is exactly 0 and adds no rounding.
    """
    ev = kernel_Z_shell_series(params, l)
    p, a, t = params.p, params.alpha, params.t
    w = a * (1 - l) * math.log(p)
    x = t * math.exp(min(w, 700.0))
    top = math.exp(-x)
    total = float(p) ** l * ev.value + top
    rounding = top * _U * (2 + x * (2 + 3 * abs(w))) if top else 0.0
    return total, float(p) ** l * ev.truncation_bound + rounding + _U * total


def kernel_mass_estimate(params: KernelParams) -> tuple:
    """(mass estimate, certificate) for int Z(t, x) dx from pointwise values.

    The head ball B_{-26} is integrated in closed form, shells [-25, 25]
    use certified pointwise kernel values from one kernel_Z call, and the
    exterior is bounded through
    0 <= Z(t, p^k) <= (p^a - 1) t p^{-k(a+1)} / (1 - p^{-a-1}).
    """
    k_min, k_max = -25, 25
    p, a, t = params.p, params.alpha, params.t
    head, head_bound = ball_integral_of_Z(params, k_min - 1)
    total = head
    bound = head_bound
    w = 1 - 1.0 / p
    shells = range(k_min, k_max + 1)
    for k, ev in zip(shells, kernel_Z(params, shells)):
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


def semigroup_on_indicator(params: KernelParams,
                           ball: Ball) -> SemigroupExpansion:
    """S(t) applied to a ball indicator, as nested indicator layers.

    S(t) 1_{B(x0, p^l)} = e^{-t p^{-l a}} 1_{B(x0, p^l)}
                        + p^l sum_{k > l} p^{-k} c_{-k}(t) 1_{B(x0, p^k)},
    truncated at k_max with pointwise remainder
    t (p^a - 1) p^l p^{-(k_max+1)(a+1)} / (1 - p^{-a-1}) and truncated mass
    exactly p^l exp(-t p^{-k_max a}); k_max is the first layer whose
    remainder is at most _LAYER_TARGET (at most l + 400).
    """
    p, a, t = params.p, params.alpha, params.t
    if ball.p != p:
        raise DomainError("ball prime differs from kernel prime")
    l = ball.radius_exp

    def pointwise_tail(K: int) -> float:
        try:
            return (t * (float(p) ** a - 1) * float(p) ** l
                    * float(p) ** (-(K + 1) * (a + 1))
                    / (1 - float(p) ** (-a - 1)))
        except OverflowError:
            raise ArithmeticError(
                f"layer tail of S(t) 1_B at p={p}, alpha={a}, radius p^{l}, "
                f"layer {K} leaves the double range") from None

    k_max = l + 1
    while pointwise_tail(k_max) > _LAYER_TARGET and k_max < l + 400:
        k_max += 1

    terms = [(complex(_exp_neg_t_pow(t, p, a, -l)), ball)]
    ks = np.arange(l + 1, k_max + 1)
    for k, ck in zip(ks.tolist(), coeff_ck(params, -ks)):
        terms.append((complex(float(p) ** (l - k) * ck),
                      Ball(p, ball.center, k)))
    # p^l (1 - e^{-x}) without cancellation: x << 1 at this k_max
    x = t * math.exp(min(a * -k_max * math.log(p), 700.0))
    deficit = float(p) ** l * -math.expm1(-x)
    return SemigroupExpansion(TestFunction(p, tuple(terms)),
                              pointwise_tail(k_max), k_max, deficit)


def semigroup_apply_testfunction(params: KernelParams,
                                 f: TestFunction) -> SemigroupExpansion:
    """S(t) f by linearity over the (possibly non-canonical) terms of f."""
    if f.p != params.p:
        raise DomainError("prime mismatch")
    terms: list = []
    bound = 0.0
    deficit = 0.0
    k_used = 0
    for c, b in f.terms:
        part = semigroup_on_indicator(params, b)
        terms.extend((c * ci, bi) for ci, bi in part.function.terms)
        bound += abs(c) * part.pointwise_bound
        deficit += abs(c) * part.mass_deficit
        k_used = max(k_used, part.k_max)
    return SemigroupExpansion(TestFunction(params.p, tuple(terms)),
                              bound, k_used, deficit)


def semigroup_indicator_profile(params: KernelParams, ball: Ball) -> tuple:
    """(radial profile of S(t) 1_B about the ball's center, pointwise bound).

    Constant inside the ball (head), with one value per shell l < k <= k_max
    outside; beyond k_max the truncated expansion vanishes and the certified
    pointwise bound covers the discarded layers.
    """
    exp = semigroup_on_indicator(params, ball)
    l = ball.radius_exp
    # layer j is the ball of radius p^{l+j} about the center: shell k > l
    # lies in layers j >= k - l, summed in the order value_at adds them
    coeffs = [c for c, _ in exp.function.terms]
    center_val = sum(coeffs, 0j)
    shells = {l: center_val}
    for k in range(l + 1, exp.k_max + 1):
        shells[k] = sum(coeffs[k - l:], 0j)
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
    gaps = np.concatenate(([float(p) ** N * kernel_Z(kp, N).value],
                           coeff_ck(kp, np.arange(1 - N, M))))
    return LevelOperator.from_gaps(grid, _exp_neg_t_pow(t, p, op.alpha, M),
                                   gaps)


def ball_c_coefficient(params: KernelParams, N: int) -> tuple:
    """(c(t), certificate) for the constant part of the restricted kernel
    on the ball B_N.

    Z_N(t, x) = e^{lam t} Z(t, x) + c(t) on B_N.  Z_N has mass 1 over B_N
    and int_{B_N} Z = p^N Z(t, p^N) + e^{-t mu_1} with mu_1 = p^{a(1-N)},
    so

      c(t) = p^{-N} (-expm1(-t (mu_1 - lam)) - e^{lam t} p^N Z(t, p^N)).

    The two parts cancel to O(t^2) at short times; the certificate carries
    Z's certificate and the rounding of mu_1 and lam, relative error
    u (6 + 3|w|) with p^{a(1-N)} = e^w, through both parts.  c(t) falls
    like -e^{lam t}; once that leaves the double range the result is
    (-inf, inf).
    """
    p, a, t = params.p, params.alpha, params.t
    if t == 0:
        return 0.0, 0.0
    lam = ball_eigenvalue_floor(p, a, N)
    if lam * t > 709.0:  # e^{lam t} overflows
        return -math.inf, math.inf
    w = a * (1 - N) * math.log(p)
    mu1 = float(p) ** (a * (1 - N))
    rho = _U * (6 + 3 * abs(w))
    first = -math.expm1(-t * (mu1 - lam))
    ev = kernel_Z_shell_series(params, N)
    grow = math.exp(lam * t) * float(p) ** N
    second = grow * ev.value
    c = float(p) ** -N * (first - second)
    bound = float(p) ** -N * (first * (rho * (mu1 + lam) / (mu1 - lam) + 3 * _U)
                              + second * ((lam * t + 1) * rho + 4 * _U)
                              + grow * ev.truncation_bound)
    return c, bound + 2 * _U * abs(c)


def _ball_gaps(mu: np.ndarray, t: float) -> tuple:
    """Level gaps of exp(-t (A - lam)) for the spectrum mu = [lam, mu_1, ..]:
    g_l = e^{-t (mu_l - lam)} (1 - e^{-t (mu_{l+1} - mu_l)}) >= 0 below the
    last level, formed with expm1 and free of cancellation at every t, and
    the last level's eigenvalue e^{-t (mu_last - lam)}."""
    decay = t * (mu - mu[0])
    gaps = np.exp(-decay[:-1]) * -np.expm1(-t * np.diff(mu))
    return gaps, math.exp(-decay[-1])


def ball_kernel_ZN(params: KernelParams, N: int, k_min: int) -> tuple:
    """(profile of Z_N(t, .) on shells [k_min, N] and at 0, pointwise
    certificate, mass over B_N, mass certificate) for the ball B_N.

    With g_l the level gaps of the ball semigroup, Z_N(t, .) is
    sum_l g_l p^{l-N} 1_{B_{N-l}}: Z_N(t, p^k) sums the levels l <= N - k
    and Z_N(t, 0) all of them, every term >= 0.  Level l >= 1 carries
    mu_l = p^{alpha (l-N)} past any grid.  Levels stop at the first L + 1
    with t mu_{L+1} (p^alpha - 1) >= log(2p), from where the terms at
    least halve, and 2 p^{L+1} e^{-t (mu_{L+1} - lam)} <= _TARGET; as
    Z_N(t, 0) >= p^{-N}, the dropped levels weigh <= _TARGET p^{-N} at any
    point and <= _TARGET in mass.  A series that needs a level where mu_l
    or p^{l-N} passes e^700 raises ArithmeticError; small alpha does that
    first.  The head ball B_{k_min-1} integrates to
    sum_l g_l min(1, p^{l-N+k_min-1}).  The rounding certificate carries
    each mu's relative error u (9 + |log mu| + ...) through the exponents.
    """
    params._require_positive_time()
    p, a, t = params.p, params.alpha, params.t
    mu = [ball_eigenvalue_floor(p, a, N)]
    while True:
        l = len(mu)
        # mu_l = p^{a (l - N)}, and the terms' factor p^{l - N}, stay finite
        if max(a, 1.0) * (l - N) * math.log(p) > 700.0:
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

    logs = np.abs(np.log(mu))
    rho = _U * (9 + logs[0] + 3 * (a + 1) * math.log(p) + logs[:-1] + logs[1:])
    err_decay = t * (mu[:-1] + mu[0])
    err_decay[0] = 0.0  # t (mu_0 - lam) = 0 exactly
    y = t * np.diff(mu)
    err_gap = t * (mu[1:] + mu[:-1]) * np.exp(-y) / -np.expm1(-y)
    rel = 2 * rho * (err_decay + err_gap) + 8 * _U

    ks = np.arange(k_min, N + 1)
    shell_values = values[np.minimum(N - ks, L)]
    profile = RadialFunction(p, tuple(zip(ks.tolist(), shell_values)),
                             value_at_zero=values[-1])
    bound = terms @ rel + (L + 2) * _U * values[-1] + _TARGET * float(p) ** -N
    head = g @ np.minimum(1.0, float(p) ** (np.arange(L + 1) - N + k_min - 1))
    mass = float(p) ** ks * (1 - 1 / p) @ shell_values + head
    mass_bound = g @ rel + (2 * L + len(ks) + 4) * _U * mass + _TARGET
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
    mass-conserving flow subtracts), so this equals the dense view
    ball_semigroup_matrix(op, t) @ np.eye(dim); it is the independent dense
    oracle of that path.  B - lam I
    is symmetric, so its exponential is (V e^{-t w}) V^T from the
    eigendecomposition B - lam I = V diag(w) V^T of the dense entries.
    """
    B = ball_matrix(op)
    w, V = np.linalg.eigh(B.matrix - B.lam * np.eye(B.grid.dim))
    return (V * np.exp(-t * w)) @ V.T


def _resolvent_gaps(p: int, a: float, mu: float, k) -> tuple:
    """(a_k, bound on its relative rounding) at an integer or integer
    array k.

    a_k = 1/(mu + s) - 1/(mu + p^a s) = s (p^a - 1) / ((mu + s)(mu + p^a s))
    with s = p^{k a} = e^w, formed as (p^a - 1) / ((mu/s + 1)(mu + p^a s))
    so that it is exactly 0 where s underflows or overflows.  The relative
    error u (2 + |w|) of s reaches a_k with gain <= 1, that of p^a with
    gain <= 1 + p^a / (p^a - 1).
    """
    pa = float(p) ** a
    s = np.power(float(p), a * k)
    d = (pa - 1) / ((mu / s + 1) * (mu + pa * s))
    return d, _U * (10 + a * math.log(p) * np.abs(k) + pa / (pa - 1))


def _resolvent_sum(p: int, a: float, mu: float,
                   tops: list) -> Iterator[KernelEvaluation]:
    """The gap sums of a_k over k <= top for each top of tops, or over all
    k where top is None (for a > 1).  Envelopes: a_k <= p^{k a} (p^a - 1)
    / mu^2 and a_k <= p^{-k a}."""
    return _gap_sum(p, a, lambda k: _resolvent_gaps(p, a, mu, k), mu,
                    math.log(float(p) ** a - 1) - 2 * math.log(mu),
                    (0.0, a - 1.0) if a > 1 else None, tops)


def resolvent_apply(op: OperatorParams, mu: float, u: np.ndarray) -> np.ndarray:
    """(mu + D^alpha)^{-1} u for a grid array u, evaluated on the grid.

    Ball-average form: R_mu = sum_k a_k p^k Avg_{B_{-k}} with the
    resolvent gaps a_k = 1/(mu + p^{k alpha}) - 1/(mu + p^{(k+1) alpha})
    >= 0.  On level l >= 1 the eigenvalue is 1 / (mu + p^{alpha(l-N)}), so
    the gaps there are a_{l-N}.  Averages over balls containing B_N see
    only the total mass, so the constants' gap to level 1 is the certified
    gap sum p^N sum_{k <= -N} p^k a_k, for any alpha > 0.  sum_k a_k =
    1/mu, so the map is positivity preserving with L1 gain exactly 1/mu.
    """
    grid = op.grid
    if grid is None:
        raise DomainError("resolvent_apply needs a grid-bound operator")
    if not mu > 0:
        raise DomainError("resolvent parameter mu must be positive")
    p, a = op.p, op.alpha
    N, M = grid.N, grid.M
    head = float(p) ** N * next(_resolvent_sum(p, a, mu, [-N])).value
    gaps, _ = _resolvent_gaps(p, a, mu, np.arange(1 - N, M))
    levels = LevelOperator.from_gaps(grid, 1.0 / (mu + float(p) ** (M * a)),
                                     np.concatenate(([head], gaps)))
    return levels.apply(u)


# ---------------------------------------------------------------------------
# Green function (alpha > 1)
# ---------------------------------------------------------------------------

def _require_green_domain(alpha: float, mu: float):
    if not check_real("alpha", alpha) > 1:
        raise DomainError(f"the Green kernel needs alpha > 1, got {alpha}")
    if not check_real("mu", mu) > 0:
        raise DomainError("mu must be positive")


def green_kernel(p: int, alpha: float, mu: float,
                 shell: int | Sequence | None = None):
    """Certified E_mu(|x| = p^shell), or E_mu(0) if shell is None:
    E_mu(p^j) = sum_{k <= -j} p^k a_k, a sum of resolvent gaps >= 0.
    E_mu(0) is finite precisely because alpha > 1.  For a sequence of
    shells, the list of their KernelEvaluations, from one gap sum."""
    check_prime(p)
    _require_green_domain(alpha, mu)
    return _over_shells(shell, lambda shells: list(
        _resolvent_sum(p, alpha, mu, _tops(shells))))


def green_tail_constant(p: int, alpha: float, mu: float) -> float:
    """Leading far-field constant: E_mu(x) ~ -Gamma_p(alpha+1) mu^{-2} |x|^{-alpha-1}.

    Below mu ~ 1e-154 the constant leaves the double range, and it is
    then an infinity of its sign (mu^2 underflows to 0 below ~1e-162)."""
    _require_green_domain(alpha, mu)
    c, mu2 = -gamma_p(p, alpha + 1.0), mu * mu
    return c / mu2 if mu2 else math.copysign(math.inf, c)


def smoothness_modulus(p: int, alpha: float, mu: float, r: int) -> float:
    """Upper modulus of L1 continuity of E_mu at scale |h| = p^{-r}:

    Phi(p^{-r}) = 2 sum_{j > r} p^{-j} (1 - 1/p) |E(p^{-j}) - E(p^{-r})|,

    covering both the region |x| < |h| (where |x - h| = p^{-r}) and the
    shell |x| = |h|.  The sum runs to j = r + 60; its tail is controlled by
    E's limit at 0.  All 62 values come from one green_kernel call.
    """
    check_prime(p)
    _require_green_domain(alpha, mu)
    j_max = r + 60
    js = range(r + 1, j_max + 1)
    e_r, *e_js, e_0 = (ev.value for ev in green_kernel(
        p, alpha, mu, [-r] + [-j for j in js] + [None]))
    w = 1 - 1.0 / p
    total = 0.0
    for j, e_j in zip(js, e_js):
        total += float(p) ** (-j) * w * abs(e_j - e_r)
    cap = abs(e_0) + abs(e_r)
    total += cap * float(p) ** (-j_max - 1)  # tail of the j-sum
    return 2.0 * total
