"""The fractional operator D^alpha on Q_p and its restriction to a ball.

Closed forms are preferred wherever they exist (indicator images, radial
powers, grid matrix entries); the hypersingular shell quadrature is kept as
an independent cross-check and always returns a certified truncation bound
alongside the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceError, SolverError
from .functions import RadialFunction, TestFunction
from .padic import (
    Ball,
    GridSpec,
    PAdicExpansion,
    check_prime,
    gamma_p,
    int_valuation,
    rational_shell,
)

_POLE_GUARD = 1e-9


@dataclass(frozen=True)
class OperatorParams:
    """Exponent and prime for D^alpha, optionally bound to a grid."""

    p: int
    alpha: float
    grid: GridSpec | None = None

    def __post_init__(self):
        check_prime(self.p)
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.grid is not None and self.grid.p != self.p:
            raise DomainError("grid prime differs from operator prime")

    @property
    def hypersingular_coefficient(self) -> float:
        """kappa in D^a f(x) = kappa * int (f(x-y) - f(x)) |y|^{-a-1} dy."""
        p, a = self.p, self.alpha
        return (1.0 - p**a) / (1.0 - p ** (-a - 1.0))


def ball_eigenvalue_floor(p: int, alpha: float, N: int) -> float:
    """Smallest eigenvalue of the ball operator on B_N.

    The constant mode of the restricted operator carries
    lambda = p^{alpha(1-N)} (p-1) / (p^{alpha+1} - 1); every nonconstant
    mode carries |xi|^alpha >= p^{alpha(1-N)} > lambda.
    """
    check_prime(p)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    return float(p) ** (alpha * (1 - N)) * (p - 1) / (float(p) ** (alpha + 1) - 1)


def apply_to_indicator(params: OperatorParams, ball: Ball) -> RadialFunction:
    """Exact image D^alpha 1_B as a radial profile about the ball's center.

    For B of radius p^l the image at distance |y - c| = p^k is

        p^{-l alpha} (1 - 1/p) / (1 - p^{-alpha-1})          for k <= l,
        p^l Gamma_p(alpha+1) p^{-k(alpha+1)}                 for k > l,

    returned as a shell profile with a power tail; evaluate the image at y
    via value_at(y - c) or through evaluate_indicator_image.
    """
    p, a = params.p, params.alpha
    if ball.p != p:
        raise DomainError("ball prime differs from operator prime")
    l = ball.radius_exp
    inside = float(p) ** (-l * a) * (1 - 1 / p) / (1 - float(p) ** (-a - 1))
    tail_c = float(p) ** l * gamma_p(p, a + 1)
    return RadialFunction(
        p,
        ((l, complex(inside)),),
        value_at_zero=complex(inside),
        tail=(complex(tail_c), -(a + 1)),
        head_constant=True,
    )


def evaluate_indicator_image(params: OperatorParams, ball: Ball, y) -> complex:
    """(D^alpha 1_B)(y) exactly, y a PAdicExpansion or Fraction."""
    profile = apply_to_indicator(params, ball)
    yv = y.value if isinstance(y, PAdicExpansion) else Fraction(y)
    return profile.value_at(yv - ball.center.value)


def apply_testfunction_at(params: OperatorParams, f: TestFunction, y) -> complex:
    """(D^alpha f)(y) by exact superposition of indicator images."""
    yv = y.value if isinstance(y, PAdicExpansion) else Fraction(y)
    total = 0j
    for c, b in f.terms:
        profile = apply_to_indicator(params, b)
        total += c * profile.value_at(yv - b.center.value)
    return total


def apply_radial_power(params: OperatorParams, beta: float) -> tuple:
    """D^alpha |x|^beta = C |x|^{beta - alpha} with
    C = Gamma_p(beta+1) / Gamma_p(beta-alpha+1); returns (C, beta-alpha).

    The quotient degenerates at beta = -1 (numerator pole), beta = alpha
    (denominator zero) and beta = alpha - 1 (denominator pole); those are
    rejected rather than silently returning 0 or inf.
    """
    p, a = params.p, params.alpha
    b = float(beta)
    for bad, reason in ((-1.0, "numerator pole"), (a, "denominator zero"),
                        (a - 1.0, "denominator pole")):
        if abs(b - bad) <= _POLE_GUARD:
            raise DomainError(f"radial power beta={b} hits {reason}")
    c = gamma_p(p, b + 1.0) / gamma_p(p, b - a + 1.0)
    return c, b - a


_MAX_QUADRATURE_NODES = 1 << 18


def hypersingular_quadrature(params: OperatorParams, f, x,
                             k_lo: int, k_hi: int,
                             constancy_exp: int | None = None,
                             sup_bound: float | None = None) -> tuple:
    """Shell quadrature for D^alpha f at x with a certified truncation bound.

    f may be a TestFunction (local constancy and sup bound are derived) or a
    plain callable on Fractions, in which case constancy_exp and sup_bound
    must be supplied by the caller.  Shells k <= constancy_exp contribute
    exactly zero; shells above k_hi are bounded by 2 sup|f| times the
    remaining geometric integral.  Returns (value, tail_bound).
    """
    p, a = params.p, params.alpha
    kappa = params.hypersingular_coefficient

    if isinstance(f, TestFunction):
        g = f.canonicalize()
        c_exp = g.constancy_radius_exp()
        if c_exp is None:
            return 0j, 0.0
        sup = max(abs(c) for c, _ in g.terms)
        evaluate = g.value_at
    else:
        if constancy_exp is None or sup_bound is None:
            raise DomainError(
                "callable integrands need explicit constancy_exp and sup_bound")
        c_exp, sup, evaluate = int(constancy_exp), float(sup_bound), f

    xv = x.value if isinstance(x, PAdicExpansion) else Fraction(x)
    fx = evaluate(xv)

    lo = max(k_lo, c_exp + 1)
    nodes = sum(p ** (k - c_exp) - p ** (k - c_exp - 1)
                for k in range(lo, k_hi + 1))
    if nodes > _MAX_QUADRATURE_NODES:
        raise ResourceError(f"quadrature needs {nodes} nodes, cap is "
                            f"{_MAX_QUADRATURE_NODES}")

    cell = float(p) ** c_exp  # measure of one constancy coset
    total = 0j
    for k in range(lo, k_hi + 1):
        shell = 0j
        # coset representatives m p^{-k} + B_{c_exp}, p not dividing m
        for m in range(1, p ** (k - c_exp)):
            if m % p == 0:
                continue
            y = Fraction(m, p**k) if k >= 0 else Fraction(m * p ** (-k))
            shell += evaluate(xv - y) - fx
        total += float(p) ** (-k * (a + 1)) * cell * shell

    tail = (abs(kappa) * 2 * sup * (1 - 1 / p)
            * float(p) ** (-(k_hi + 1) * a) / (1 - float(p) ** (-a)))
    return kappa * total, tail


@dataclass
class BallOperatorMatrix:
    """Dense matrix of the restricted operator on the grid B_N / B_{-M}."""

    grid: GridSpec
    matrix: np.ndarray
    lam: float


def ball_matrix(params: OperatorParams) -> BallOperatorMatrix:
    """Matrix B with B[i, j] = (D^alpha_N 1_{x_j + B_{-M}})(x_i).

    Entries depend only on (i - j) mod dim: the diagonal carries the inside
    value of the coset-indicator image and off-diagonal entries the power
    tail at the exact p-adic distance.  Row sums equal the constant-mode
    eigenvalue lambda.
    """
    grid = params.grid
    if grid is None:
        raise DomainError("ball_matrix needs an OperatorParams with a grid")
    p, a = params.p, params.alpha
    N, M, dim = grid.N, grid.M, grid.dim

    kernel = np.empty(dim, dtype=np.float64)
    kernel[0] = float(p) ** (M * a) * (1 - 1 / p) / (1 - float(p) ** (-a - 1))
    gp = gamma_p(p, a + 1.0)
    for d in range(1, dim):
        k = N - int_valuation(d, p)  # |x_i - x_j| = p^k, exact
        kernel[d] = float(p) ** (-M) * gp * float(p) ** (-k * (a + 1))

    idx = (np.arange(dim)[:, None] - np.arange(dim)[None, :]) % dim
    lam = ball_eigenvalue_floor(p, a, N)
    return BallOperatorMatrix(grid, kernel[idx], lam)


@dataclass(frozen=True)
class LevelOperator:
    """A = c I + sum_{L<K} h_L E_L on the grid B_N / B_{-M}, K = N + M.

    E_L[i, j] = [i = j mod p^L] sums over the residue classes mod p^L, the
    balls of radius p^{N-L} in index form.  Every operator that depends on
    the p-adic distance alone has this form, so K + 1 weights carry it.
    On level l, the characters j with v_p(j) = K - l (level 0 holds the
    constants), A has the eigenvalue mu_l = c + sum_{L>=l} h_L p^{K-L}.
    Class sums fold bottom-up (class i mod p^L is the union of its p
    children i + t p^L mod p^{L+1}) and weighted sums tile back top-down,
    so apply and solve cost O(n) work in O(K) numpy calls on reshaped
    views, and no n x n array is formed.
    """

    grid: GridSpec
    c: float
    h: tuple          # h_0 .. h_{K-1}

    @classmethod
    def from_gaps(cls, grid: GridSpec, top: float, gaps) -> "LevelOperator":
        """The operator with mu_K = top and mu_L - mu_{L+1} = gaps[L], gaps
        that callers form free of cancellation: h_L = gaps[L] p^{L-K}."""
        p, K = float(grid.p), grid.N + grid.M
        return cls(grid, float(top),
                   tuple(float(g) * p ** (L - K) for L, g in enumerate(gaps)))

    def class_sums(self, x: np.ndarray) -> list:
        """[S_0, ..., S_{K-1}], S_L[r] = sum of x over the class r mod p^L."""
        p = self.grid.p
        sums = []
        for _ in self.h:
            x = np.add.reduce(x.reshape(p, -1), 0)
            sums.append(x)
        return sums[::-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for real or complex x of shape (dim,)."""
        if x.shape != (self.grid.dim,):
            raise DomainError(f"level operator needs shape ({self.grid.dim},)")
        p = self.grid.p
        sums = self.class_sums(x)
        t = self.h[0] * sums[0]
        for h, s in zip(self.h[1:], sums[1:]):
            t = (s.reshape(p, -1) * h + t).ravel()
        return (x.reshape(p, -1) * self.c + t).ravel()

    __matmul__ = apply

    def __rmul__(self, s: float) -> "LevelOperator":
        return LevelOperator(self.grid, s * self.c, tuple(s * h for h in self.h))

    @property
    def nbytes(self) -> int:
        """Bytes of the weights that carry the operator."""
        return 8 * (len(self.h) + 1)

    def dense(self) -> np.ndarray:
        """The n x n matrix, entry by entry; an oracle for small grids."""
        p, n = self.grid.p, self.grid.dim
        i = np.arange(n)
        diff = i[:, None] - i[None, :]
        out = self.c * np.eye(n)
        for L, h in enumerate(self.h):
            out += h * (diff % p**L == 0)
        return out

    def solve(self, d, b: np.ndarray, scale: float) -> np.ndarray:
        """Exact solution x of (diag(d) + scale A) x = b.

        Bottom-up Sherman-Morrison over the class tree: a class's block is
        the direct sum of its children's blocks plus g 1 1^T, g = scale h_L,
        so with Q the children's sum of 1^T M^{-1} 1 its pivot is 1 + g Q.
        The leaves' pivots are d + scale c.  With S the children's sum of
        1^T M^{-1} b, a class's correction is gamma = g S / pivot, and a
        top-down pass accumulates phi = phi_parent / pivot + gamma, so
        x = (b - phi) / (d + scale c) on the leaves.  For d >= 0,
        scale >= 0 and h_L <= 0 every pivot of the SPD system is positive;
        a non-positive or non-finite one raises SolverError.
        """
        p, n = self.grid.p, self.grid.dim
        D = np.broadcast_to(np.asarray(d, dtype=np.float64) + scale * self.c,
                            (n,))
        pivots, gammas = [D], []
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 1.0 / D
            s = b / D
            for h in self.h[::-1]:
                g = scale * h
                Q = np.add.reduce(q.reshape(p, -1), 0)
                S = np.add.reduce(s.reshape(p, -1), 0)
                piv = 1.0 + g * Q
                q, s = Q / piv, S / piv
                pivots.append(piv)
                gammas.append(g * s)
        flat = np.concatenate(pivots)
        if not np.all((flat > 0) & (flat < np.inf)):
            raise SolverError("level solve hit a non-positive or non-finite "
                              "pivot")
        phi = gammas[-1]
        for piv, gam in zip(pivots[-2:0:-1], gammas[-2::-1]):
            phi = (phi / piv.reshape(p, -1) + gam.reshape(p, -1)).ravel()
        return ((b.reshape(p, -1) - phi) / D.reshape(p, -1)).ravel()


def ball_spectrum(params: OperatorParams) -> np.ndarray:
    """Eigenvalues [mu_0, ..., mu_K] of the ball operator by level.

    Constants carry lambda; the (p - 1) p^{l-1} characters of level l >= 1
    have |xi| = p^{l-N} and carry |xi|^alpha (Kozyrev's wavelet basis).
    """
    grid = params.grid
    if grid is None:
        raise DomainError("ball_spectrum needs an OperatorParams with a grid")
    p, a, N = params.p, params.alpha, grid.N
    return np.array([ball_eigenvalue_floor(p, a, N)]
                    + [float(p) ** (a * (l - N))
                       for l in range(1, N + grid.M + 1)])


def ball_levels(params: OperatorParams) -> LevelOperator:
    """The ball operator of ball_matrix in level form, from its spectrum."""
    mu = ball_spectrum(params)
    return LevelOperator.from_gaps(params.grid, mu[-1], mu[:-1] - mu[1:])


def exterior_constant(params: OperatorParams, u: TestFunction, N: int) -> complex:
    """R_N(u) = kappa * int_{|x| > p^N} |x|^{-alpha-1} u(x) dx, exactly.

    Canonical balls either avoid the exterior region, sit in a single shell
    (|x| constant on them), or are centered at 0 and decompose into whole
    shells; all three cases integrate in closed form.
    """
    p, a = params.p, params.alpha
    if u.p != p:
        raise DomainError("prime mismatch")
    kappa = params.hypersingular_coefficient
    g = u.canonicalize()
    total = 0j
    for c, b in g.terms:
        l = b.radius_exp
        cv = b.center.value
        if cv == 0:
            if l > N:
                # whole shells N+1 .. l of B(0, p^l) lie outside B_N
                total += c * sum((1 - 1 / p) * float(p) ** (-k * a)
                                 for k in range(N + 1, l + 1))
        else:
            s = rational_shell(p, cv)  # |x| = p^s on the whole ball (s > l)
            if s > N:
                total += c * float(p) ** l * float(p) ** (-s * (a + 1))
    return kappa * total


def restrict_to_ball(f: TestFunction, ball: Ball) -> TestFunction:
    """f * 1_B as a test function (exact multiplication by an indicator)."""
    if f.p != ball.p:
        raise DomainError("prime mismatch")
    if not f.terms:
        return f
    r = min(ball.radius_exp, f.constancy_radius_exp())
    g = TestFunction(f.p, f.terms + ((0j, Ball(ball.center, r)),)).canonicalize()
    kept = tuple((c, b) for c, b in g.terms if b.subset_of(ball))
    return TestFunction(f.p, kept)


def mass_of_image(params: OperatorParams, ball: Ball) -> float:
    """Total integral of D^alpha 1_B; vanishes identically (mass cancellation).

    Computed from the exact profile rather than asserted, so tests can pin
    the cancellation numerically.
    """
    profile = apply_to_indicator(params, ball)
    return float(abs(profile.integral()))
