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

from .errors import DomainError, ResourceError, SolverError, check_real
from .functions import RadialFunction, TestFunction
from .padic import (
    Ball,
    GridSpec,
    check_prime,
    gamma_p,
    rational_shell,
)
# the benchmark's tracer wraps fractional.int_valuation; nothing here calls it
from .padic import int_valuation  # noqa: F401

_POLE_GUARD = 1e-9
# Largest grid the n x n oracle ball_matrix builds: 128 MB of float64 at
# the cap.  A level operator's dense view is A @ np.eye(n).
DENSE_GRID_CAP = 4096


@dataclass(frozen=True)
class OperatorParams:
    """Exponent and prime for D^alpha, optionally bound to a grid."""

    p: int
    alpha: float
    grid: GridSpec | None = None

    def __post_init__(self):
        check_prime(self.p)
        if not check_real("alpha", self.alpha) > 0:
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
    try:
        return float(p) ** (alpha * (1 - N)) * (p - 1) / (float(p) ** (alpha + 1) - 1)
    except OverflowError:
        raise ArithmeticError(f"ball eigenvalue floor at p={p}, alpha={alpha}, "
                              f"N={N} leaves the double range") from None


def apply_to_indicator(params: OperatorParams, ball: Ball) -> RadialFunction:
    """Exact image D^alpha 1_B as a radial profile about the ball's center.

    For B of radius p^l the image at distance |y - c| = p^k is

        p^{-l alpha} (1 - 1/p) / (1 - p^{-alpha-1})          for k <= l,
        p^l Gamma_p(alpha+1) p^{-k(alpha+1)}                 for k > l,

    returned as a shell profile with a power tail; the image at y is
    value_at(y - c), and apply_testfunction_at sums it over the terms of a
    test function.
    """
    p, a = params.p, params.alpha
    if ball.p != p:
        raise DomainError("ball prime differs from operator prime")
    l = ball.radius_exp
    try:
        inside = float(p) ** (-l * a) * (1 - 1 / p) / (1 - float(p) ** (-a - 1))
    except OverflowError:
        raise ArithmeticError(f"image of 1_B at p={p}, alpha={a}, radius p^{l}"
                              " leaves the double range") from None
    if a + 1 == 1:  # the tail |y|^{-(alpha+1)} would not be integrable
        raise ArithmeticError(f"image of 1_B at p={p}, alpha={a}, radius p^{l}"
                              ": its tail exponent -(alpha + 1) rounds to -1,"
                              " so its mass leaves the double range")
    tail_c = float(p) ** l * gamma_p(p, a + 1)
    return RadialFunction(
        p,
        ((l, complex(inside)),),
        value_at_zero=complex(inside),
        tail=(complex(tail_c), -(a + 1)),
        head_constant=True,
    )


def apply_testfunction_at(params: OperatorParams, f: TestFunction, y) -> complex:
    """(D^alpha f)(y) by exact superposition of indicator images."""
    y = Fraction(y)
    total = 0j
    for c, b in f.terms:
        profile = apply_to_indicator(params, b)
        total += c * profile.value_at(y - b.center)
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


def hypersingular_quadrature(params: OperatorParams, f: TestFunction, x,
                             k_hi: int) -> tuple:
    """Shell quadrature for D^alpha f at x with a certified truncation bound.

    f is constant on the cosets of B_c, c = f.constancy_radius_exp(), so
    shells k <= c contribute exactly zero.  y -> f(x - y) is sampled once on
    the p^K cosets of B_{k_hi} / B_c (K = k_hi - c), the coset of y at index
    y p^{k_hi} mod p^K, term by term as to_grid samples, for any rational
    x.  With z = (x - b) p^{k_hi}, a term on B(b, p^r) with r <= k_hi adds
    its coefficient to the class of z mod p^{k_hi - r} when |z|_p <= 1; a
    wider one holds all of x - B_{k_hi} or none of it, and adds to every
    coset when |z|_p <= p^{r - k_hi}.  The sample is the grid
    GridSpec(p, k_hi, -c), refused above its cap before it is allocated.
    Cell i != 0 lies on the shell k_hi - v_p(i), so one bincount over the
    valuations sums every shell in [c + 1, k_hi].  Shells above
    k_hi are bounded by 2 sup|f| times the remaining geometric integral,
    with sup|f| exact (_sup_abs).  Returns (value, tail_bound); f = 0
    returns (0j, 0.0).
    """
    p, a = params.p, params.alpha
    kappa = params.hypersingular_coefficient
    sup = _sup_abs(f)
    if not sup:
        return 0j, 0.0
    c_exp = f.constancy_radius_exp()
    x = Fraction(x)

    total = 0j
    if c_exp < k_hi:
        grid = GridSpec(p, k_hi, -c_exp)
        sample = np.zeros(grid.dim, dtype=np.complex128)  # f(x - y) per coset
        for c, b in f.terms:
            z = (x - b.center) * Fraction(p) ** max(b.radius_exp, k_hi)
            if z.denominator % p:  # B(b, p^r) meets x - B_{k_hi}
                step = p ** max(k_hi - b.radius_exp, 0)
                start = z.numerator * pow(z.denominator, -1, step) % step
                sample[start::step] += c
        sample -= sample[0]  # f(x - y) - f(x); the cell of y = 0 holds f(x)
        K = k_hi - c_exp
        re = np.bincount(grid.valuations, sample.real, minlength=K + 1)
        im = np.bincount(grid.valuations, sample.imag, minlength=K + 1)
        cell = float(p) ** c_exp  # measure of one constancy coset
        for k in range(c_exp + 1, k_hi + 1):
            shell = complex(re[k_hi - k], im[k_hi - k])
            total += float(p) ** (-k * (a + 1)) * cell * shell

    tail = (abs(kappa) * 2 * sup * (1 - 1 / p)
            * float(p) ** (-(k_hi + 1) * a) / (1 - float(p) ** (-a)))
    return kappa * total, tail


def _sup_abs(f: TestFunction) -> float:
    """sup |f| exactly, from the raw terms; 0.0 for f = 0.

    Take a term ball B less the strictly smaller term balls inside it.
    The largest of those are disjoint, so that part is nonempty iff their
    measures sum to less than the measure of B.  On it f is the sum, in
    term order from 0j, of the coefficients of the term balls that hold
    B: the bits a coset there gets in the quadrature's sample.
    """
    balls = dict.fromkeys(b for _, b in f.terms)
    radii = sorted({b.radius_exp for b in balls})
    holders, covered = {}, dict.fromkeys(balls, Fraction(0))
    for b in balls:
        # the term balls that hold b, b first and then by radius
        above = [B for B in (Ball(f.p, b.center, r) for r in radii
                             if r >= b.radius_exp) if B in balls]
        holders[b] = set(above)
        if len(above) > 1:
            covered[above[1]] += b.measure
    sup = 0.0
    for b in balls:
        if covered[b] < b.measure:
            value = 0j
            for c, term in f.terms:
                if term in holders[b]:
                    value += c
            sup = max(sup, abs(value))
    return sup


@dataclass
class BallOperatorMatrix:
    """Dense matrix of the restricted operator on the grid B_N / B_{-M}."""

    grid: GridSpec
    matrix: np.ndarray
    lam: float


def ball_matrix(params: OperatorParams) -> BallOperatorMatrix:
    """Matrix B with B[i, j] = (D^alpha_N 1_{x_j + B_{-M}})(x_i).

    Entries depend only on (i - j) mod dim: B[d, 0] is the image of the
    zero coset's indicator (apply_to_indicator) at x_d, the inside value on
    the diagonal and the power tail at the exact p-adic distance off it.
    Row sums equal the constant-mode eigenvalue lambda.
    """
    grid = params.grid
    if grid is None:
        raise DomainError("ball_matrix needs an OperatorParams with a grid")
    dim = grid.dim
    if dim > DENSE_GRID_CAP:
        raise ResourceError(f"an n x n matrix at dim {dim} exceeds the "
                            f"dense cap {DENSE_GRID_CAP}")
    image = apply_to_indicator(params, Ball(params.p, 0, -grid.M))
    kernel = grid.radial(lambda k: image.value_at_shell(k).real)
    idx = (np.arange(dim)[:, None] - np.arange(dim)[None, :]) % dim
    lam = ball_eigenvalue_floor(params.p, params.alpha, grid.N)
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for real or complex x of shape (dim,) or (dim, k).

        The class sums S_L[r] = sum of x over the class r mod p^L are
        folded from the top level down, then each weight h_L is tiled back
        over its classes from level 0 up.  The k columns of x are k
        independent vectors: the folds and tiles act on the rows, so each
        column of the result is bit-identical to A applied to that column
        alone (see _top_sums for the one fold where that takes care)."""
        _check_rows(self.grid, x)
        p = self.grid.p
        sums = [x]
        for _ in self.h[1:]:
            sums.append(np.add.reduce(sums[-1].reshape(p, -1), 0))
        sums.append(_top_sums(sums[-1].reshape(p, -1)))
        t = self.h[0] * sums[-1]
        for h, s in zip(self.h[1:], sums[-2:0:-1]):
            t = (s.reshape(p, -1) * h + t).ravel()
        return (x.reshape(p, -1) * self.c + t).reshape(x.shape)

    __matmul__ = apply

    @property
    def nbytes(self) -> int:
        """Bytes of the weights that carry the operator."""
        return 8 * (len(self.h) + 1)

    def solve(self, d, b: np.ndarray, scale: float) -> np.ndarray:
        """Exact solution x of (diag(d) + scale A) x = b for real b of
        shape (dim,) or (dim, k).

        For b of shape (dim,), d is a scalar or a real array of that
        shape.  For b of shape (dim, k) each column is its own system, d
        is a scalar, a (k,) array (one diagonal constant per column) or a
        (dim, k) array, and each column of x is bit-identical to solving
        that column alone.

        Bottom-up Sherman-Morrison over the class tree: a class's block is
        the direct sum of its children's blocks plus g 1 1^T, g = scale h_L,
        so with Q the children's sum of 1^T M^{-1} 1 its pivot is 1 + g Q.
        The leaves' pivots are D = d + scale c.  With S the children's sum
        of 1^T M^{-1} b, a class's correction is gamma = g S / pivot, and a
        top-down pass accumulates phi = phi_parent / pivot + gamma, so
        x = (b - phi) / D on the leaves.  The pair (1 / D, b / D) is held
        as one (2, dim) or (2, dim, k) array, so each level folds Q and S
        in one reduction.  For d >= 0, scale >= 0 and h_L <= 0 every pivot
        of the SPD system is positive.  Each level's pivots are checked as
        they are formed, the leaves' before anything divides by them: a
        non-positive, infinite or NaN pivot raises SolverError, which for
        b of shape (dim, k) names the first column that hit one.
        """
        _check_rows(self.grid, b)
        p = self.grid.p
        D = np.asarray(d, dtype=np.float64) + scale * self.c
        _check_pivots(D, b)
        qs = np.empty((2,) + b.shape)
        np.divide(1.0, D, out=qs[0])
        np.divide(b, D, out=qs[1])
        pivots, gammas = [], []
        for L in range(len(self.h) - 1, -1, -1):
            g = scale * self.h[L]
            kids = qs.reshape(2, p, -1)
            qs = np.add.reduce(kids, 1) if L else _top_sums(kids)
            piv = g * qs[0]
            piv += 1.0
            _check_pivots(piv, b)
            qs /= piv
            pivots.append(piv)
            gammas.append(g * qs[1])
        phi = gammas[-1]
        for piv, gam in zip(pivots[-2::-1], gammas[-2::-1]):
            phi = phi / piv.reshape(p, -1)
            phi += gam.reshape(p, -1)
            phi = phi.ravel()
        x = (b.reshape(p, -1) - phi).reshape(b.shape)
        x /= D
        return x


def _check_rows(grid: GridSpec, x: np.ndarray) -> None:
    """x must hold one grid value per row: shape (dim,) or (dim, k), k > 0."""
    n = grid.dim
    if x.shape != (n,) and (x.ndim != 2 or x.shape[0] != n or not x.size):
        raise DomainError(f"level operator needs shape ({n},) or ({n}, k), "
                          f"got {x.shape}")


def _top_sums(kids: np.ndarray) -> np.ndarray:
    """The top fold: kids of shape (..., p, k) holds the p level-1 class
    sums of each of k columns (k = 1 for a single vector); returns their
    sums over the p axis.

    numpy adds a contiguous run pairwise (in blocks of eight numbers) but a
    strided axis row by row, and the two orders round differently once a
    run holds more than eight: p > 8 for real data, p > 4 for complex.  So
    each column's p sums are made one contiguous run, and a column rounds
    the same alone as in a batch.  Lower folds add rows of width >= 2 per
    column, row by row, alone or in a batch.
    """
    return np.add.reduce(np.ascontiguousarray(kids.swapaxes(-1, -2)), -1)


def _check_pivots(piv: np.ndarray, b: np.ndarray) -> None:
    if not (piv.min() > 0 and piv.max() < np.inf):
        message = "level solve hit a non-positive or non-finite pivot"
        if b.ndim == 1:
            raise SolverError(message)
        # piv is a scalar, (k,), (dim, k) or a flat level of classes
        # by k columns: its flat index mod k is the column
        bad = np.flatnonzero(~((piv > 0) & (piv < np.inf)))
        column = int(np.min(bad % b.shape[1]))
        raise SolverError(message, column=column)


def ball_spectrum(params: OperatorParams) -> np.ndarray:
    """Eigenvalues [mu_0, ..., mu_K] of the ball operator by level.

    Constants carry lambda; the (p - 1) p^{l-1} characters of level l >= 1
    have |xi| = p^{l-N} and carry |xi|^alpha (Kozyrev's wavelet basis).
    """
    grid = params.grid
    if grid is None:
        raise DomainError("ball_spectrum needs an OperatorParams with a grid")
    p, a, N = params.p, params.alpha, grid.N
    try:
        return np.array([ball_eigenvalue_floor(p, a, N)]
                        + [float(p) ** (a * (l - N))
                           for l in range(1, N + grid.M + 1)])
    except OverflowError:
        raise ArithmeticError(f"ball spectrum at p={p}, alpha={a}, N={N}, "
                              f"M={grid.M} leaves the double range") from None


def ball_levels(params: OperatorParams) -> LevelOperator:
    """The ball operator of ball_matrix in level form, from its spectrum."""
    mu = ball_spectrum(params)
    return LevelOperator.from_gaps(params.grid, mu[-1], mu[:-1] - mu[1:])


def exterior_constant(params: OperatorParams, u: TestFunction, N: int) -> complex:
    """R_N(u) = kappa * int_{|x| > p^N} |x|^{-alpha-1} u(x) dx, exactly.

    Term by term: a ball that contains 0 has canonical center 0 and splits
    into whole shells, and any other ball lies in the shell of its center
    (|x| constant on it); both integrate in closed form.
    """
    p, a = params.p, params.alpha
    if u.p != p:
        raise DomainError("prime mismatch")
    kappa = params.hypersingular_coefficient
    total = 0j
    for c, b in u.terms:
        l = b.radius_exp
        if b.center == 0:
            if l > N:
                # whole shells N+1 .. l of B(0, p^l) lie outside B_N
                total += c * sum((1 - 1 / p) * float(p) ** (-k * a)
                                 for k in range(N + 1, l + 1))
        else:
            s = rational_shell(p, b.center)  # |x| = p^s on the ball (s > l)
            if s > N:
                total += c * float(p) ** l * float(p) ** (-s * (a + 1))
    return kappa * total


def restrict_to_ball(f: TestFunction, ball: Ball) -> TestFunction:
    """f * 1_B, exactly: balls are nested or disjoint, so a term on B_i
    keeps the smaller of B_i and B when they are nested and drops otherwise."""
    if f.p != ball.p:
        raise DomainError("prime mismatch")
    return TestFunction(f.p, tuple(
        (c, b if b.radius_exp <= ball.radius_exp else ball) for c, b in f.terms
        if b.subset_of(ball) or ball.subset_of(b)))
