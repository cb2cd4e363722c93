"""Exact p-adic structure on the points of Z[1/p].

Every point the package handles (ball centers, grid representatives,
quadrature nodes) is a rational with p-power denominator, held exactly as
a fractions.Fraction, so all structural quantities (absolute value, ball
membership, ball measure) are exact.  The digit text "j:d,..." for
sum_j d_j p^j is a text format only: parse_point reads it and
functions.write_grid_csv writes it.  Real analytic quantities (the gamma
factor, kernel values) live in ordinary doubles elsewhere in the package.
GridSpec is the finite model of a ball that all grid code works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, ResourceError, check_int


def check_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"p must be a prime integer, got {p!r}")
    if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"p must be prime, got {p}")
    return p


def int_valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n; n must be nonzero."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(p: int, q: Fraction):
    """p-adic valuation of a rational, None for 0."""
    q = Fraction(q)
    if q == 0:
        return None
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def rational_abs(p: int, q: Fraction) -> Fraction:
    """|q|_p as an exact Fraction (0 for q = 0)."""
    v = rational_valuation(p, q)
    if v is None:
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def rational_shell(p: int, q: Fraction):
    """Shell exponent k with |q|_p = p^k, None for q = 0."""
    v = rational_valuation(p, q)
    return None if v is None else -v


def parse_point(p: int, text: str) -> Fraction:
    """The point a text names: digits "j:d,..." for sum_j d_j p^j (digits
    in [0, p), distinct exponents; "0" is zero) or a rational such as
    "3/2".  Either way it is a nonnegative rational whose denominator is a
    power of p; anything else raises DomainError."""
    check_prime(p)
    text = text.strip()
    if ":" not in text:
        try:
            x = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"point {text!r} is neither a rational nor "
                              "digits j:d,...") from exc
        if x < 0:
            raise DomainError(f"point {text} is negative; points are "
                              "written as nonnegative rationals")
        _check_denominator(p, x)
        return x
    x, seen = Fraction(0), set()
    for token in text.split(","):
        j, _, d = token.partition(":")
        try:
            j, d = int(j), int(d)
        except ValueError as exc:
            raise DomainError(f"bad digit token {token!r}") from exc
        if not 0 <= d < p:
            raise DomainError(f"digit {d} out of range for p={p}")
        if j in seen:
            raise DomainError(f"duplicate exponent {j}")
        seen.add(j)
        x += d * Fraction(p) ** j
    return x


def _check_denominator(p: int, x: Fraction) -> None:
    den = x.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise DomainError(f"denominator of {x} is not a power of p={p}")


@dataclass(frozen=True)
class Ball:
    """Ball {|x - center| <= p^radius_exp}; the stored center is canonical.

    Two centers describe the same ball iff they differ by an integer
    multiple of p^{-radius_exp}, so the canonical center is the one in
    [0, p^{-radius_exp}): for a center a / p^k with p not dividing a it is
    (a mod p^{k - radius_exp}) / p^k, and 0 when k <= radius_exp.
    Dataclass equality then coincides with set equality.
    """

    p: int
    center: Fraction
    radius_exp: int

    def __post_init__(self):
        check_prime(self.p)
        r = int(self.radius_exp)
        center = Fraction(self.center)
        _check_denominator(self.p, center)
        object.__setattr__(self, "radius_exp", r)
        object.__setattr__(self, "center", center % Fraction(self.p) ** -r)

    @property
    def measure(self) -> Fraction:
        p, l = self.p, self.radius_exp
        return Fraction(p**l) if l >= 0 else Fraction(1, p ** (-l))

    def contains_value(self, q) -> bool:
        """|q - center|_p <= p^radius_exp."""
        q = Fraction(q)
        return self.contains_reduced(q.numerator, q.denominator,
                                     int_valuation(q.denominator, self.p))

    def contains_reduced(self, a: int, b: int, vb: int) -> bool:
        """contains_value(a / b) for a / b in lowest terms, b > 0 and
        vb = v_p(b), in integers only.  With the center n / p^k and
        e = vb + k - radius_exp, a / b - n / p^k = (a p^k - n b) / (b p^k)
        has |.|_p <= p^radius_exp iff e <= 0 or p^e divides a p^k - n b."""
        n, pk, shift = self._membership
        e = vb + shift
        return e <= 0 or (a * pk - n * b) % self.p**e == 0

    @cached_property
    def _membership(self) -> tuple:
        """(n, p^k, k - radius_exp) for the canonical center n / p^k."""
        pk = self.center.denominator
        return (self.center.numerator, pk,
                int_valuation(pk, self.p) - self.radius_exp)

    def subset_of(self, other: "Ball") -> bool:
        return (self.radius_exp <= other.radius_exp
                and other.contains_value(self.center))


_GAMMA_POLE_GUARD = 1e-9


def gamma_p(p: int, z: float) -> float:
    """p-adic gamma factor (1 - p^{z-1}) / (1 - p^{-z}).

    Simple pole at z = 0 and zero at z = 1; evaluation within 1e-9 of the
    pole raises rather than returning a huge unstable value.
    """
    check_prime(p)
    z = float(z)
    if abs(z) <= _GAMMA_POLE_GUARD:
        raise DomainError(f"gamma_p pole at z=0 (requested z={z})")
    return (1.0 - p ** (z - 1.0)) / (1.0 - p ** (-z))


# Largest grid a GridSpec describes.  Grid paths hold O(n) arrays; the few
# that build an n x n one (fractional.ball_matrix, LevelOperator.dense)
# check their own, smaller limit before they allocate.
LEVEL_GRID_CAP = 2**20


@dataclass(frozen=True)
class GridSpec:
    """Finite model of the ball B_N at resolution p^{-M}.

    Coset representatives of B_N / B_{-M} are x = i / p^N for the integer
    index i in [0, p^{N+M}), the points sum_{j=-N}^{M-1} d_j p^j.  Under
    this map the quotient group is Z / p^{N+M}: adding representatives and
    reducing modulo p^M is integer addition mod dim.
    """

    p: int
    N: int
    M: int

    def __post_init__(self):
        check_prime(self.p)
        check_int("N", self.N)
        check_int("M", self.M)
        if self.N + self.M < 1:
            raise DomainError(f"need N + M >= 1, got N={self.N}, M={self.M}")
        if self.dim > LEVEL_GRID_CAP:
            raise ResourceError(f"grid dimension p^(N+M) = {self.dim} exceeds "
                                f"cap {LEVEL_GRID_CAP}")

    @property
    def dim(self) -> int:
        return self.p ** (self.N + self.M)

    @property
    def coset_measure(self) -> Fraction:
        return Fraction(1, self.p**self.M) if self.M >= 0 else Fraction(self.p ** (-self.M))

    def representative(self, i: int) -> Fraction:
        if not 0 <= i < self.dim:
            raise DomainError(f"index {i} out of range [0, {self.dim})")
        return Fraction(i) / Fraction(self.p) ** self.N

    def index_of(self, x: Fraction) -> int:
        """Index of the coset of x; digits below -N are not representable."""
        scaled = Fraction(x) * Fraction(self.p) ** self.N
        if scaled.denominator != 1:
            raise DomainError(f"{x} lies outside B_N at N={self.N}")
        return int(scaled) % self.dim

    @cached_property
    def valuations(self) -> np.ndarray:
        """v_p(i) per index, K = N + M on the zero coset; read-only.

        Cell i != 0 lies on the shell |x_i| = p^{N - v_p(i)}.  Built in K
        strided passes: pass L adds one to every multiple of p^L.
        """
        K = self.N + self.M
        v = np.zeros(self.dim, dtype=np.int8)
        for L in range(1, K + 1):
            v[::self.p**L] += 1
        v.flags.writeable = False
        return v

    def radial(self, f) -> np.ndarray:
        """Gather a radial profile onto the grid: f(k) for cells on the shell
        |x| = p^k and f(None) for the zero coset, one f call per shell."""
        K = self.N + self.M
        shells = [f(self.N - v) for v in range(K)] + [f(None)]
        return np.array(shells)[self.valuations]

