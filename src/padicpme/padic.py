"""Exact arithmetic for p-adic numbers with finite expansions.

A number is a sparse digit map {exponent j -> digit in [1, p)} encoding
x = sum_j d_j p^j.  Every number of that shape is a nonnegative rational
with p-power denominator, so all structural quantities (absolute value,
fractional part, ball membership, Haar measure) are computed exactly with
fractions.Fraction.  Real analytic quantities (the gamma factor, kernel
values) live in ordinary doubles elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, ResourceError


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


def rational_fractional_part(p: int, q: Fraction) -> Fraction:
    """{q}_p for any rational q.

    The fractional part depends only on q mod Z_p.  Writing q = a / (d p^k)
    with p not dividing d, the prime-to-p factor d is a unit in Z_p, so
    {q}_p = (a d^{-1} mod p^k) / p^k with the inverse taken mod p^k.  This
    covers negative rationals, which have no finite expansion but a
    perfectly good fractional part.
    """
    q = Fraction(q)
    den = q.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    a = q.numerator * pow(den, -1, p**k)
    return Fraction(a % p**k, p**k)


@dataclass(frozen=True)
class PAdicExpansion:
    """Finite canonical expansion sum_j d_j p^j with digits d_j in [1, p)."""

    p: int
    digits: tuple = ()

    def __post_init__(self):
        check_prime(self.p)
        cleaned = []
        seen = set()
        for j, d in self.digits:
            j, d = int(j), int(d)
            if not 0 <= d < self.p:
                raise DomainError(f"digit {d} out of range for p={self.p}")
            if j in seen:
                raise DomainError(f"duplicate exponent {j}")
            seen.add(j)
            if d:
                cleaned.append((j, d))
        object.__setattr__(self, "digits", tuple(sorted(cleaned)))

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdicExpansion":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PAdicExpansion":
        return cls(p, ((0, 1),))

    @classmethod
    def from_digits(cls, p: int, mapping) -> "PAdicExpansion":
        return cls(p, tuple(dict(mapping).items()))

    @classmethod
    def from_integer(cls, p: int, n: int) -> "PAdicExpansion":
        if n < 0:
            raise DomainError("negative integers have no finite expansion")
        digits, j = [], 0
        while n:
            n, d = divmod(n, p)
            if d:
                digits.append((j, d))
            j += 1
        return cls(p, tuple(digits))

    @classmethod
    def from_rational(cls, p: int, q) -> "PAdicExpansion":
        """Exact expansion of a nonnegative rational with p-power denominator."""
        q = Fraction(q)
        if q < 0:
            raise DomainError("negative rationals have no finite expansion")
        den = q.denominator
        k = 0
        while den % p == 0:
            den //= p
            k += 1
        if den != 1:
            raise DomainError(f"denominator of {q} is not a power of p={p}")
        return cls.from_integer(p, q.numerator).shift(-k)

    # ---- textual encoding ---------------------------------------------

    def encode(self) -> str:
        """"j:d,..." sorted by exponent; "0" encodes zero."""
        if not self.digits:
            return "0"
        return ",".join(f"{j}:{d}" for j, d in self.digits)

    @classmethod
    def parse(cls, p: int, text: str) -> "PAdicExpansion":
        text = text.strip()
        if text == "0":
            return cls.zero(p)
        pairs = []
        for token in text.split(","):
            j, _, d = token.partition(":")
            try:
                pairs.append((int(j), int(d)))
            except ValueError as exc:
                raise DomainError(f"bad expansion token {token!r}") from exc
        return cls(p, tuple(pairs))

    # ---- structure -----------------------------------------------------

    @property
    def value(self) -> Fraction:
        return sum((Fraction(d) * Fraction(self.p) ** j for j, d in self.digits),
                   Fraction(0))

    def is_zero(self) -> bool:
        return not self.digits

    def valuation(self):
        return self.digits[0][0] if self.digits else None

    def abs_value(self) -> Fraction:
        """|x|_p = p^{-v} with v the least exponent carrying a digit."""
        v = self.valuation()
        if v is None:
            return Fraction(0)
        return Fraction(1, self.p**v) if v >= 0 else Fraction(self.p ** (-v))

    def shell_exponent(self):
        """k with |x|_p = p^k, None for zero."""
        v = self.valuation()
        return None if v is None else -v

    def fractional_part(self) -> Fraction:
        return sum((Fraction(d, self.p ** (-j)) for j, d in self.digits if j < 0),
                   Fraction(0))

    def character(self) -> complex:
        """Additive character exp(2 pi i {x}_p); the angle {x}_p is exact."""
        return cmath.exp(2j * cmath.pi * float(self.fractional_part()))

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "PAdicExpansion") -> "PAdicExpansion":
        self._check_compatible(other)
        counts: dict = {}
        for j, d in self.digits:
            counts[j] = counts.get(j, 0) + d
        for j, d in other.digits:
            counts[j] = counts.get(j, 0) + d
        return PAdicExpansion(self.p, _carried(self.p, counts))

    def __mul__(self, other: "PAdicExpansion") -> "PAdicExpansion":
        self._check_compatible(other)
        counts: dict = {}
        for j1, d1 in self.digits:
            for j2, d2 in other.digits:
                counts[j1 + j2] = counts.get(j1 + j2, 0) + d1 * d2
        return PAdicExpansion(self.p, _carried(self.p, counts))

    def shift(self, k: int) -> "PAdicExpansion":
        """Multiply by p^k (digit shift, no carrying needed)."""
        return PAdicExpansion(self.p, tuple((j + k, d) for j, d in self.digits))

    def keep_below(self, exponent: int) -> "PAdicExpansion":
        """Drop digits at exponents >= exponent (reduction mod p^exponent Z_p)."""
        return PAdicExpansion(self.p, tuple((j, d) for j, d in self.digits
                                            if j < exponent))

    def distance(self, other: "PAdicExpansion") -> Fraction:
        """|x - y|_p, computed on the underlying rationals."""
        self._check_compatible(other)
        return rational_abs(self.p, self.value - other.value)

    def _check_compatible(self, other):
        if not isinstance(other, PAdicExpansion) or other.p != self.p:
            raise DomainError("operands must share the same prime p")

    def __repr__(self):
        return f"PAdic(p={self.p}, {self.encode()})"


def _carried(p: int, counts: dict) -> tuple:
    """Schoolbook base-p carrying of a nonnegative digit multiset."""
    if not counts:
        return ()
    out = []
    carry = 0
    j = min(counts)
    hi = max(counts)
    while j <= hi or carry:
        carry, digit = divmod(counts.get(j, 0) + carry, p)
        if digit:
            out.append((j, digit))
        j += 1
    return tuple(out)


# ---- thin functional API mirrors --------------------------------------

def abs_value(x: PAdicExpansion) -> Fraction:
    return x.abs_value()


def fractional_part(x: PAdicExpansion) -> Fraction:
    return x.fractional_part()


def character(x: PAdicExpansion) -> complex:
    return x.character()


@dataclass(frozen=True)
class Ball:
    """Ball {|x - center| <= p^radius_exp}; the stored center is canonical.

    Two centers describe the same ball iff they agree modulo p^{-radius_exp} Z_p,
    so the canonical representative keeps only digits at exponents below
    -radius_exp.  Dataclass equality then coincides with set equality.
    """

    center: PAdicExpansion
    radius_exp: int

    def __post_init__(self):
        object.__setattr__(self, "radius_exp", int(self.radius_exp))
        object.__setattr__(self, "center", self.center.keep_below(-self.radius_exp))

    @property
    def p(self) -> int:
        return self.center.p

    @property
    def measure(self) -> Fraction:
        p, l = self.p, self.radius_exp
        return Fraction(p**l) if l >= 0 else Fraction(1, p ** (-l))

    def radius(self) -> Fraction:
        return self.measure  # radius p^l equals the Haar measure

    def contains_value(self, q) -> bool:
        return rational_abs(self.p, Fraction(q) - self.center.value) <= self.measure

    def contains(self, x) -> bool:
        if isinstance(x, PAdicExpansion):
            return self.contains_value(x.value)
        return self.contains_value(x)

    def intersects(self, other: "Ball") -> bool:
        # ultrametric dichotomy: balls are nested or disjoint
        gap = rational_abs(self.p, self.center.value - other.center.value)
        return gap <= max(self.measure, other.measure)

    def subset_of(self, other: "Ball") -> bool:
        return self.radius_exp <= other.radius_exp and other.contains(self.center)

    def subballs(self, radius_exp: int) -> list:
        """Disjoint refinement into balls of radius p^radius_exp."""
        if radius_exp > self.radius_exp:
            raise DomainError("refinement radius must not exceed the ball radius")
        span = self.radius_exp - radius_exp
        out = []
        for n in range(self.p**span):
            offset = PAdicExpansion.from_integer(self.p, n).shift(-self.radius_exp)
            out.append(Ball(self.center + offset, radius_exp))
        return out

    def __repr__(self):
        return f"Ball(center={self.center.encode()}, radius_exp={self.radius_exp})"


def unit_ball(p: int, radius_exp: int = 0, center: PAdicExpansion | None = None) -> Ball:
    return Ball(center if center is not None else PAdicExpansion.zero(p), radius_exp)


def haar_measure(ball: Ball) -> Fraction:
    return ball.measure


def shell_measure(p: int, k: int) -> Fraction:
    """Haar measure of the sphere {|x|_p = p^k}: p^k (1 - 1/p)."""
    check_prime(p)
    pk = Fraction(p**k) if k >= 0 else Fraction(1, p ** (-k))
    return pk * (1 - Fraction(1, p))


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


@dataclass(frozen=True)
class GridSpec:
    """Finite model of the ball B_N at resolution p^{-M}.

    Coset representatives of B_N / B_{-M} are x = sum_{j=-N}^{M-1} d_j p^j,
    enumerated by the integer index i = x * p^N in [0, p^{N+M}).  Under this
    map the quotient group is Z / p^{N+M}: adding representatives with digit
    carrying and dropping digits at exponents >= M is integer addition mod dim.
    """

    p: int
    N: int
    M: int
    cap: int = 4096

    def __post_init__(self):
        check_prime(self.p)
        if self.N + self.M < 1:
            raise DomainError(f"need N + M >= 1, got N={self.N}, M={self.M}")
        if self.dim > self.cap:
            raise ResourceError(
                f"grid dimension p^(N+M) = {self.dim} exceeds cap {self.cap}")

    @property
    def dim(self) -> int:
        return self.p ** (self.N + self.M)

    @property
    def coset_measure(self) -> Fraction:
        return Fraction(1, self.p**self.M) if self.M >= 0 else Fraction(self.p ** (-self.M))

    def representative(self, i: int) -> PAdicExpansion:
        if not 0 <= i < self.dim:
            raise DomainError(f"index {i} out of range [0, {self.dim})")
        return PAdicExpansion.from_integer(self.p, i).shift(-self.N)

    def representatives(self) -> list:
        return [self.representative(i) for i in range(self.dim)]

    def index_of(self, x: PAdicExpansion) -> int:
        """Index of the coset of x; digits below -N are not representable."""
        scaled = x.value * self.p**self.N
        if scaled.denominator != 1:
            raise DomainError(f"{x!r} lies outside B_N at N={self.N}")
        return int(scaled) % self.dim

    def shell_exponent_of_index(self, i: int):
        """Shell exponent of representative i (None for the zero coset)."""
        if i % self.dim == 0:
            return None
        return self.N - int_valuation(i % self.dim, self.p)

    def abs_of_index(self, i: int) -> Fraction:
        k = self.shell_exponent_of_index(i)
        if k is None:
            return Fraction(0)
        return Fraction(self.p**k) if k >= 0 else Fraction(1, self.p ** (-k))

    @cached_property
    def csv_columns(self) -> tuple:
        """(index, center encoding, exact |x| string) per representative: the
        grid-only columns of a grid CSV, built once per grid object."""
        return tuple((i, self.representative(i).encode(),
                      str(self.abs_of_index(i))) for i in range(self.dim))

    def dual(self) -> "GridSpec":
        """Frequency grid: the character pairing swaps the roles of N and M."""
        return GridSpec(self.p, self.M, self.N, self.cap)
