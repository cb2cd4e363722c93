"""Exact arithmetic for p-adic numbers with finite expansions.

A number is a sparse digit map {exponent j -> digit in [1, p)} encoding
x = sum_j d_j p^j.  Every number of that shape is a nonnegative rational
with p-power denominator, so all structural quantities (absolute value,
ball membership, ball measure) are computed exactly with fractions.Fraction.
Real analytic quantities (the gamma factor, kernel values) live in ordinary
doubles elsewhere in the package.  GridSpec is the finite model of a ball
that all grid code works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

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

    def valuation(self):
        return self.digits[0][0] if self.digits else None

    def shell_exponent(self):
        """k with |x|_p = p^k, None for zero."""
        v = self.valuation()
        return None if v is None else -v

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

    def contains_value(self, q) -> bool:
        return rational_abs(self.p, Fraction(q) - self.center.value) <= self.measure

    def contains(self, x) -> bool:
        if isinstance(x, PAdicExpansion):
            return self.contains_value(x.value)
        return self.contains_value(x)

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

    Coset representatives of B_N / B_{-M} are x = sum_{j=-N}^{M-1} d_j p^j,
    enumerated by the integer index i = x * p^N in [0, p^{N+M}).  Under this
    map the quotient group is Z / p^{N+M}: adding representatives with digit
    carrying and dropping digits at exponents >= M is integer addition mod dim.
    """

    p: int
    N: int
    M: int

    def __post_init__(self):
        check_prime(self.p)
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

    def representative(self, i: int) -> PAdicExpansion:
        if not 0 <= i < self.dim:
            raise DomainError(f"index {i} out of range [0, {self.dim})")
        return PAdicExpansion.from_integer(self.p, i).shift(-self.N)

    def index_of(self, x: PAdicExpansion) -> int:
        """Index of the coset of x; digits below -N are not representable."""
        scaled = x.value * self.p**self.N
        if scaled.denominator != 1:
            raise DomainError(f"{x!r} lies outside B_N at N={self.N}")
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

    @cached_property
    def csv_columns(self) -> tuple:
        """(indices, center encodings, exact |x| strings): the grid-only
        columns of a grid CSV, built once per grid object; the |x| column
        refers to K + 1 shared strings, one per shell.

        The centers of the indices below p^{L+1} with top digit d are those
        of the indices below p^L with the digit d at exponent L - N appended.
        """
        p, N = self.p, self.N
        centers = ["0"]
        for L in range(N + self.M):
            low = centers[1:]
            for d in range(1, p):
                suffix = f",{L - N}:{d}"
                centers.append(suffix[1:])
                centers += [c + suffix for c in low]
        shells = [str(Fraction(p) ** (N - v)) for v in range(N + self.M)]
        absolute = np.array(shells + ["0"], dtype=object)[self.valuations]
        return range(self.dim), centers, absolute.tolist()

