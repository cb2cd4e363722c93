"""Function spaces over Q_p: locally constant test functions with compact
support, finite grid functions on a ball, and radial profiles with certified
geometric tails.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError, ResourceError
from .padic import (
    Ball,
    GridSpec,
    PAdicExpansion,
    check_prime,
    rational_abs,
    rational_shell,
)


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Finite complex combination of ball indicators sum_i c_i 1_{B_i}.

    Terms may overlap; canonicalize() rewrites the list over disjoint balls
    of one common radius.  Keeping the raw list legal makes long operator
    expansions cheap to build and exact to evaluate.
    """

    __test__ = False  # not a pytest class despite the name

    p: int
    terms: tuple = ()

    def __post_init__(self):
        check_prime(self.p)
        for c, ball in self.terms:
            if ball.p != self.p:
                raise DomainError("all balls must share the prime p")

    @classmethod
    def zero(cls, p: int) -> "TestFunction":
        return cls(p, ())

    @classmethod
    def indicator(cls, ball: Ball, coeff=1.0) -> "TestFunction":
        return cls(ball.p, ((complex(coeff), ball),))

    # ---- linear structure ----------------------------------------------

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if other.p != self.p:
            raise DomainError("operands must share the prime p")
        return TestFunction(self.p, self.terms + other.terms)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + other.scale(-1.0)

    def __neg__(self) -> "TestFunction":
        return self.scale(-1.0)

    def scale(self, c) -> "TestFunction":
        c = complex(c)
        return TestFunction(self.p, tuple((c * ci, b) for ci, b in self.terms))

    def translate(self, h: PAdicExpansion) -> "TestFunction":
        return TestFunction(self.p, tuple(
            (c, Ball(b.center + h, b.radius_exp)) for c, b in self.terms))

    # ---- evaluation ------------------------------------------------------

    def value_at(self, x) -> complex:
        q = x.value if isinstance(x, PAdicExpansion) else Fraction(x)
        return sum((c for c, b in self.terms if b.contains_value(q)), 0j)

    def constancy_radius_exp(self):
        """Largest r such that the function is constant on every ball of
        radius p^r (the minimum term radius), None if empty."""
        if not self.terms:
            return None
        return min(b.radius_exp for _, b in self.terms)

    # ---- canonical form ---------------------------------------------------

    def canonicalize(self, max_terms: int = 65536, tol: float = 0.0) -> "TestFunction":
        """Rewrite over disjoint balls of the minimum term radius.

        Coefficients within tol of zero are dropped (tol=0 drops only exact
        zeros).  Raises ResourceError when the refinement would exceed
        max_terms balls.
        """
        if not self.terms:
            return self
        r = min(b.radius_exp for _, b in self.terms)
        acc: dict = {}
        total = 0
        for c, b in self.terms:
            span = b.radius_exp - r
            total += self.p**span
            if total > max_terms:
                raise ResourceError(
                    f"canonicalization needs more than {max_terms} balls")
            for sub in b.subballs(r):
                key = (sub.center.digits, r)
                acc[key] = acc.get(key, 0j) + c
        kept = []
        for (digits, rr), c in acc.items():
            if abs(c) > tol:
                kept.append((c, Ball(PAdicExpansion(self.p, digits), rr)))
        kept.sort(key=lambda cb: (cb[1].center.value, cb[1].radius_exp))
        return TestFunction(self.p, tuple(kept))

    # ---- integrals and norms ----------------------------------------------

    def integral(self) -> complex:
        return sum((c * float(b.measure) for c, b in self.terms), 0j)

    def norms(self, max_terms: int = 65536) -> Norms:
        g = self.canonicalize(max_terms=max_terms)
        if not g.terms:
            return Norms(0.0, 0.0, 0.0)
        meas = np.array([float(b.measure) for _, b in g.terms])
        mags = np.array([abs(c) for c, _ in g.terms])
        return Norms(
            l1=float(np.sum(mags * meas)),
            l2=float(math.sqrt(np.sum(mags**2 * meas))),
            linf=float(np.max(mags)),
        )


def convolve_indicators(b1: Ball, b2: Ball) -> TestFunction:
    """Exact convolution of two ball indicators.

    1_{B(x0,k)} * 1_{B(x1,l)} = p^{min(k,l)} 1_{B(x0+x1, max(k,l))}.
    """
    if b1.p != b2.p:
        raise DomainError("operands must share the prime p")
    k, l = b1.radius_exp, b2.radius_exp
    coeff = float(b1.p) ** min(k, l)
    return TestFunction.indicator(Ball(b1.center + b2.center, max(k, l)), coeff)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Complex values on the coset grid B_N / B_{-M}, one per representative."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.dim,):
            raise DomainError(
                f"values must have shape ({self.grid.dim},), got {v.shape}")
        self.values = v

    @classmethod
    def zeros(cls, grid: GridSpec) -> "GridFunction":
        return cls(grid, np.zeros(grid.dim, dtype=np.complex128))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def integral(self) -> complex:
        return complex(np.sum(self.values) * float(self.grid.coset_measure))

    def norms(self) -> Norms:
        w = float(self.grid.coset_measure)
        a = np.abs(self.values)
        return Norms(
            l1=float(np.sum(a) * w),
            l2=float(math.sqrt(np.sum(a**2) * w)),
            linf=float(np.max(a)) if a.size else 0.0,
        )

    def translate(self, h: PAdicExpansion) -> "GridFunction":
        """u(x - h) on the grid group Z/p^{N+M}."""
        h_idx = self.grid.index_of(h)
        idx = (np.arange(self.grid.dim) - h_idx) % self.grid.dim
        return GridFunction(self.grid, self.values[idx])


def to_grid(f: TestFunction, grid: GridSpec) -> GridFunction:
    """Sample a test function exactly on the grid.

    Exactness requires every canonical ball to be a union of grid cosets
    (radius >= p^{-M}) and to sit inside B_N; violations raise PrecisionError
    naming the offending ball.
    """
    g = f.canonicalize()
    out = np.zeros(grid.dim, dtype=np.complex128)
    for c, b in g.terms:
        if b.radius_exp < -grid.M:
            raise PrecisionError(
                f"{b!r} is finer than the grid resolution p^-{grid.M}")
        if b.radius_exp > grid.N:
            raise PrecisionError(f"{b!r} is wider than the grid ball B_{grid.N}")
        if rational_abs(grid.p, b.center.value) > grid.p**grid.N:
            raise PrecisionError(f"{b!r} lies outside the grid ball B_{grid.N}")
        c_idx = grid.index_of(b.center)
        step = grid.p ** (grid.N - b.radius_exp)
        out[c_idx % step::step] += c
    return GridFunction(grid, out)


def from_grid(u: GridFunction) -> TestFunction:
    """Represent a grid function as a test function on the coset balls."""
    grid = u.grid
    terms = []
    for i in range(grid.dim):
        c = u.values[i]
        if c != 0:
            terms.append((complex(c), Ball(grid.representative(i), -grid.M)))
    return TestFunction(grid.p, tuple(terms))


def modulus_of_continuity(u: GridFunction, r: int) -> float:
    """sup over grid shifts |h| <= p^r of the sup norm of u(. - h) - u.

    Grid index h_idx represents h = h_idx * p^{-N}, so |h| <= p^r picks out
    the indices divisible by p^{N-r} (all of them once r >= N).
    """
    grid = u.grid
    if r < -grid.M:
        raise DomainError(f"shift radius p^{r} below grid resolution p^-{grid.M}")
    step = grid.p ** max(grid.N - r, 0)
    worst = 0.0
    n = np.arange(grid.dim)
    for h_idx in range(step, grid.dim, step):
        shifted = u.values[(n - h_idx) % grid.dim]
        worst = max(worst, float(np.max(np.abs(shifted - u.values))))
    return worst


# ---------------------------------------------------------------------------
# grid Fourier analysis
# ---------------------------------------------------------------------------

def grid_fourier(u: GridFunction, fast: bool = True) -> GridFunction:
    """Fourier transform on B_N/B_{-M}: (Fu)(xi_j) = p^{-M} sum_i chi(x_i xi_j) u_i.

    With x_i = i p^{-N}, xi_j = j p^{-M}, the phase chi(x_i xi_j) is
    exp(2 pi i * ij / dim), so Fu = p^{-M} * dim * ifft(u).  The transform
    lives on the dual grid (N and M swapped).
    """
    grid = u.grid
    dual = grid.dual()
    w = float(grid.coset_measure)
    if fast:
        vals = w * grid.dim * np.fft.ifft(u.values)
    else:
        n = np.arange(grid.dim)
        phases = np.exp(2j * np.pi * np.outer(n, n) / grid.dim)
        vals = w * phases @ u.values
    return GridFunction(dual, vals)


def grid_fourier_inverse(v: GridFunction, fast: bool = True) -> GridFunction:
    """Inverse transform back from the dual grid: p^{-N'} sum_j conj-phase."""
    dual = v.grid
    grid = dual.dual()
    w = float(dual.coset_measure)
    if fast:
        vals = w * np.fft.fft(v.values)
    else:
        n = np.arange(dual.dim)
        phases = np.exp(-2j * np.pi * np.outer(n, n) / dual.dim)
        vals = w * phases @ v.values
    return GridFunction(grid, vals)


def grid_convolve(u: GridFunction, v: GridFunction) -> GridFunction:
    """Haar-weighted cyclic convolution (u * v)_i = p^{-M} sum_k u_k v_{i-k}."""
    if u.grid != v.grid:
        raise DomainError("operands must live on the same grid")
    w = float(u.grid.coset_measure)
    vals = w * np.fft.ifft(np.fft.fft(u.values) * np.fft.fft(v.values))
    return GridFunction(u.grid, vals)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialFunction:
    """Radial function v(|x|) stored shell-by-shell with a certified tail.

    shell_values maps shell exponent k (|x| = p^k) to the value there.
    Beyond the largest stored shell the function either vanishes identically
    (tail=None) or follows the exact power law c * |x|^s given by tail=(c, s)
    with s < -1 so the tail integral converges.  Below the smallest stored
    shell the function is either constant (head_constant=True, continuing the
    innermost value down to 0) or undefined.
    """

    p: int
    shell_values: tuple  # sorted ((k, complex), ...)
    value_at_zero: complex = 0j
    tail: tuple | None = None
    head_constant: bool = False

    def __post_init__(self):
        check_prime(self.p)
        sv = tuple(sorted((int(k), complex(v)) for k, v in dict(self.shell_values).items()))
        object.__setattr__(self, "shell_values", sv)
        if self.tail is not None:
            c, s = self.tail
            if not s < -1:
                raise DomainError(f"tail exponent must be < -1, got {s}")
            object.__setattr__(self, "tail", (complex(c), float(s)))
        object.__setattr__(self, "value_at_zero", complex(self.value_at_zero))

    @property
    def k_min(self):
        return self.shell_values[0][0] if self.shell_values else None

    @property
    def k_max(self):
        return self.shell_values[-1][0] if self.shell_values else None

    def value_at_shell(self, k) -> complex:
        if k is None:
            return self.value_at_zero
        k = int(k)
        for kk, v in self.shell_values:
            if kk == k:
                return v
        if self.shell_values and k > self.k_max:
            if self.tail is None:
                return 0j
            c, s = self.tail
            return c * float(self.p) ** (s * k)
        if self.shell_values and k < self.k_min and self.head_constant:
            return self.shell_values[0][1]
        if self.shell_values and self.k_min < k < self.k_max:
            return 0j  # interior gap in a sparse profile, same as integral()
        raise DomainError(f"shell {k} outside the stored range")

    def value_at(self, x) -> complex:
        if isinstance(x, PAdicExpansion):
            return self.value_at_shell(x.shell_exponent())
        q = Fraction(x)
        if q == 0:
            return self.value_at_zero
        return self.value_at_shell(rational_shell(self.p, q))

    def integral(self) -> complex:
        """Integral over Q_p; requires a summable head and tail."""
        p = self.p
        total = 0j
        if self.shell_values:
            if self.head_constant:
                # ball of radius p^{k_min - 1} at the innermost constant value
                total += self.shell_values[0][1] * float(p) ** (self.k_min - 1)
            for k, v in self.shell_values:
                total += v * float(p) ** k * (1 - 1 / p)
            if self.tail is not None:
                c, s = self.tail
                # sum_{k > k_max} p^k (1-1/p) c p^{sk}, geometric in p^{1+s}
                r = float(p) ** (1 + s)
                total += c * (1 - 1 / p) * float(p) ** ((self.k_max + 1) * (1 + s)) / (1 - r)
        return total

    def l1_norm(self) -> float:
        p = self.p
        total = 0.0
        if self.shell_values:
            if self.head_constant:
                total += abs(self.shell_values[0][1]) * float(p) ** (self.k_min - 1)
            for k, v in self.shell_values:
                total += abs(v) * float(p) ** k * (1 - 1 / p)
            if self.tail is not None:
                c, s = self.tail
                r = float(p) ** (1 + s)
                total += abs(c) * (1 - 1 / p) * float(p) ** ((self.k_max + 1) * (1 + s)) / (1 - r)
        return total

    def sup_norm_stored(self) -> float:
        vals = [abs(self.value_at_zero)] if self.head_constant else []
        vals += [abs(v) for _, v in self.shell_values]
        return max(vals) if vals else 0.0

    def scale(self, c) -> "RadialFunction":
        c = complex(c)
        return RadialFunction(
            self.p,
            tuple((k, c * v) for k, v in self.shell_values),
            value_at_zero=c * self.value_at_zero,
            tail=None if self.tail is None else (c * self.tail[0], self.tail[1]),
            head_constant=self.head_constant,
        )

    def to_grid(self, grid: GridSpec) -> GridFunction:
        if grid.p != self.p:
            raise DomainError("prime mismatch")
        return GridFunction(grid, grid.radial(self.value_at_shell))


def radial_sum(a: RadialFunction, b: RadialFunction) -> RadialFunction:
    """Pointwise sum; both operands must expose values on the union range."""
    if a.p != b.p:
        raise DomainError("prime mismatch")
    ks = {k for k, _ in a.shell_values} | {k for k, _ in b.shell_values}
    if not ks:
        return a
    shells = {k: a.value_at_shell(k) + b.value_at_shell(k) for k in sorted(ks)}
    tail = None
    ta, tb = a.tail, b.tail
    if ta is not None and tb is None:
        tail = ta
    elif tb is not None and ta is None:
        tail = tb
    elif ta is not None and tb is not None:
        if ta[1] != tb[1]:
            raise DomainError("cannot sum tails with different exponents")
        tail = (ta[0] + tb[0], ta[1])
    return RadialFunction(
        a.p, tuple(shells.items()),
        value_at_zero=a.value_at_zero + b.value_at_zero,
        tail=tail,
        head_constant=a.head_constant and b.head_constant,
    )


def norms(obj) -> Norms:
    """(L1, L2, Lup) for any of the three function kinds."""
    if isinstance(obj, (TestFunction, GridFunction)):
        return obj.norms()
    if isinstance(obj, RadialFunction):
        p = obj.p
        l1 = obj.l1_norm()
        l2sq = 0.0
        if obj.shell_values:
            if obj.head_constant:
                l2sq += abs(obj.shell_values[0][1]) ** 2 * float(p) ** (obj.k_min - 1)
            for k, v in obj.shell_values:
                l2sq += abs(v) ** 2 * float(p) ** k * (1 - 1 / p)
            if obj.tail is not None:
                c, s = obj.tail
                r = float(p) ** (1 + 2 * s)
                l2sq += (abs(c) ** 2 * (1 - 1 / p)
                         * float(p) ** ((obj.k_max + 1) * (1 + 2 * s)) / (1 - r))
        return Norms(l1, math.sqrt(l2sq), obj.sup_norm_stored())
    raise DomainError(f"no norms for objects of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_grid_csv(path: str, u: GridFunction) -> None:
    """Rows: index, center (exact expansion string), abs (exact rational),
    re, im (repr doubles)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "center", "abs", "re", "im"])
        w.writerows((i, x, a, repr(re), repr(im)) for i, x, a, re, im
                    in zip(*u.grid.csv_columns, u.values.real.tolist(),
                           u.values.imag.tolist()))


def read_grid_csv(path: str, grid: GridSpec) -> GridFunction:
    vals = np.zeros(grid.dim, dtype=np.complex128)
    seen = 0
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:1] != ["index"]:
            raise DomainError(f"unexpected grid CSV header {header}")
        for row in r:
            i = int(row[0])
            if not 0 <= i < grid.dim:
                raise DomainError(f"index {i} outside grid of dim {grid.dim}")
            vals[i] = complex(float(row[3]), float(row[4]))
            seen += 1
    if seen != grid.dim:
        raise DomainError(f"grid CSV has {seen} rows, expected {grid.dim}")
    return GridFunction(grid, vals)


def write_radial_csv(path: str, f: RadialFunction) -> None:
    """Rows: shell exponent k, |x| as exact rational, re, im; a "zero" row
    when the origin value is meaningful; a final "tail,c,s" row when a
    power tail is present (real amplitude c, exponent s)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "shell_abs", "re", "im"])
        if f.head_constant or f.value_at_zero != 0:
            w.writerow(["zero", "0", repr(f.value_at_zero.real),
                        repr(f.value_at_zero.imag)])
        for k, v in f.shell_values:
            ab = Fraction(f.p**k) if k >= 0 else Fraction(1, f.p ** (-k))
            w.writerow([k, str(ab), repr(v.real), repr(v.imag)])
        if f.tail is not None:
            c, s = f.tail
            w.writerow(["tail", repr(c.real), repr(s)])


def read_radial_csv(path: str, p: int) -> RadialFunction:
    shells = {}
    zero = 0j
    head = False
    tail = None
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        for row in r:
            if row[0] == "zero":
                zero = complex(float(row[2]), float(row[3]))
                head = True
            elif row[0] == "tail":
                tail = (complex(float(row[1])), float(row[2]))
            else:
                shells[int(row[0])] = complex(float(row[2]), float(row[3]))
    return RadialFunction(p, tuple(shells.items()), value_at_zero=zero,
                          tail=tail, head_constant=head)
