"""Function spaces over Q_p: locally constant test functions with compact
support, finite grid functions on a ball, and radial profiles with certified
geometric tails.
"""

from __future__ import annotations

import csv
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PrecisionError
from .padic import (Ball, GridSpec, check_prime, int_valuation, rational_abs,
                    rational_shell)

# A grid CSV keeps one text per distinct value while at most one cell in
# this many holds a distinct value (see _value_texts).
_MAX_DISTINCT_SHARE = 8


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Finite complex combination of ball indicators sum_i c_i 1_{B_i}.

    Terms may overlap; balls are nested or disjoint, so all code works
    term by term.  Keeping the raw list legal makes long operator
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
    def indicator(cls, ball: Ball, coeff=1.0) -> "TestFunction":
        return cls(ball.p, ((complex(coeff), ball),))

    # ---- linear structure ----------------------------------------------

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if other.p != self.p:
            raise DomainError("operands must share the prime p")
        return TestFunction(self.p, self.terms + other.terms)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + other.scale(-1.0)

    def scale(self, c) -> "TestFunction":
        c = complex(c)
        return TestFunction(self.p, tuple((c * ci, b) for ci, b in self.terms))

    # ---- evaluation ------------------------------------------------------

    def value_at(self, x) -> complex:
        q = Fraction(x)
        a, b = q.numerator, q.denominator
        vb = int_valuation(b, self.p)
        return sum((c for c, ball in self.terms
                    if ball.contains_reduced(a, b, vb)), 0j)

    def constancy_radius_exp(self):
        """Largest r such that the function is constant on every ball of
        radius p^r (the minimum term radius), None if empty."""
        if not self.terms:
            return None
        return min(b.radius_exp for _, b in self.terms)

    def integral(self) -> complex:
        return sum((c * float(b.measure) for c, b in self.terms), 0j)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Complex values on the coset grid B_N / B_{-M}, one per
    representative: the record of a grid CSV.  Computations use arrays."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.dim,):
            raise DomainError(
                f"values must have shape ({self.grid.dim},), got {v.shape}")
        self.values = v


def to_grid(f: TestFunction, grid: GridSpec) -> np.ndarray:
    """Sample a test function exactly on the grid, as a complex array.

    A ball of radius p^r is the class of its center's index mod p^(N-r).
    Exactness requires every term's ball to be a union of grid cosets
    (radius >= p^{-M}) and to sit inside B_N; violations raise
    PrecisionError naming the offending ball.
    """
    out = np.zeros(grid.dim, dtype=np.complex128)
    for c, b in f.terms:
        if b.radius_exp < -grid.M:
            raise PrecisionError(
                f"{b!r} is finer than the grid resolution p^-{grid.M}")
        if b.radius_exp > grid.N:
            raise PrecisionError(f"{b!r} is wider than the grid ball B_{grid.N}")
        if rational_abs(grid.p, b.center) > grid.p**grid.N:
            raise PrecisionError(f"{b!r} lies outside the grid ball B_{grid.N}")
        c_idx = grid.index_of(b.center)
        step = grid.p ** (grid.N - b.radius_exp)
        out[c_idx % step::step] += c
    return out


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
        return self.value_at_shell(rational_shell(self.p, x))

    def _shell_sum(self, norm):
        """Sum over Q_p of norm(value) times the measure: the head ball,
        the stored shells and the geometric tail."""
        p = self.p
        total = norm(0j)
        if self.shell_values:
            if self.head_constant:
                # ball of radius p^{k_min - 1} at the innermost constant value
                total += norm(self.shell_values[0][1]) * float(p) ** (self.k_min - 1)
            for k, v in self.shell_values:
                total += norm(v) * float(p) ** k * (1 - 1 / p)
            if self.tail is not None:
                c, s = self.tail
                # sum_{k > k_max} p^k (1-1/p) c p^{sk}, geometric in p^{1+s}
                r = float(p) ** (1 + s)
                total += norm(c) * (1 - 1 / p) * float(p) ** ((self.k_max + 1) * (1 + s)) / (1 - r)
        return total

    def integral(self) -> complex:
        """Integral over Q_p; requires a summable head and tail."""
        return self._shell_sum(complex)

    def l1_norm(self) -> float:
        return self._shell_sum(abs)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def _digit_texts(p: int, count: int, shift: int) -> list:
    """Digit text of every n < p^count, digit j at exponent j + shift; ""
    for n = 0.  The texts of the n below p^{j+1} with top digit d are those
    of the n below p^j with "j+shift:d" appended."""
    texts = [""]
    for j in range(count):
        below = texts[1:]
        for d in range(1, p):
            digit = f"{j + shift}:{d}"
            texts.append(digit)
            texts += [t + "," + digit for t in below]
    return texts


def _distinct(x: np.ndarray) -> tuple:
    """(values, codes): the distinct doubles of x, and for every entry the
    position of its value.  Doubles are told apart by their bits, so -0.0
    and 0.0 stay apart and keep their own repr."""
    bits, codes = np.unique(np.ascontiguousarray(x).view(np.uint64),
                            return_inverse=True)
    return bits.view(np.float64), codes.reshape(-1)


def _value_texts(grid: GridSpec, u):
    """The "re,im\\r\\n" texts (repr doubles) of the cells of u, as a
    function of a slice of cells.  A real u is not copied to complex; its
    im text is 0.0, as for +0.0.

    Most snapshots repeat few values (radial data, data constant on balls).
    Such a u is reduced to the text of each distinct (re, im) bit pair and
    per cell the position of its text, in the smallest unsigned dtype, and
    its values are dropped.  Where more than one cell in _MAX_DISTINCT_SHARE
    holds a distinct value, the texts would outweigh the values (a str of
    a pair costs ~80 bytes, a value 8 or 16), so u is kept and each slice
    is formatted as it is written.
    """
    u = np.asarray(u)
    if u.shape != (grid.dim,):
        raise DomainError(
            f"values must have shape ({grid.dim},), got {u.shape}")
    if np.iscomplexobj(u):
        re, re_codes = _distinct(u.real)
        im, im_codes = _distinct(u.imag)
        pairs, codes = np.unique(re_codes * len(im) + im_codes,
                                 return_inverse=True)
        if len(pairs) * _MAX_DISTINCT_SHARE > grid.dim:
            return lambda cells: [f"{z.real!r},{z.imag!r}\r\n"
                                  for z in u[cells].tolist()]
        re_at, im_at = np.divmod(pairs, len(im))
        texts = [f"{r!r},{m!r}\r\n"
                 for r, m in zip(re[re_at].tolist(), im[im_at].tolist())]
    else:
        u = u.astype(np.float64, copy=False)
        re, codes = _distinct(u)
        if len(re) * _MAX_DISTINCT_SHARE > grid.dim:
            return lambda cells: [f"{x!r},0.0\r\n" for x in u[cells].tolist()]
        texts = [f"{r!r},0.0\r\n" for r in re.tolist()]
    texts = np.array(texts, dtype=object)
    codes = codes.reshape(-1).astype(np.min_scalar_type(len(texts) - 1))
    return lambda cells: texts[codes[cells]].tolist()


def write_grid_csvs(paths, grid: GridSpec, snapshots) -> None:
    """Write the values of the i-th array that snapshots yields to paths[i]
    as a grid CSV of grid, in one pass over the rows of all files.

    Rows: index, center (digit text of parse_point), abs (exact rational),
    re, im (repr doubles), as csv.writer writes them: lines end in \\r\\n
    and a center with more than one digit is double-quoted.  Arrays may be
    real or complex; a real one reads back with im = 0.0.

    Each array is reduced, as it arrives, to the texts of its distinct
    values and one small code per cell, or kept if most of its values are
    distinct (see _value_texts); a kept array must not change until the
    call returns.  A count of arrays other than len(paths) raises
    DomainError before any file is opened.

    With K = N + M and k = ceil(K / 2) the rows go out in blocks of p^k,
    and the "index,center,abs," heads of a block are formatted once for
    all files.  In block h the center of index h p^k + l is the digit text
    of l followed by that of h with exponents shifted by k, so two tables
    of p^k and p^(K-k) texts give every center.  Rounding k up writes a
    K = 1 grid as one block, not as p blocks of one row.
    """
    values = [_value_texts(grid, u) for u in snapshots]
    if len(values) != len(paths):
        raise DomainError(f"{len(values)} snapshots for {len(paths)} files")
    p, N, K = grid.p, grid.N, grid.N + grid.M
    k = (K + 1) // 2
    step = p**k
    low = _digit_texts(p, k, -N)
    shells = [str(Fraction(p) ** (N - v)) for v in range(K)] + ["0"]
    valuations = grid.valuations
    absolute = [shells[v] for v in valuations[:step].tolist()]
    centers = ["0"] + [f'"{t}"' if "," in t else t for t in low[1:]]
    rows = [None] * (2 * step)   # heads at even, values at odd positions
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline=""))
                 for path in paths]
        for fh in files:
            fh.write("index,center,abs,re,im\r\n")
        for h, high in enumerate(_digit_texts(p, K - k, k - N)):
            start = h * step
            block = slice(start, start + step)
            if h:
                first = f'"{high}"' if "," in high else high
                rows[0] = f"{start},{first},{shells[valuations[start]]},"
                rows[2::2] = [f'{i},"{t},{high}",{a},' for i, t, a in zip(
                    range(start + 1, start + step), low[1:], absolute[1:])]
            else:
                rows[0::2] = [f"{i},{c},{a}," for i, c, a in
                              zip(range(step), centers, absolute)]
            for fh, texts_of in zip(files, values):
                rows[1::2] = texts_of(block)
                fh.write("".join(rows))


def write_grid_csv(path: str, u: GridFunction) -> None:
    """Write u as a grid CSV at path: write_grid_csvs for one file."""
    write_grid_csvs([path], u.grid, [u.values])


def read_grid_csv(path: str, grid: GridSpec) -> GridFunction:
    """Values of a grid CSV, one row per index of the grid; a repeated,
    missing, short or non-numeric row raises DomainError."""
    vals = np.zeros(grid.dim, dtype=np.complex128)
    seen = bytearray(grid.dim)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:1] != ["index"]:
            raise DomainError(f"unexpected grid CSV header {header}")
        for row in r:
            if len(row) < 5:
                raise DomainError(f"grid CSV line {r.line_num} has "
                                  f"{len(row)} fields, expected 5")
            try:
                i = int(row[0])
                value = complex(float(row[3]), float(row[4]))
            except ValueError as exc:
                raise DomainError(
                    f"grid CSV line {r.line_num}: {exc}") from None
            if not 0 <= i < grid.dim:
                raise DomainError(f"index {i} outside grid of dim {grid.dim}")
            if seen[i]:
                raise DomainError(f"grid CSV line {r.line_num} repeats "
                                  f"index {i}")
            seen[i] = 1
            vals[i] = value
    missing = seen.count(0)
    if missing:
        raise DomainError(f"grid CSV has {grid.dim - missing} rows, "
                          f"expected {grid.dim}")
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
