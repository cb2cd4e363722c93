import csv
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")

PRIMES = st.sampled_from([2, 3, 5])


def point_strategy(p: int, min_exp: int = -4, max_exp: int = 4):
    """Points sum d_j p^j of Z[1/p] with digits in [1, p), as Fractions."""
    def build(pairs):
        return sum((d * Fraction(p) ** j for j, d in pairs.items()),
                   Fraction(0))
    return st.dictionaries(st.integers(min_exp, max_exp),
                           st.integers(1, p - 1), max_size=6).map(build)


@st.composite
def prime_and_points(draw, count: int = 2):
    p = draw(PRIMES)
    xs = tuple(draw(point_strategy(p)) for _ in range(count))
    return (p, *xs)


def digit_text(p: int, x: Fraction) -> str:
    """The digit text "j:d,..." of a nonnegative x in Z[1/p], by exponent;
    "0" for zero.  An oracle written apart from the package's own."""
    k = 0
    while (x * p**k).denominator != 1:
        k += 1
    n = int(x * p**k)
    pairs, j = [], -k
    while n:
        n, d = divmod(n, p)
        if d:
            pairs.append(f"{j}:{d}")
        j += 1
    return ",".join(pairs) or "0"


def read_radial_rows(path) -> tuple:
    """A radial CSV read with csv alone: (zero, shells, tail), the value of
    the "zero" row or None, {k: value} of the shell rows, and the (c, s) of
    the "tail" row or None.  An oracle written apart from the package."""
    zero, shells, tail = None, {}, None
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == ["k", "shell_abs", "re", "im"]
        for row in rows:
            if row[0] == "zero":
                zero = complex(float(row[2]), float(row[3]))
            elif row[0] == "tail":
                tail = (float(row[1]), float(row[2]))
            else:
                shells[int(row[0])] = complex(float(row[2]), float(row[3]))
    return zero, shells, tail
