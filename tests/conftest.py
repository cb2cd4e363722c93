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
