from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from padicpme.cli import build_initial
from padicpme.errors import DomainError, ResourceError
from padicpme.functions import RadialFunction
from padicpme.padic import (LEVEL_GRID_CAP, Ball, GridSpec, check_prime,
                            gamma_p, int_valuation, parse_point, rational_abs,
                            rational_shell, rational_valuation)
from padicpme.pme import PMEProblem, explicit_solution

from conftest import digit_text, prime_and_points


# ---------------------------------------------------------------------------
# frozen scalar oracles
# ---------------------------------------------------------------------------

def test_rational_abs_oracles():
    assert rational_abs(2, Fraction(12)) == Fraction(1, 4)
    assert rational_abs(2, Fraction(5, 2)) == 2
    assert rational_abs(3, Fraction(10)) == 1
    assert rational_abs(5, Fraction(-25)) == Fraction(1, 25)
    assert rational_abs(2, Fraction(0)) == 0


def test_rational_valuation_of_zero_is_none():
    assert rational_valuation(7, Fraction(0)) is None
    assert rational_valuation(2, Fraction(8)) == 3
    assert rational_valuation(2, Fraction(3, 8)) == -3


def test_gamma_oracles():
    assert gamma_p(2, 3.0) == pytest.approx(-24 / 7, abs=1e-15)
    assert gamma_p(2, 5.0) == pytest.approx(-480 / 31, abs=1e-14)
    # functional pole at z = 0 is rejected, not silently evaluated
    with pytest.raises(DomainError):
        gamma_p(2, 0.0)


def test_shell_measure():
    """The sphere |x| = p^k is B_k minus B_{k-1}: measure p^k (1 - 1/p)."""
    def shell(p, k):
        return Ball(p, 0, k).measure - Ball(p, 0, k - 1).measure
    assert shell(2, 0) == Fraction(1, 2)
    assert shell(3, 2) == 6
    assert shell(5, -1) == Fraction(4, 25)
    assert Ball(7, 0, 0).measure == 1


# ---------------------------------------------------------------------------
# points and their digit text
# ---------------------------------------------------------------------------

def test_expansion_encode_parse():
    assert digit_text(2, Fraction(5, 2)) == "-1:1,1:1"
    assert parse_point(2, "-1:1,1:1") == Fraction(5, 2)
    assert parse_point(2, " 1:1,-1:1 ") == Fraction(5, 2)  # any order
    assert parse_point(3, "0") == 0
    assert parse_point(3, "0:0,2:1") == 9                   # zero digits
    assert digit_text(3, Fraction(0)) == "0"


def test_expansion_from_rational_value_round_trip():
    for text in ["5/2", "7/8", "1", "12", "31/16", "0", "1.5", "3/6"]:
        assert parse_point(2, text) == Fraction(text)


def test_expansion_rejects_bad_digits():
    with pytest.raises(DomainError):
        parse_point(2, "0:2")          # digit out of range
    with pytest.raises(DomainError):
        parse_point(2, "0:1,0:1")      # duplicate exponent
    with pytest.raises(DomainError):
        parse_point(2, "0:1,x:1")      # not an exponent
    with pytest.raises(DomainError):
        parse_point(2, "0:1,")         # empty token
    with pytest.raises(DomainError):
        parse_point(4, "0:1")          # not a prime


def test_negative_rational_needs_fraction_helpers():
    # a point is written as a nonnegative rational with p-power denominator
    for text in ["1/3", "-1/2", "abc", "1/0", "", "nan"]:
        with pytest.raises(DomainError):
            parse_point(2, text)
    assert rational_abs(2, Fraction(-5, 4)) == 4


@given(prime_and_points())
def test_ultrametric_inequality(pxy):
    p, x, y = pxy
    s = rational_abs(p, x + y)
    ax, ay = rational_abs(p, x), rational_abs(p, y)
    assert s <= max(ax, ay)
    if ax != ay:
        assert s == max(ax, ay)


@given(prime_and_points())
def test_abs_multiplicative(pxy):
    p, x, y = pxy
    assert rational_abs(p, x * y) == rational_abs(p, x) * rational_abs(p, y)


@given(prime_and_points(count=1))
def test_encode_parse_round_trip(px):
    p, x = px
    assert parse_point(p, digit_text(p, x)) == x
    assert parse_point(p, str(x)) == x


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_ball_canonical_center():
    # B(5/2, radius p^0) keeps only digits below exponent 0: center 1/2
    b = Ball(2, Fraction(5, 2), 0)
    assert b.center == Fraction(1, 2)
    assert b.measure == 1
    assert Ball(2, 4, -3).center == 4            # 4 < 2^3: already canonical
    assert Ball(3, Fraction(-1, 3), 0).center == Fraction(2, 3)
    assert Ball(5, 25, 0).center == 0
    with pytest.raises(DomainError):
        Ball(2, Fraction(1, 3), 0)               # outside Z[1/2]


def test_ball_containment():
    b = Ball(2, 0, 0)
    assert b.contains_value(Fraction(1))
    assert b.contains_value(Fraction(1, 2)) is False
    assert b.contains_value(6)
    assert Ball(2, Fraction(1, 2), -1).contains_value(Fraction(-3, 2))


@given(st.sampled_from([2, 3, 5, 7]), st.integers(-10**4, 10**4),
       st.integers(0, 4), st.integers(-4, 4), st.integers(-10**6, 10**6),
       st.integers(1, 10**6), st.integers(0, 6))
def test_ball_containment_is_the_absolute_value_rule(p, n, k, r, a, b, j):
    """x lies in B(c, p^r) iff |x - c|_p <= p^r, also for x outside
    Z[1/p] (such as 1/3 at p = 2): negative points, denominators that
    mix p^j with other primes, radii of both signs."""
    ball = Ball(p, Fraction(n, p**k), r)
    q = Fraction(a, b * p**j)
    for x in (q, -q, ball.center + q * Fraction(p) ** -r,
              ball.center - q * Fraction(p) ** (j - r)):
        assert ball.contains_value(x) == (
            rational_abs(p, x - ball.center) <= ball.measure)


@given(prime_and_points(count=3), st.integers(-3, 3), st.integers(-3, 3))
def test_ball_dichotomy(pxyz, r1, r2):
    """Two balls are nested or disjoint, never partially overlapping."""
    p, x, y, z = pxyz
    b1, b2 = Ball(p, x, r1), Ball(p, y, r2)
    for w in (x, y, z):
        if b1.contains_value(w) and b2.contains_value(w):
            assert b1.subset_of(b2) or b2.subset_of(b1)


@given(prime_and_points(count=1), st.integers(-4, 4), st.integers(-50, 50))
def test_ball_center_is_defined_modulo_the_radius(px, r, n):
    """B(c, p^r) = B(c + n p^{-r}, p^r) for every integer n, and the
    canonical center is the one in [0, p^{-r})."""
    p, c = px
    b = Ball(p, c, r)
    assert b == Ball(p, c + n * Fraction(p) ** -r, r)
    assert 0 <= b.center < Fraction(p) ** -r
    assert b.contains_value(c)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_basic_shape():
    g = GridSpec(2, 1, 2)
    assert g.dim == 8
    assert g.coset_measure == Fraction(1, 4)
    with pytest.raises(DomainError):
        GridSpec(2, 0, 0)
    assert GridSpec(2, 10, 10).dim == LEVEL_GRID_CAP
    with pytest.raises(ResourceError):
        GridSpec(2, 10, 11)


@pytest.mark.parametrize("N, M", [(1.0, 2), (1.5, 1.5), (True, 2), (1, 2.0)])
def test_grid_refuses_non_integer_exponents(N, M):
    with pytest.raises(DomainError):
        GridSpec(2, N, M)


def test_grid_equality_is_the_triple():
    """A grid is its (p, N, M): built directly or by a PMEProblem, it is
    the same grid, also past the dense-matrix size."""
    for p, N, M in ((2, 1, 2), (3, 2, 1), (2, 7, 7)):
        prob = PMEProblem(p, 2.0, N, M, 2.0, 0.1, 0.1)
        assert GridSpec(p, N, M) == prob.grid
        assert hash(GridSpec(p, N, M)) == hash(prob.grid)
    assert GridSpec(2, 1, 2) != GridSpec(2, 2, 1)


def test_grid_index_round_trip():
    for g in (GridSpec(3, 1, 2), GridSpec(2, -1, 3)):
        for i in range(g.dim):
            x = g.representative(i)
            assert x == Fraction(i) / Fraction(g.p) ** g.N
            assert g.index_of(x) == i
            # a representative plus any multiple of p^M is the same coset
            assert g.index_of(x - 2 * Fraction(g.p) ** g.M) == i
    with pytest.raises(DomainError):
        GridSpec(3, 1, 2).index_of(Fraction(1, 9))  # a digit below -N


def test_grid_distance_formula():
    """|x_i - x_j| = p^{N - v_p((i - j) mod dim)} for i != j."""
    g = GridSpec(2, 2, 2)
    for i in range(g.dim):
        xi = g.representative(i)
        for j in range(g.dim):
            if i == j:
                continue
            xj = g.representative(j)
            d = rational_abs(g.p, xi - xj)
            v = 0
            m = (i - j) % g.dim
            while m % g.p == 0:
                m //= g.p
                v += 1
            assert d == Fraction(g.p) ** (g.N - v)


def test_grid_shell_exponent_of_index():
    g = GridSpec(2, 1, 2)
    shell_abs = g.radial(lambda k: None if k is None else Fraction(2) ** k)
    assert shell_abs[0] is None             # the zero coset: no shell
    assert shell_abs[4] == Fraction(1, 2)   # x_4 = 4/2 = 2, |2|_2 = 1/2
    assert shell_abs[1] == 2                # x_1 = 1/2


@pytest.mark.parametrize("p, N, M", [(2, 1, 2), (3, 2, -1), (5, 0, 2),
                                     (5, 2, 2), (3, -1, 3), (2, 3, -1),
                                     (2, 0, 3), (7, 1, 1), (7, -2, 4),
                                     (2, 5, 5), (3, 3, 3), (2, -3, 8)])
def test_radial_gathers_match_per_index_references(p, N, M):
    """Every radial gather equals its per-cell loop over the exact shells."""
    grid = GridSpec(p, N, M)
    shells = [rational_shell(p, grid.representative(i))
              for i in range(grid.dim)]
    K = N + M
    assert grid.valuations.tolist() == [K] + [int_valuation(i, p) for i
                                              in range(1, grid.dim)]

    f = RadialFunction(p, tuple((k, complex(k, 1 / (k * k + 1)))
                                for k in range(N - 4, N + 1)),
                       value_at_zero=2.5 + 1j, tail=(3 + 0j, -2.5),
                       head_constant=True)
    ref = np.array([f.value_at_shell(k) for k in shells])
    assert np.array_equal(grid.radial(f.value_at_shell), ref)

    sol = explicit_solution(p, 1.5, 2.0, 1.0, companion=True)
    ref = np.array([sol.value(0.3, k) for k in shells])
    assert np.array_equal(sol.to_grid(grid, 0.3), ref)

    u0 = build_initial(grid, {"kind": "radial_power", "exponent": 0.7,
                              "coeff": 1.3})
    ref = np.array([
        0.0 if k is None
        else 1.3 * float(rational_abs(p, grid.representative(i))) ** 0.7
        for i, k in enumerate(shells)])
    assert np.array_equal(u0, ref)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GridSpec(2, 1, 1).representative(4),
                 r"index 4 out of range \[0, 4\)", id="representative"),
    pytest.param(lambda: GridSpec(2, 1, 1).representative(-1),
                 r"index -1 out of range", id="representative-negative"),
    pytest.param(lambda: int_valuation(0, 3), "valuation of 0 is undefined",
                 id="int_valuation"),
    pytest.param(lambda: check_prime(2.0), "p must be a prime integer, got 2.0",
                 id="check_prime-float"),
])
def test_padic_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
