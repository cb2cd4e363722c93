import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from padicpme.cli import build_initial
from padicpme.errors import DomainError, ResourceError
from padicpme.functions import RadialFunction
from padicpme.padic import (Ball, GridSpec, PAdicExpansion, gamma_p,
                            haar_measure, int_valuation, rational_abs,
                            rational_fractional_part, rational_valuation,
                            shell_measure, unit_ball)
from padicpme.pme import explicit_solution

from conftest import expansion_strategy, prime_and_expansions


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


def test_fractional_part_oracle():
    # {5/2}_2 = 1/2, {1/24}_2 = 3/8, integers have zero fractional part
    assert rational_fractional_part(2, Fraction(5, 2)) == Fraction(1, 2)
    assert rational_fractional_part(2, Fraction(1, 24)) == Fraction(3, 8)
    assert rational_fractional_part(3, Fraction(7)) == 0
    assert rational_fractional_part(2, Fraction(-1, 4)) == Fraction(3, 4)


def test_character_oracle():
    x = PAdicExpansion.from_rational(2, Fraction(3, 4))
    # chi(3/4) = exp(2 pi i 3/4) = -i
    assert abs(x.character() - (-1j)) < 1e-15
    assert abs(PAdicExpansion.zero(5).character() - 1) < 1e-15


def test_gamma_oracles():
    assert gamma_p(2, 3.0) == pytest.approx(-24 / 7, abs=1e-15)
    assert gamma_p(2, 5.0) == pytest.approx(-480 / 31, abs=1e-14)
    # functional pole at z = 0 is rejected, not silently evaluated
    with pytest.raises(DomainError):
        gamma_p(2, 0.0)


def test_shell_measure():
    assert shell_measure(2, 0) == Fraction(1, 2)
    assert shell_measure(3, 2) == 6
    assert haar_measure(unit_ball(7)) == 1


# ---------------------------------------------------------------------------
# expansion structure
# ---------------------------------------------------------------------------

def test_expansion_encode_parse():
    x = PAdicExpansion.from_rational(2, Fraction(5, 2))
    assert x.encode() == "-1:1,1:1"
    assert PAdicExpansion.parse(2, "-1:1,1:1") == x
    assert PAdicExpansion.parse(3, "0").is_zero()


def test_expansion_from_rational_value_round_trip():
    for num, den in [(5, 2), (7, 8), (1, 1), (12, 1), (31, 16)]:
        x = PAdicExpansion.from_rational(2, Fraction(num, den))
        assert x.value == Fraction(num, den)


def test_expansion_rejects_bad_digits():
    with pytest.raises(DomainError):
        PAdicExpansion(2, ((0, 2),))    # digit out of range
    with pytest.raises(DomainError):
        PAdicExpansion(2, ((0, 1), (0, 1)))  # duplicate exponent
    with pytest.raises(DomainError):
        PAdicExpansion(4, ((0, 1),))    # not a prime


def test_negative_rational_needs_fraction_helpers():
    # expansions encode nonnegative p-power rationals only
    with pytest.raises(DomainError):
        PAdicExpansion.from_rational(2, Fraction(1, 3))
    assert rational_abs(2, Fraction(-5, 4)) == 4


@given(prime_and_expansions())
def test_addition_matches_rationals(pxy):
    p, x, y = pxy
    assert (x + y).value == x.value + y.value


@given(prime_and_expansions())
def test_multiplication_matches_rationals(pxy):
    p, x, y = pxy
    assert (x * y).value == x.value * y.value


@given(prime_and_expansions())
def test_ultrametric_inequality(pxy):
    p, x, y = pxy
    s = (x + y).abs_value()
    ax, ay = x.abs_value(), y.abs_value()
    assert s <= max(ax, ay)
    if ax != ay:
        assert s == max(ax, ay)


@given(prime_and_expansions())
def test_abs_multiplicative(pxy):
    p, x, y = pxy
    assert (x * y).abs_value() == x.abs_value() * y.abs_value()


@given(prime_and_expansions())
def test_character_additive(pxy):
    p, x, y = pxy
    lhs = (x + y).character()
    rhs = x.character() * y.character()
    assert abs(lhs - rhs) < 1e-12


@given(prime_and_expansions(count=1))
def test_encode_parse_round_trip(px):
    p, x = px
    assert PAdicExpansion.parse(p, x.encode()) == x


@given(prime_and_expansions(count=1), st.integers(-3, 3))
def test_shift_scales_value(px, k):
    p, x = px
    assert x.shift(k).value == x.value * Fraction(p) ** k


@given(prime_and_expansions(count=1), st.integers(-5, 5))
def test_keep_below_splits_exactly(px, e):
    p, x = px
    low = x.keep_below(e)
    assert all(j < e for j, _ in low.digits)
    rest = x.value - low.value
    # the remainder is divisible by p^e
    assert rest == 0 or rational_valuation(p, rest) >= e


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_ball_canonical_center():
    # B(5/2, radius p^0) keeps only digits below exponent 0: center 1/2
    c = PAdicExpansion.from_rational(2, Fraction(5, 2))
    b = Ball(c, 0)
    assert b.center.value == Fraction(1, 2)
    assert b.measure == 1
    assert b.radius() == 1


def test_ball_containment():
    b = Ball(PAdicExpansion.zero(2), 0)
    assert b.contains_value(Fraction(1))
    assert b.contains_value(Fraction(1, 2)) is False
    assert b.contains(PAdicExpansion.from_rational(2, Fraction(6)))


@given(prime_and_expansions(), st.integers(-3, 3), st.integers(-3, 3))
def test_ball_dichotomy(pxy, r1, r2):
    """Two balls are nested or disjoint, never partially overlapping."""
    p, x, y = pxy
    b1, b2 = Ball(x, r1), Ball(y, r2)
    if b1.intersects(b2):
        assert b1.subset_of(b2) or b2.subset_of(b1)


def test_subballs_partition():
    b = Ball(PAdicExpansion.zero(3), 1)
    parts = b.subballs(-1)
    assert len(parts) == 9
    assert sum(q.measure for q in parts) == b.measure
    for i, q in enumerate(parts):
        assert q.subset_of(b)
        for r in parts[:i]:
            assert not q.intersects(r)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_basic_shape():
    g = GridSpec(2, 1, 2)
    assert g.dim == 8
    assert g.coset_measure == Fraction(1, 4)
    assert g.dual().N == 2 and g.dual().M == 1
    with pytest.raises(DomainError):
        GridSpec(2, 0, 0)
    with pytest.raises(ResourceError):
        GridSpec(2, 10, 10)


def test_grid_index_round_trip():
    g = GridSpec(3, 1, 2)
    for i in range(g.dim):
        assert g.index_of(g.representative(i)) == i


def test_grid_distance_formula():
    """|x_i - x_j| = p^{N - v_p((i - j) mod dim)} for i != j."""
    g = GridSpec(2, 2, 2)
    for i in range(g.dim):
        xi = g.representative(i)
        for j in range(g.dim):
            if i == j:
                continue
            xj = g.representative(j)
            d = xi.distance(xj)
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
    shells = [grid.representative(i).shell_exponent() for i in range(grid.dim)]
    K = N + M
    assert grid.valuations.tolist() == [K] + [int_valuation(i, p) for i
                                              in range(1, grid.dim)]

    f = RadialFunction(p, tuple((k, complex(k, 1 / (k * k + 1)))
                                for k in range(N - 4, N + 1)),
                       value_at_zero=2.5 + 1j, tail=(3 + 0j, -2.5),
                       head_constant=True)
    ref = np.array([f.value_at_shell(k) for k in shells])
    assert np.array_equal(f.to_grid(grid).values, ref)

    sol = explicit_solution(p, 1.5, 2.0, 1.0, companion=True)
    ref = np.array([sol.value(0.3, k) for k in shells])
    assert np.array_equal(sol.to_grid(grid, 0.3), ref)

    u0 = build_initial(grid, {"kind": "radial_power", "exponent": 0.7,
                              "coeff": 1.3})
    ref = np.array([0.0 if k is None
                    else 1.3 * float(grid.representative(i).abs_value()) ** 0.7
                    for i, k in enumerate(shells)])
    assert np.array_equal(u0, ref)
