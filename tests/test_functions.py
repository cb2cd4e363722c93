import cmath
import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from padicpme.errors import DomainError, PrecisionError
from padicpme.functions import (GridFunction, RadialFunction, TestFunction,
                                convolve_indicators, from_grid, grid_convolve,
                                grid_fourier, grid_fourier_inverse,
                                modulus_of_continuity, norms, radial_sum,
                                read_grid_csv, read_radial_csv, to_grid,
                                write_grid_csv, write_radial_csv)
from padicpme.padic import Ball, GridSpec, PAdicExpansion

from conftest import expansion_strategy


def _zero(p):
    return PAdicExpansion.zero(p)


def _tf_strategy(p=2):
    balls = st.builds(Ball, expansion_strategy(p, -2, 2), st.integers(-2, 2))
    coeffs = st.integers(-3, 3).map(complex)
    term = st.tuples(coeffs, balls)
    return st.lists(term, max_size=4).map(lambda ts: TestFunction(p, tuple(ts)))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_indicator_values():
    f = TestFunction.indicator(Ball(_zero(2), 0))
    assert f.value_at(Fraction(1)) == 1
    assert f.value_at(Fraction(1, 2)) == 0
    assert f.integral() == 1


@given(_tf_strategy(), expansion_strategy(2, -3, 3))
def test_canonicalize_preserves_values(f, x):
    g = f.canonicalize()
    assert abs(f.value_at(x.value) - g.value_at(x.value)) < 1e-12


@given(_tf_strategy())
def test_canonicalize_idempotent(f):
    g = f.canonicalize()
    assert g.canonicalize() == g


@given(_tf_strategy())
def test_canonical_terms_disjoint(f):
    g = f.canonicalize()
    balls = [b for _, b in g.terms]
    for i, b1 in enumerate(balls):
        for b2 in balls[:i]:
            assert not b1.intersects(b2)


@given(_tf_strategy(), expansion_strategy(2, -2, 2))
def test_translate_values(f, h):
    g = f.translate(h)
    probe = PAdicExpansion.from_rational(2, Fraction(3, 4))
    assert abs(g.value_at((probe + h).value) - f.value_at(probe.value)) < 1e-12


def test_integral_is_linear_in_terms():
    b = Ball(_zero(2), 1)
    f = TestFunction(2, ((2.0 + 0j, b), (1.0 + 0j, Ball(_zero(2), 0))))
    assert f.integral() == pytest.approx(2 * 2 + 1 * 1)


def test_convolve_indicators_haar_overlap():
    # 1_{B_0} * 1_{B_0} = 1_{B_0}; wider ball absorbs the narrower one
    b0 = Ball(_zero(2), 0)
    f = convolve_indicators(b0, b0)
    assert f.canonicalize() == TestFunction.indicator(b0).canonicalize()
    b1 = Ball(_zero(2), 1)
    g = convolve_indicators(b0, b1)
    # measure of the smaller ball times the indicator of the larger
    assert g.canonicalize() == TestFunction.indicator(b1).canonicalize()
    h = convolve_indicators(b1, b1)
    assert h.integral() == pytest.approx(4.0)  # product of measures


# ---------------------------------------------------------------------------
# grid embedding
# ---------------------------------------------------------------------------

def test_to_grid_round_trip():
    grid = GridSpec(2, 1, 2)
    f = TestFunction(2, (
        (1.0 + 0j, Ball(_zero(2), 0)),
        (-0.5 + 0j, Ball(PAdicExpansion.from_rational(2, Fraction(1, 2)), -1)),
    ))
    u = to_grid(f, grid)
    g = from_grid(u)
    for i in range(grid.dim):
        x = grid.representative(i).value
        assert abs(g.value_at(x) - f.value_at(x)) < 1e-12
    assert abs(u.integral() - f.integral()) < 1e-12


def test_to_grid_rejects_out_of_window():
    grid = GridSpec(2, 1, 1)
    too_fine = TestFunction.indicator(Ball(_zero(2), -2))
    with pytest.raises(PrecisionError):
        to_grid(too_fine, grid)
    too_wide = TestFunction.indicator(Ball(_zero(2), 3))
    with pytest.raises(PrecisionError):
        to_grid(too_wide, grid)
    far_center = TestFunction.indicator(
        Ball(PAdicExpansion.from_rational(2, Fraction(1, 8)), 0))
    with pytest.raises(PrecisionError):
        to_grid(far_center, grid)


def test_grid_translate_matches_testfunction():
    grid = GridSpec(2, 1, 2)
    f = TestFunction.indicator(Ball(_zero(2), 0))
    h = PAdicExpansion.from_rational(2, Fraction(1, 2))
    lhs = to_grid(f.translate(h), grid).values
    rhs = to_grid(f, grid).translate(h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_modulus_of_continuity_indicator():
    grid = GridSpec(2, 2, 2)
    u = to_grid(TestFunction.indicator(Ball(_zero(2), 0)), grid)
    # constant on balls of radius 1: no variation for |h| <= 1
    assert modulus_of_continuity(u, 0) == 0
    assert modulus_of_continuity(u, -1) == 0
    # jumps across the boundary show up at |h| = 2
    assert modulus_of_continuity(u, 1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Fourier on the grid
# ---------------------------------------------------------------------------

def test_fourier_fast_matches_slow():
    grid = GridSpec(2, 2, 2)
    rng = np.random.default_rng(7)
    u = GridFunction(grid, rng.standard_normal(grid.dim)
                     + 1j * rng.standard_normal(grid.dim))
    fast = grid_fourier(u, fast=True).values
    slow = grid_fourier(u, fast=False).values
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_fourier_indicator_oracle():
    # the unit ball indicator is fixed by the Fourier transform
    grid = GridSpec(2, 2, 2)
    u = to_grid(TestFunction.indicator(Ball(_zero(2), 0)), grid)
    v = grid_fourier(u)
    w = to_grid(TestFunction.indicator(Ball(_zero(2), 0)), v.grid)
    assert np.max(np.abs(v.values - w.values)) < 1e-12


def test_fourier_inverse_round_trip():
    grid = GridSpec(3, 1, 2)
    rng = np.random.default_rng(11)
    u = GridFunction(grid, rng.standard_normal(grid.dim)
                     + 1j * rng.standard_normal(grid.dim))
    back = grid_fourier_inverse(grid_fourier(u)).values
    assert np.max(np.abs(back - u.values)) < 1e-12


def test_plancherel():
    grid = GridSpec(2, 1, 3)
    rng = np.random.default_rng(13)
    u = GridFunction(grid, rng.standard_normal(grid.dim)
                     + 1j * rng.standard_normal(grid.dim))
    assert grid_fourier(u).norms().l2 == pytest.approx(u.norms().l2, rel=1e-12)


def test_convolution_theorem():
    grid = GridSpec(2, 1, 3)
    rng = np.random.default_rng(17)
    u = GridFunction(grid, rng.standard_normal(grid.dim) + 0j)
    v = GridFunction(grid, rng.standard_normal(grid.dim) + 0j)
    lhs = grid_fourier(grid_convolve(u, v)).values
    rhs = grid_fourier(u).values * grid_fourier(v).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_convolution_with_indicator_averages():
    # convolving with p^M 1_{B_{-M}} is the identity on grid functions
    grid = GridSpec(2, 1, 2)
    rng = np.random.default_rng(19)
    u = GridFunction(grid, rng.standard_normal(grid.dim) + 0j)
    k = to_grid(TestFunction.indicator(Ball(_zero(2), -2), coeff=4.0), grid)
    w = grid_convolve(u, k)
    assert np.max(np.abs(w.values - u.values)) < 1e-12


# ---------------------------------------------------------------------------
# radial functions
# ---------------------------------------------------------------------------

def test_radial_integral_closed_form():
    f = RadialFunction(2, ((0, 1.0), (1, 0.5)), value_at_zero=1.0,
                       head_constant=True)
    # head over B_{-1}: 1 * 1/2; shells: 1 * 1/2 + 0.5 * 1
    assert f.integral() == pytest.approx(0.5 + 0.5 + 0.5)


def test_radial_tail_integral_geometric():
    f = RadialFunction(2, ((0, 1.0),), value_at_zero=1.0,
                       tail=(1.0, -2.0), head_constant=True)
    # tail: sum_{k>=1} 2^k (1/2) 2^{-2k} = sum 2^{-k-1} = 1/2
    assert f.integral() == pytest.approx(0.5 + 0.5 + 0.5)


def test_radial_value_lookup():
    f = RadialFunction(3, ((0, 2.0), (2, 1.0)), value_at_zero=5.0,
                       tail=(9.0, -3.0), head_constant=True)
    assert f.value_at(Fraction(0)) == 5.0
    assert f.value_at(Fraction(1)) == 2.0          # |1| = 1, stored shell
    # below the innermost stored shell the head continues that shell's value
    assert f.value_at(Fraction(3)) == 2.0          # |3|_3 = 1/3 < min shell
    assert f.value_at_shell(1) == 0.0              # gap between stored shells
    assert f.value_at(Fraction(1, 27)) == pytest.approx(9.0 * 27.0 ** -3)


def test_radial_head_undefined_without_flag():
    f = RadialFunction(2, ((0, 1.0),))
    with pytest.raises(DomainError):
        f.value_at_shell(-1)


def test_radial_tail_exponent_guard():
    with pytest.raises(DomainError):
        RadialFunction(2, ((0, 1.0),), tail=(1.0, -1.0))


def test_radial_sum_aligns_shells():
    a = RadialFunction(2, ((0, 1.0),), value_at_zero=1.0, head_constant=True)
    b = RadialFunction(2, ((1, 2.0),), value_at_zero=0.5, head_constant=True)
    c = radial_sum(a, b)
    # b's head continues 2.0 down through shell 0; a vanishes beyond shell 0
    assert c.value_at_shell(0) == pytest.approx(1.0 + 2.0)
    assert c.value_at_shell(1) == pytest.approx(0.0 + 2.0)


def test_norms_dispatcher():
    grid = GridSpec(2, 1, 1)
    u = GridFunction(grid, np.ones(grid.dim, dtype=np.complex128))
    n = norms(u)
    assert n.l1 == pytest.approx(2.0)      # measure of B_1
    assert n.linf == pytest.approx(1.0)
    f = TestFunction.indicator(Ball(_zero(2), 1), coeff=-2.0)
    assert norms(f).l1 == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_grid_csv_round_trip(tmp_path):
    grid = GridSpec(2, 1, 2)
    rng = np.random.default_rng(23)
    u = GridFunction(grid, rng.standard_normal(grid.dim)
                     + 1j * rng.standard_normal(grid.dim))
    path = str(tmp_path / "u.csv")
    write_grid_csv(path, u)
    v = read_grid_csv(path, grid)
    assert np.array_equal(u.values, v.values)   # repr round-trip is exact


@pytest.mark.parametrize("p, N, M", [(2, 1, 2), (3, 2, -1), (5, 0, 2)])
def test_grid_csv_matches_row_by_row_reference(tmp_path, p, N, M):
    """The cached grid columns write the same bytes as building every row
    from its representative, and later writes on the grid reuse them."""
    grid = GridSpec(p, N, M)
    rng = np.random.default_rng(p)
    u = GridFunction(grid, rng.standard_normal(grid.dim)
                     + 1j * rng.standard_normal(grid.dim))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "center", "abs", "re", "im"])
        for i in range(grid.dim):
            w.writerow([i, grid.representative(i).encode(),
                        str(grid.abs_of_index(i)),
                        repr(float(u.values[i].real)),
                        repr(float(u.values[i].imag))])
    for name in ("a.csv", "b.csv"):
        write_grid_csv(str(tmp_path / name), u)
        assert (tmp_path / name).read_bytes() == ref.read_bytes()
    assert grid.csv_columns is grid.csv_columns


def test_grid_csv_wrong_grid_rejected(tmp_path):
    grid = GridSpec(2, 1, 2)
    u = GridFunction.zeros(grid)
    path = str(tmp_path / "u.csv")
    write_grid_csv(path, u)
    with pytest.raises(DomainError):
        read_grid_csv(path, GridSpec(2, 2, 2))


def test_radial_csv_round_trip(tmp_path):
    f = RadialFunction(3, ((-1, 1.5), (2, -0.25)), value_at_zero=2.0,
                       tail=(0.75, -2.5), head_constant=True)
    path = str(tmp_path / "f.csv")
    write_radial_csv(path, f)
    g = read_radial_csv(path, 3)
    assert g.shell_values == f.shell_values
    assert g.value_at_zero == f.value_at_zero
    assert g.tail == f.tail
    assert g.head_constant
