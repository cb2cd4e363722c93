import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from padicpme import functions
from padicpme.errors import DomainError, PrecisionError
from padicpme.fractional import _sup_abs
from padicpme.functions import (GridFunction, RadialFunction, TestFunction,
                                read_grid_csv, read_radial_csv, to_grid,
                                write_grid_csv, write_grid_csvs,
                                write_radial_csv)
from padicpme.padic import Ball, GridSpec, rational_abs

from conftest import digit_text, point_strategy


def _tf_strategy(p=2):
    balls = st.builds(Ball, st.just(p), point_strategy(p, -2, 2),
                      st.integers(-2, 2))
    coeffs = st.integers(-3, 3).map(complex)
    term = st.tuples(coeffs, balls)
    return st.lists(term, max_size=4).map(lambda ts: TestFunction(p, tuple(ts)))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_indicator_values():
    f = TestFunction.indicator(Ball(2, 0, 0))
    assert f.value_at(Fraction(1)) == 1
    assert f.value_at(Fraction(1, 2)) == 0
    assert f.integral() == 1


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data(), a=st.integers(-10**4, 10**4),
       b=st.integers(1, 10**3), j=st.integers(0, 4))
def test_value_at_is_the_sum_over_containing_balls(p, data, a, b, j):
    """value_at(x) = sum of c over the terms whose ball holds x, by the
    absolute-value rule, for any rational x (negative, or with primes
    other than p in its denominator)."""
    f = data.draw(_tf_strategy(p))
    x = Fraction(a, b * p**j)
    expected = sum((c for c, ball in f.terms
                    if rational_abs(p, x - ball.center) <= ball.measure), 0j)
    assert f.value_at(x) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_sup_abs_is_the_max_over_cosets(p, data):
    """The quadrature's exact sup|f|, from terms that overlap, repeat and
    cancel, is max |value_at| over the cosets of the smallest term radius
    p^c in B(0, p^2), which holds every term: the points m / p^2,
    0 <= m < p^(2 - c)."""
    f = data.draw(_tf_strategy(p))
    if f.terms:  # repeat some terms, or cancel them
        again = data.draw(st.lists(st.sampled_from(f.terms), max_size=3))
        f += TestFunction(p, tuple(again)).scale(
            data.draw(st.sampled_from([1, -1])))
    c = f.constancy_radius_exp()
    brute = 0.0 if c is None else max(
        abs(f.value_at(Fraction(m, p**2))) for m in range(p ** (2 - c)))
    assert _sup_abs(f) == brute


def test_integral_is_linear_in_terms():
    b = Ball(2, 0, 1)
    f = TestFunction(2, ((2.0 + 0j, b), (1.0 + 0j, Ball(2, 0, 0))))
    assert f.integral() == pytest.approx(2 * 2 + 1 * 1)


# ---------------------------------------------------------------------------
# grid embedding
# ---------------------------------------------------------------------------

def test_to_grid_round_trip():
    grid = GridSpec(2, 1, 2)
    f = TestFunction(2, (
        (1.0 + 0j, Ball(2, 0, 0)),
        (-0.5 + 0j, Ball(2, Fraction(1, 2), -1)),
    ))
    u = to_grid(f, grid)
    for i in range(grid.dim):
        assert u[i] == f.value_at(grid.representative(i))
    assert abs(np.sum(u) * float(grid.coset_measure) - f.integral()) < 1e-12


def test_to_grid_samples_balls_of_very_different_radii():
    """1_{B_1} + 1_{B(1/4, 2^-16)} on (2, 2, 17): a common radius would
    need 2^17 balls; term by term it is two strided slices."""
    grid = GridSpec(2, 2, 17)
    f = TestFunction(2, ((1.0 + 0j, Ball(2, 0, 1)),
                         (1.0 + 0j, Ball(2, Fraction(1, 4), -16))))
    u = to_grid(f, grid)
    rng = np.random.default_rng(17)
    cells = [0, 1, 2, 3, 2**18, 2**18 + 1, grid.dim - 1]
    cells += rng.integers(0, grid.dim, 200).tolist()
    for i in cells:
        assert u[i] == f.value_at(grid.representative(i))
    assert np.sum(u) * float(grid.coset_measure) == f.integral()


def test_to_grid_rejects_out_of_window():
    grid = GridSpec(2, 1, 1)
    too_fine = TestFunction.indicator(Ball(2, 0, -2))
    with pytest.raises(PrecisionError):
        to_grid(too_fine, grid)
    too_wide = TestFunction.indicator(Ball(2, 0, 3))
    with pytest.raises(PrecisionError):
        to_grid(too_wide, grid)
    far_center = TestFunction.indicator(Ball(2, Fraction(1, 8), 0))
    with pytest.raises(PrecisionError):
        to_grid(far_center, grid)


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


def test_radial_l1_norm_takes_the_tail_absolutely():
    """A negative tail lowers the integral and raises the L1 norm."""
    f = RadialFunction(2, ((0, 1.0),), value_at_zero=1.0,
                       tail=(-1.0, -2.0), head_constant=True)
    # head 1/2, shell 0 1/2, tail sum_{k>=1} 2^k (1/2) 2^{-2k} = 1/2
    assert f.integral() == pytest.approx(0.5 + 0.5 - 0.5)
    assert f.l1_norm() == pytest.approx(0.5 + 0.5 + 0.5)


def test_radial_vanishes_above_the_last_shell_without_tail():
    f = RadialFunction(3, ((0, 2.0), (2, 1.0)))
    assert f.value_at_shell(3) == 0.0
    assert f.value_at(Fraction(1, 3**7)) == 0.0


def test_radial_head_undefined_without_flag():
    f = RadialFunction(2, ((0, 1.0),))
    with pytest.raises(DomainError):
        f.value_at_shell(-1)


def test_radial_tail_exponent_guard():
    with pytest.raises(DomainError):
        RadialFunction(2, ((0, 1.0),), tail=(1.0, -1.0))


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


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                     2.2250738585072014e-308, 1e300, 0.1, -1.5])


_GRIDS = [(2, 1, 2), (3, 2, -1), (5, 0, 2), (5, 2, 2), (3, -1, 3), (2, 3, -1),
          (2, 0, 3), (2, 1, 0), (7, 0, 1), (7, 1, 1), (7, 2, 1), (2, 4, 5),
          (3, 3, 4), (2, -2, 8)]


def _complex(re, im):
    values = np.empty(len(re), dtype=np.complex128)
    values.real, values.imag = re, im   # re + 1j * im turns inf into nan
    return values


@pytest.mark.parametrize("p, N, M", _GRIDS)
def test_grid_csv_matches_row_by_row_reference(tmp_path, p, N, M):
    """write_grid_csv writes the same bytes as csv.writer building every
    row from its representative: on grids with odd and even K = N + M, and
    on values with signed zeros, infinities, nan, subnormals and long runs
    of repeats."""
    grid = GridSpec(p, N, M)
    rng = np.random.default_rng(p)
    n = grid.dim
    runs = np.repeat(rng.standard_normal(3), -(-n // 3))[:n]
    cases = [
        (rng.standard_normal(n), rng.standard_normal(n)),
        (rng.choice(_SPECIAL, n), rng.choice(_SPECIAL, n)),
        (runs, np.full(n, -0.0)),
        (grid.radial(lambda k: 0.0 if k is None else 2.0 ** k), np.zeros(n)),
    ]
    for case, (re, im) in enumerate(cases):
        u = GridFunction(grid, _complex(re, im))
        ref = tmp_path / f"ref{case}.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "center", "abs", "re", "im"])
            for i in range(n):
                x = Fraction(i) / Fraction(p) ** N
                w.writerow([i, digit_text(p, x), str(rational_abs(p, x)),
                            repr(float(u.values[i].real)),
                            repr(float(u.values[i].imag))])
        out = tmp_path / f"out{case}.csv"
        write_grid_csv(str(out), u)
        assert out.read_bytes() == ref.read_bytes(), case


@pytest.mark.parametrize("p, N, M", _GRIDS)
def test_grid_csvs_match_one_file_writes(tmp_path, monkeypatch, p, N, M):
    """Each file of a 3-snapshot write_grid_csvs call holds the bytes of a
    one-file write of the same values: real snapshots as their complex128
    copies, and complex ones with signed zero, infinite and nan parts.  Both
    forms of a snapshot give them: the texts of its distinct values (share
    1) and the array kept whole (share dim + 1)."""
    grid = GridSpec(p, N, M)
    rng = np.random.default_rng(p + N)
    n = grid.dim
    runs = {
        "real": [rng.standard_normal(n), rng.choice(_SPECIAL, n),
                 grid.radial(lambda k: 0.0 if k is None else 3.0 ** k)],
        "complex": [_complex(rng.choice(_SPECIAL, n), rng.choice(_SPECIAL, n)),
                    _complex(np.full(n, -0.0), np.zeros(n)),
                    _complex(rng.standard_normal(n), np.full(n, np.nan))],
    }
    one = tmp_path / "one.csv"
    for kind, snapshots in runs.items():
        for share in (1, n + 1):
            paths = [tmp_path / f"{kind}{share}_{j}.csv" for j in range(3)]
            with monkeypatch.context() as patched:
                patched.setattr(functions, "_MAX_DISTINCT_SHARE", share)
                write_grid_csvs(paths, grid, iter(snapshots))
            for path, u in zip(paths, snapshots):
                write_grid_csv(str(one), GridFunction(grid, u))
                assert path.read_bytes() == one.read_bytes(), path
    with pytest.raises(DomainError, match="3 snapshots for 2 files"):
        write_grid_csvs(paths[:2], grid, runs["real"])


def test_grid_csv_reader_refuses_malformed_rows(tmp_path):
    """A repeated index, a short row and a non-numeric value each raise
    DomainError naming the line, not a silent zero or a bare
    IndexError / ValueError."""
    grid = GridSpec(2, 1, 1)
    path = tmp_path / "u.csv"
    write_grid_csv(str(path), GridFunction(grid, np.arange(1.0, 5.0)))
    lines = path.read_bytes().split(b"\r\n")
    bad = {
        "repeats index 1": lines[:3] + [lines[2]] + lines[4:],
        "line 3 has 3 fields": lines[:2] + [b"1,-1:1,2"] + lines[3:],
        "line 4: could not convert": (lines[:3] + [lines[3] + b"x"]
                                      + lines[4:]),
        "line 2: invalid literal": [lines[0], b"zero" + lines[1][1:]]
                                   + lines[2:],
    }
    for message, rows in bad.items():
        path.write_bytes(b"\r\n".join(rows))
        with pytest.raises(DomainError, match=message):
            read_grid_csv(str(path), grid)
    path.write_bytes(b"\r\n".join(lines))
    assert read_grid_csv(str(path), grid).values.tolist() == [1, 2, 3, 4]


def test_grid_csv_wrong_grid_rejected(tmp_path):
    grid = GridSpec(2, 1, 2)
    u = GridFunction(grid, np.zeros(grid.dim))
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
