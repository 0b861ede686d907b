"""Self-inversive expansion and factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import (
    CircleRationalForm,
    FactorError,
    SelfInversivePoly,
    check_self_inversive,
    factor,
)
from ellipsogeo.polyfactor import expand_circle_product


def sorted_zeros(zs):
    return sorted((complex(a) for a in zs),
                  key=lambda c: (round(c.real, 6), round(c.imag, 6)))


def zero_mismatch(got, want):
    a = np.array(sorted_zeros(got))
    b = np.array(sorted_zeros(want))
    assert a.size == b.size
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# --- symmetry check ---------------------------------------------------------

def test_symmetry_of_mobius_numerator_expansion():
    assert check_self_inversive((-0.5, 1.25, -0.5)) == 0.0


def test_symmetry_of_plain_zeta():
    assert check_self_inversive((0.0, 1.0, 0.0)) == 0.0


def test_symmetry_violation_magnitude():
    assert check_self_inversive((1.0, 0.0, 0.0)) == 1.0


def test_symmetry_requires_odd_length():
    with pytest.raises(ValueError):
        check_self_inversive((1.0, 1.0))


def test_poly_constructor_rejects_asymmetric():
    with pytest.raises(ValueError):
        SelfInversivePoly((1.0, 0.0, 0.0))


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
def test_tolerance_that_is_not_a_finite_number_at_least_0_is_refused(tol):
    # a NaN tolerance turns off the tests it feeds: (1, 0.3, 2) is not
    # self-inversive and is negative on the circle, yet passed both
    # checks; an infinite one made `factor` strip both end coefficients
    # of (-0.5, 1.25, -0.5) and report a zero at 0 instead of 0.5
    with pytest.raises(ValueError, match="tol = "):
        SelfInversivePoly((1.0, 0.3, 2.0), tol=tol)
    poly = SelfInversivePoly((-0.5, 1.25, -0.5))
    with pytest.raises(ValueError, match="tol = ") as info:
        factor(poly, tol=tol)
    assert not isinstance(info.value, FactorError)


# --- expansion --------------------------------------------------------------

def test_expand_single_real_zero():
    c = expand_circle_product(1.0, (0.5,))
    assert np.allclose(c, [-0.5, 1.25, -0.5])


@given(st.integers(0, 3000))
@settings(max_examples=50, deadline=None)
def test_expansion_is_self_inversive_and_circle_nonnegative(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    zeros = rng.uniform(0, 0.97, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    r = float(rng.uniform(0.1, 3.0))
    c = expand_circle_product(r, tuple(zeros))
    assert check_self_inversive(c) < 1e-12 * np.max(np.abs(c))
    zeta = np.exp(2j * np.pi * np.arange(128) / 128)
    vals = np.polyval(c[::-1], zeta) * zeta ** (-m)
    assert float(np.min(vals.real)) > -1e-12 * np.max(np.abs(c))
    assert float(np.max(np.abs(vals.imag))) < 1e-12 * np.max(np.abs(c))


# --- factorization ----------------------------------------------------------

def test_factor_mobius_numerator():
    got = factor(SelfInversivePoly((-0.5, 1.25, -0.5)))
    assert got.scale == pytest.approx(1.0, abs=1e-12)
    assert zero_mismatch(got.zeros, (0.5,)) < 1e-12


def test_factor_degenerate_zero_root():
    got = factor(SelfInversivePoly((0.0, 1.0, 0.0)))
    assert got.scale == pytest.approx(1.0, abs=1e-14)
    assert zero_mismatch(got.zeros, (0.0,)) < 1e-14


def test_factor_rejects_negative_on_circle():
    # -(zeta - 0.5)(1 - 0.5 zeta) is self-inversive but negative
    with pytest.raises(FactorError):
        factor(SelfInversivePoly((0.5, -1.25, 0.5)))


@given(st.integers(0, 4000))
@settings(max_examples=60, deadline=None)
def test_factor_round_trip_generic(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    zeros = rng.uniform(0, 0.95, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    r = float(rng.uniform(0.2, 2.0))
    got = factor(SelfInversivePoly(tuple(expand_circle_product(r, tuple(zeros)))))
    assert abs(got.scale - r) < 1e-8 * max(1.0, r)
    assert zero_mismatch(got.zeros, zeros) < 1e-8


@pytest.mark.parametrize("zeros", [
    (np.exp(1j * 0.7),),
    (np.exp(1j * 0.7), np.exp(1j * 0.7)),
    (np.exp(1j * 0.7),) * 3,
    (np.exp(1j * 0.7),) * 4,
    (0.6, np.exp(1j * 2.1), np.exp(1j * 2.1), 0.2 - 0.5j),
    (0.0, 0.3 + 0.4j, np.exp(-1j * 0.3), np.exp(-1j * 0.3)),
    # two disc zeros 0.01 apart beside a 3-fold circle zero: each pairs
    # with its own reflection, not with its neighbour
    (np.exp(1j * 1.16),) * 3 + (0.66 + 0.26j, 0.67 + 0.26j),
    # a circle zero on the branch cut of the angle, its copies on both
    # sides of it
    (-1.0, -1.0, 0.4j),
    (-1.0, -1.0, -1.0, 0.4j),
    (-1.0,) * 4,
])
def test_factor_round_trip_circle_multiplicities(zeros):
    # a k-fold circle zero of the form is a 2k-fold polynomial root; the
    # computed copies scatter like eps^(1/2k) and must still be recovered
    poly = SelfInversivePoly(tuple(expand_circle_product(1.7, tuple(zeros))))
    got = factor(poly)
    assert abs(got.scale - 1.7) < 1e-8
    assert zero_mismatch(got.zeros, zeros) < 1e-8


def test_factor_close_circle_zeros_stay_distinct():
    zeros = (np.exp(1j * 0.7), np.exp(1j * 0.71))
    got = factor(SelfInversivePoly(tuple(expand_circle_product(1.0, zeros))))
    assert zero_mismatch(got.zeros, zeros) < 1e-8


def test_factor_merges_split_copies_of_a_doubled_circle_zero():
    # np.roots scatters the four copies of u by about 1.6e-4; the narrow
    # collars split them into two zeros that re-expand as well, to
    # roundoff, as the merged pair does
    u = 0.3460791796759518 + 0.9382053087649953j
    zeros = (u, u, -0.11881933699496484 - 0.20599002903442262j,
             0.4763337936585276 - 0.4457091249551944j)
    got = factor(SelfInversivePoly(
        tuple(expand_circle_product(1.073836843735142, zeros))))
    assert abs(got.scale - 1.073836843735142) < 1e-8
    assert zero_mismatch(got.zeros, zeros) < 1e-8


def test_factor_error_names_the_best_attempt():
    # circle zeros 0.01 apart: lowering the middle coefficient splits the
    # pair off the circle, no attempt re-expands within tolerance, and the
    # collars 1e-02, 3e-02 and 6e-02 tie for the smallest residual
    c = np.array(expand_circle_product(
        1.0, (np.exp(0.7j), np.exp(0.71j), 0.3)))
    c[3] -= 1e-9
    with pytest.raises(FactorError) as info:
        factor(SelfInversivePoly(tuple(c)), tol=1e-7)
    assert str(info.value) == (
        "re-expansion residual 2.637e-05 exceeds tolerance "
        "(best attempt at collar 1e-02)")


def test_factor_interior_zero_near_circle():
    zeros = (0.995 * np.exp(1j * 0.7),)
    got = factor(SelfInversivePoly(tuple(expand_circle_product(1.0, zeros))))
    assert abs(abs(got.zeros[0]) - 0.995) < 1e-9


def test_form_rejects_zero_outside_disc():
    with pytest.raises(ValueError):
        CircleRationalForm(1.0, (1.2,))


def test_form_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        CircleRationalForm(0.0, (0.5,))
