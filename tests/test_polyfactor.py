"""Self-inversive expansion, factorization, and boundary reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import (
    CircleRationalForm,
    FactorError,
    SelfInversivePoly,
    check_self_inversive,
    factor,
    reconstruct_from_boundary,
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


# --- boundary reconstruction ------------------------------------------------

def circle_samples(coeffs, M=64):
    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    return np.polyval(np.asarray(coeffs)[::-1], zeta)


def test_reconstruct_mobius_numerator_with_trivial_divisor():
    samples = circle_samples(expand_circle_product(1.0, (0.5,)))
    got = reconstruct_from_boundary(samples, (0.0,))
    assert got.scale == pytest.approx(1.0, abs=1e-10)
    assert zero_mismatch(got.zeros, (0.5,)) < 1e-8
    assert got.sigma == (0.0,)


def test_reconstruct_identity_map_data():
    samples = circle_samples((0.0, 1.0, 0.0))
    got = reconstruct_from_boundary(samples, (0.0,))
    assert zero_mismatch(got.zeros, (0.0,)) < 1e-10


def test_reconstruct_rejects_out_of_band_energy():
    M = 64
    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    with pytest.raises(FactorError):
        reconstruct_from_boundary(zeta ** 3, (0.0,))


def test_reconstruct_divides_out_declared_divisor():
    # the divisor length fixes the band: len(sigma) = m = number of zeros
    sig = (0.4 + 0.3j, -0.1j)
    zeros = (0.2 - 0.6j, 0.7)
    c = expand_circle_product(0.8, zeros)
    M = 128
    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    den = (1 - np.conj(sig[0]) * zeta) * (1 - np.conj(sig[1]) * zeta)
    got = reconstruct_from_boundary(np.polyval(c[::-1], zeta) / den, sig)
    assert abs(got.scale - 0.8) < 1e-9
    assert zero_mismatch(got.zeros, zeros) < 1e-8


def test_reconstruct_rejects_exterior_divisor_point():
    samples = circle_samples((0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        reconstruct_from_boundary(samples, (1.5,))
