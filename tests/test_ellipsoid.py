import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import Ellipsoid, GradientUndefinedError


def test_defining_value_origin():
    E = Ellipsoid((1.0, 1.0))
    assert E.defining_value((0.0, 0.0)) == -1.0


def test_defining_value_unit_vector_on_boundary():
    E = Ellipsoid((1.0, 1.0))
    assert abs(E.defining_value((1.0, 0.0))) < 1e-15


def test_defining_value_mixed_exponents():
    E = Ellipsoid((1.0, 2.0))
    # 0.36 + 0.7^4 - 1
    assert E.defining_value((0.6, 0.7)) == pytest.approx(-0.3999, abs=1e-12)


def test_defining_values_vectorized_matches_scalar():
    E = Ellipsoid((1.0, 2.0, 0.7))
    rng = np.random.default_rng(0)
    zs = 0.5 * (rng.standard_normal((3, 11)) + 1j * rng.standard_normal((3, 11)))
    vals = E.defining_values(zs)
    assert vals.shape == (11,)
    for k in range(11):
        assert vals[k] == pytest.approx(E.defining_value(zs[:, k]), abs=1e-14)


def test_gradient_ball_is_conjugate():
    E = Ellipsoid((1.0, 1.0))
    z = np.array([0.3 + 0.4j, -0.2 + 0.1j])
    g = E.wirtinger_gradient(z)
    assert np.allclose(g, np.conj(z))


def test_gradient_single_component_squared():
    E = Ellipsoid((2.0,))
    g = E.wirtinger_gradient((0.5,))
    assert g[0] == pytest.approx(0.25, abs=1e-15)


def test_gradient_zero_component_raises_with_index():
    E = Ellipsoid((1.0, 1.0, 1.0))
    with pytest.raises(GradientUndefinedError) as exc:
        E.wirtinger_gradient((0.3, 0.0, 0.1))
    assert exc.value.index == 1


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_gradient_matches_directional_derivative(n, seed):
    # u is a real function of the real coordinates; for any real step v,
    # d/dt u(z + t v) = 2 Re <grad, v> at t = 0
    rng = np.random.default_rng(seed)
    p = tuple(rng.uniform(0.5, 3.0, n))
    E = Ellipsoid(p)
    z = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z[np.abs(z) < 1e-2] += 0.1  # keep clear of the gradient singularity
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = 1e-6
    num = (E.defining_value(z + h * v) - E.defining_value(z - h * v)) / (2 * h)
    ana = 2.0 * np.real(np.sum(E.wirtinger_gradient(z) * v))
    assert num == pytest.approx(ana, rel=1e-5, abs=1e-8)


def test_convexity_threshold():
    assert Ellipsoid((0.5, 2.0)).is_convex
    assert not Ellipsoid((0.49, 2.0)).is_convex


def test_exponents_must_be_positive():
    with pytest.raises(ValueError):
        Ellipsoid((1.0, 0.0))
    with pytest.raises(ValueError):
        Ellipsoid((-0.5,))


def test_json_round_trip():
    E = Ellipsoid((1.0, 2.5, 0.75))
    assert Ellipsoid.from_json(E.to_json()) == E
