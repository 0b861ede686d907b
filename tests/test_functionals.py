"""Boundary functional evaluation, problem builders, rank and type checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import functionals
from ellipsogeo.functionals import (
    BoundaryFunctional,
    ProblemSpec,
    build_point_direction_problem,
    build_two_point_problem,
    eval_functional,
    independence_rank,
    type_defect,
)


def direct_quadrature(weight_fn, h_coeffs, nu, M=4096):
    """Reference value: trapezoid of Re(h . w) with the exact closed-form
    weight, no Laurent truncation anywhere."""
    theta = 2 * np.pi * np.arange(M) / M
    pts = nu * np.exp(1j * theta)
    h_coeffs = np.asarray(h_coeffs, dtype=complex)
    hv = np.stack([np.polyval(h_coeffs[j, ::-1], pts)
                   for j in range(h_coeffs.shape[0])])
    wv = weight_fn(pts)
    return float(np.mean(np.sum(hv * wv, axis=0).real))


def truncated_pole_table(sigma, K):
    # Laurent tail of 1/(z - sigma) on |z| > |sigma|: sum sigma^k z^(-k-1)
    return {-k - 1: complex(sigma) ** k for k in range(K + 1)}


# ---------------------------------------------------------------------------
# eval_functional readers


def test_constant_weight_reads_mean_value():
    h = np.array([[0.3 + 0.1j, 2.0, -1.0j], [0.7 - 0.2j, 0.0, 5.0]])
    for j in range(2):
        tables = [dict(), dict()]
        tables[j] = {0: 1.0 + 0j}
        func = BoundaryFunctional(tuple(tables), nu=0.6)
        assert eval_functional(func, h) == pytest.approx(h[j, 0].real,
                                                         abs=1e-14)


def test_inverse_weight_reads_first_derivative():
    h = np.array([[0.2, 1.5 - 0.4j, 3.0j, -0.1]])
    func = BoundaryFunctional(({-1: 1.0 + 0j},), nu=0.5)
    # nu^1 from h against nu^-1 from the weight cancel exactly
    assert eval_functional(func, h) == pytest.approx(1.5, abs=1e-14)
    func2 = BoundaryFunctional(({-1: -1j},), nu=0.5)
    assert eval_functional(func2, h) == pytest.approx(-0.4, abs=1e-14)


def test_raw_pole_weight_matches_direct_quadrature():
    # w = e_1/(zeta - sigma) against h = lam^2 picks the k=1 Laurent term
    sigma, nu = 0.5, 0.75
    h = np.array([[0.0, 0.0, 1.0]])
    func = BoundaryFunctional((truncated_pole_table(sigma, 60),), nu=nu)
    got = eval_functional(func, h)
    want = direct_quadrature(lambda z: (1.0 / (z - sigma))[None, :], h, nu)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(sigma, abs=1e-12)


def test_normalized_pole_weight_reads_value_at_sigma():
    # z/(z - sigma) has residue-normalized constant 1, so the functional
    # returns Re h(sigma) for any disc-holomorphic h
    sigma, nu = 0.5, 0.75
    h = np.array([[0.0, 0.0, 1.0]])
    table = {-k: complex(sigma) ** k for k in range(61)}
    func = BoundaryFunctional((table,), nu=nu)
    got = eval_functional(func, h)
    want = direct_quadrature(lambda z: (z / (z - sigma))[None, :], h, nu)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(sigma ** 2, abs=1e-12)


def test_eval_accepts_callable_maps():
    func = BoundaryFunctional(({0: 1.0 + 0j}, {-1: 1.0 + 0j}), nu=0.7)
    coeffs = np.array([[0.4, 1.0], [0.0, 2.0]])

    def closed_form(z):
        return np.stack([0.4 + z, 2.0 * z])

    a = eval_functional(func, coeffs)
    b = eval_functional(func, closed_form, M=256)
    assert a == pytest.approx(0.4 + 2.0, abs=1e-13)
    assert b == pytest.approx(a, abs=1e-13)


def test_eval_rejects_unresolved_bandwidth():
    func = BoundaryFunctional(({-8: 1.0 + 0j},), nu=0.5)
    with pytest.raises(ValueError):
        eval_functional(func, np.array([[1.0]]), M=16)
    # degree-aware guard for coefficient maps: degree 20 against bandwidth 8
    with pytest.raises(ValueError):
        eval_functional(func, np.ones((1, 21)), M=24)


def test_eval_rejects_wrong_component_count():
    func = BoundaryFunctional(({0: 1.0 + 0j}, {0: 1.0 + 0j}), nu=0.5)
    with pytest.raises(ValueError):
        eval_functional(func, np.array([[1.0, 2.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_eval_is_real_linear(seed_h, seed_w):
    rng_w = np.random.default_rng(seed_w)
    tables = []
    for _ in range(2):
        t = {}
        for s in range(-3, 4):
            if rng_w.random() < 0.5:
                t[s] = complex(*rng_w.uniform(-1, 1, 2))
        tables.append(t)
    func = BoundaryFunctional(tuple(tables), nu=0.7)
    rng_h = np.random.default_rng(seed_h)
    h1 = rng_h.uniform(-1, 1, (2, 4)) + 1j * rng_h.uniform(-1, 1, (2, 4))
    h2 = rng_h.uniform(-1, 1, (2, 4)) + 1j * rng_h.uniform(-1, 1, (2, 4))
    c = rng_h.uniform(-2, 2)
    lhs = eval_functional(func, h1 + c * h2)
    rhs = eval_functional(func, h1) + c * eval_functional(func, h2)
    assert lhs == pytest.approx(rhs, abs=1e-11)


# ---------------------------------------------------------------------------
# problem builders


def test_point_direction_identity_disc():
    spec = build_point_direction_problem([0.0], [1.0])
    assert len(spec.functionals) == 4
    assert spec.band_degree == 1
    assert spec.sigma == (0j,)
    h = np.array([[0.0, 1.0]])  # h(lam) = lam
    values = [eval_functional(f, h) for f in spec.functionals]
    assert values == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-13)
    assert list(spec.targets) == pytest.approx(values, abs=1e-13)


def test_point_direction_targets_read_off_data():
    spec = build_point_direction_problem([0.1, 0.2j], [1.0, -1j])
    assert list(spec.targets) == pytest.approx(
        [0.1, 0.0, 0.0, 0.2, 1.0, 0.0, 0.0, -1.0], abs=0)


def test_point_direction_constant_map_kills_derivative_reads():
    z = np.array([0.3 - 0.2j, 0.1j])
    spec = build_point_direction_problem(z, [1.0, 2.0])
    h = z[:, None]  # constant map
    values = [eval_functional(f, h) for f in spec.functionals]
    want = list(z.real) + list(z.imag) + [0.0] * 4
    assert values == pytest.approx(want, abs=1e-13)


def test_point_direction_rejects_zero_direction():
    with pytest.raises(ValueError):
        build_point_direction_problem([0.1], [0.0])


def test_two_point_identity_disc():
    spec = build_two_point_problem([0.0], [0.5], 0.5)
    assert spec.sigma == (0.5 + 0j,)
    h = np.array([[0.0, 1.0]])
    values = np.array([eval_functional(f, h) for f in spec.functionals])
    assert values == pytest.approx(list(spec.targets), abs=1e-11)
    # reference: same weights in closed form, dense grid
    nu = spec.functionals[2].nu
    pole = direct_quadrature(lambda z: (z / (z - 0.5))[None, :], h, nu)
    assert values[2] == pytest.approx(pole, abs=1e-11)


def test_two_point_constant_map_reads_z_at_sigma():
    z = np.array([0.2 + 0.1j, -0.3j])
    spec = build_two_point_problem(z, [0.5, 0.5], 0.4)
    h = z[:, None]
    values = [eval_functional(f, h) for f in spec.functionals]
    want = list(z.real) + list(z.imag) + list(z.real) + list(z.imag)
    assert values == pytest.approx(want, abs=1e-11)


def test_two_point_rejects_equal_points():
    with pytest.raises(ValueError):
        build_two_point_problem([0.2, 0.1], [0.2, 0.1], 0.5)


def test_two_point_rejects_sigma_outside_interval():
    with pytest.raises(ValueError):
        build_two_point_problem([0.0], [0.5], 1.2)
    with pytest.raises(ValueError):
        build_two_point_problem([0.0], [0.5], 0.0)


# ---------------------------------------------------------------------------
# nu independence


@pytest.mark.parametrize("nu", [0.5, 0.7, 0.9])
def test_nu_independence_point_direction(nu):
    rng = np.random.default_rng(31)
    spec = build_point_direction_problem([0.1, -0.2j], [0.5, 1.0])
    h = rng.uniform(-1, 1, (2, 5)) + 1j * rng.uniform(-1, 1, (2, 5))
    for func in spec.functionals:
        base = eval_functional(func, h)
        moved = eval_functional(dataclasses.replace(func, nu=nu), h)
        assert abs(base - moved) < 1e-10


@pytest.mark.parametrize("nu", [0.5, 0.7, 0.9])
def test_nu_independence_two_point(nu):
    # truncated pole tables act on polynomials through finitely many
    # Laurent pairings, so any nu above the quadrature floor agrees
    rng = np.random.default_rng(32)
    spec = build_two_point_problem([0.1], [0.4], 0.3)
    h = rng.uniform(-1, 1, (1, 5)) + 1j * rng.uniform(-1, 1, (1, 5))
    for func in spec.functionals:
        base = eval_functional(func, h)
        moved = eval_functional(dataclasses.replace(func, nu=nu), h)
        assert abs(base - moved) < 1e-10


# ---------------------------------------------------------------------------
# rank and type diagnostics


def test_rank_full_for_point_direction_problem():
    spec = build_point_direction_problem([0.1, 0.2j], [1.0, -1j])
    assert independence_rank(spec) == 8


def test_rank_full_on_monomial_trials():
    spec = build_point_direction_problem([0.0], [1.0])
    assert independence_rank(spec) == 4


def test_rank_drops_for_duplicate_functionals():
    spec = build_point_direction_problem([0.0], [1.0])
    doubled = ProblemSpec(spec.functionals + spec.functionals,
                          spec.targets + spec.targets,
                          spec.band_degree, spec.sigma)
    assert independence_rank(doubled) < len(doubled.functionals)


def test_rank_single_functional():
    func = BoundaryFunctional(({0: 1.0 + 0j},), nu=0.5)
    spec = ProblemSpec((func,), (1.0,), 0, ())
    assert independence_rank(spec) == 1


def quadrature_trial_matrix(spec):
    """Reference: each functional's quadrature value on each monomial
    disc c e_j lambda^d, over the same columns as the rank uses."""
    n = spec.functionals[0].n
    degrees = max(2, (2 * len(spec.functionals)) // n + 2)
    trials = []
    for d in range(degrees):
        for j in range(n):
            for unit in (1.0, 1j):
                coeffs = np.zeros((n, d + 1), dtype=complex)
                coeffs[j, d] = unit
                trials.append(coeffs)
    return np.array([[eval_functional(f, h) for h in trials]
                     for f in spec.functionals])


def test_rank_matches_the_quadrature_trial_matrix():
    # the rank reads the Laurent tables; quadrature on the monomial discs
    # must give the same matrix and rank
    rng = np.random.default_rng(14)
    for i in range(24):
        n = 1 + i % 3
        z = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n)
        v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if n > 1 and i % 4 in (1, 2):
            z[0] = 0.0
            v[0] = 0.0
        if i % 2 == 0:
            sigma = (0.05, 0.3, 0.7)[(i // 2) % 3]
            spec = build_two_point_problem(z, v, sigma)
        else:
            spec = build_point_direction_problem(z, v)
        want = quadrature_trial_matrix(spec)
        got = functionals._trial_matrix(spec)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
        sv = np.linalg.svd(want, compute_uv=False)
        assert independence_rank(spec) == np.count_nonzero(sv > 1e-8 * sv[0])


def test_type_defect_zero_when_divisor_declared():
    pd = build_point_direction_problem([0.1], [1.0])
    assert type_defect(pd) == 0.0
    tp = build_two_point_problem([0.0], [0.5], 0.55)
    assert type_defect(tp) < 1e-12


def test_type_defect_flags_undeclared_pole():
    func = BoundaryFunctional(({-1: 1.0 + 0j},), nu=0.5)
    spec = ProblemSpec((func,), (0.0,), 0, ())
    assert type_defect(spec) > 0.1


def test_problem_spec_validation():
    func = BoundaryFunctional(({0: 1.0 + 0j},), nu=0.5)
    with pytest.raises(ValueError):
        ProblemSpec((func,), (1.0, 2.0), 0, ())
    with pytest.raises(ValueError):
        ProblemSpec((func,), (1.0,), 1, (1.5 + 0j,))
    with pytest.raises(ValueError):
        BoundaryFunctional(({0: 1.0},), nu=1.0)
