"""The analyticity defect on circle grids and the family membership fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import (
    Ellipsoid,
    FitPreconditionError,
    analyticity_defect,
    fit_extremal_family,
)
from ellipsogeo import boundary, extremal_map as em

M0 = 64
ZETA = np.exp(2j * np.pi * np.arange(M0) / M0)


# --- analyticity defect ------------------------------------------------------

def test_analyticity_defect_polynomial():
    assert analyticity_defect(ZETA ** 2 + 5) < 1e-13


def test_analyticity_defect_conjugate():
    assert analyticity_defect(np.conj(ZETA)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("M", [5, 7, 9])
def test_analyticity_defect_on_odd_grids(M):
    # an odd grid has (M - 1) // 2 negative frequencies, none of them the
    # constant's
    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    assert analyticity_defect(np.full(M, 3.0, dtype=complex)) < 1e-15
    assert analyticity_defect(np.conj(zeta)) == pytest.approx(1.0, abs=1e-13)


def test_analyticity_defect_of_one_sample_is_zero():
    assert analyticity_defect([2.0]) == 0.0


def test_analyticity_defect_cleared_denominator_trace():
    # a single band-1 component with p = 1: multiplying the boundary
    # trace by its denominator factor leaves polynomial data
    params = em.ExtremalMapParams(
        m=1, n=1, a=np.array([1.0 + 0j]), alpha0=np.array([0.6j]),
        alpha=np.array([[0.3 + 0j]]), r=np.array([[1]]))
    E = Ellipsoid((1.0,))
    Mg = 512
    zeta = np.exp(2j * np.pi * np.arange(Mg) / Mg)
    trace = em.boundary_trace(params, E, Mg)[0]
    assert analyticity_defect(trace * (1 - np.conj(0.6j) * zeta)) < 1e-8


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_analyticity_defect_vanishes_for_polynomials(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(0, M0 // 2 - 1))
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    vals = np.polyval(c[::-1], ZETA)
    assert analyticity_defect(vals) < 1e-11 * max(1.0, np.max(np.abs(c)))


# --- membership fit ---------------------------------------------------------
# The fit's inputs here are all fixed, so any RuntimeWarning (a log of 0, an
# overflow) is a fault of the fit, not of a draw.

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_recovers_flat_family_exactly():
    a = np.array([np.sqrt(0.5), 0.5 ** 0.25], dtype=complex)
    params = em.ExtremalMapParams(
        m=1, n=2, a=a, alpha0=np.array([0j]),
        alpha=np.zeros((1, 2), dtype=complex), r=np.ones((1, 2), dtype=int))
    E = Ellipsoid((1.0, 2.0))
    trace = em.boundary_trace(params, E, 64)
    rep = fit_extremal_family(trace, ((0.0,), (0.0,)), E, 1)
    assert rep.in_family
    # the squares solver stalls at its ftol floor, not at machine zero
    assert rep.rms_total < 1e-9
    assert np.max(np.abs(rep.params.a - a)) < 1e-8
    assert np.max(np.abs(rep.params.alpha)) < 1e-10
    assert np.max(np.abs(rep.params.alpha0)) < 1e-8


def _flat_fit_input():
    a = np.array([np.sqrt(0.5), 0.5 ** 0.25], dtype=complex)
    params = em.ExtremalMapParams(
        m=1, n=2, a=a, alpha0=np.array([0j]),
        alpha=np.zeros((1, 2), dtype=complex), r=np.ones((1, 2), dtype=int))
    E = Ellipsoid((1.0, 2.0))
    return em.boundary_trace(params, E, 64), ((0.0,), (0.0,)), E, 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_skips_a_start_least_squares_rejects(monkeypatch):
    real = boundary.least_squares
    calls = []

    def first_start_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("Residuals are not finite in the initial point.")
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "least_squares", first_start_fails)
    rep = fit_extremal_family(*_flat_fit_input())
    assert len(calls) >= 2
    assert rep.in_family


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a bad start")

    monkeypatch.setattr(boundary, "least_squares", broken)
    with pytest.raises(RuntimeError, match="not a bad start"):
        fit_extremal_family(*_flat_fit_input())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,m,seed", [(1, 1, 0), (2, 1, 1), (2, 2, 2),
                                      (3, 2, 3), (1, 3, 4)])
def test_fit_round_trip_hidden_parameters(n, m, seed):
    rng = np.random.default_rng(seed)
    p = tuple(rng.uniform(0.6, 2.5, n))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, m)
    trace = em.boundary_trace(params, E, 256)
    rep = fit_extremal_family(trace, em.component_zeros(params), E, m)
    assert rep.in_family
    assert rep.rms_total < 1e-6
    assert rep.singular_defect < 1e-6
    assert rep.constraint_residual < 1e-8
    refit = em.boundary_trace(rep.params, E, 256)
    assert np.max(np.abs(refit - trace)) < 1e-6
    # Band zeros are only observable when some component keeps them.  With
    # n = 1 the norm constraint forces the per-component and band zero
    # multisets to coincide, the fractional factors telescope away, and the
    # trace keeps no record of the band values, so compare them only for
    # n >= 2 where the drawn instances are generic.
    if n >= 2:
        fitted0 = np.ravel(rep.params.alpha0)
        for k in range(m):
            assert np.min(np.abs(fitted0 - params.alpha0[k])) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_off_boundary_candidate():
    # (lam, c) with constant c is holomorphic but never sits on the
    # boundary surface, so the precondition trips before any fitting
    Mg = 128
    zeta = np.exp(2j * np.pi * np.arange(Mg) / Mg)
    samples = np.stack([zeta, np.full(Mg, 0.5 + 0j)])
    with pytest.raises(FitPreconditionError):
        fit_extremal_family(samples, ((0.0,), ()), Ellipsoid((1.0, 1.0)), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nan_column", [None, 5],
                         ids=["clean", "nan-column-5"])
def test_fit_reports_masked_and_tolerance(nan_column):
    rng = np.random.default_rng(8)
    p = (1.0, 1.3)
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, 1)
    trace = em.boundary_trace(params, E, 128)
    # a non-finite sample is masked together with its two neighbours
    skipped = []
    if nan_column is not None:
        trace[:, nan_column] = np.nan
        skipped = [nan_column - 1, nan_column, nan_column + 1]
    rep = fit_extremal_family(trace, em.component_zeros(params), E, 1, tol=1e-5)
    assert rep.in_family
    assert len(rep.rms_by_component) == 2
    assert rep.masked == 2 * len(skipped)
    assert rep.singular_defect == max(rep.rms_by_component)


def _zero_component_input():
    # (zeta, 0) lies on the boundary of the round ball, but log |0| leaves
    # component 1 no usable sample
    Mg = 64
    zeta = np.exp(2j * np.pi * np.arange(Mg) / Mg)
    return np.stack([zeta, np.zeros(Mg, dtype=complex)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_a_component_masked_away():
    with pytest.raises(FitPreconditionError,
                       match="^component 1 has too few usable samples "
                             "after masking$"):
        fit_extremal_family(_zero_component_input(), ((), ()),
                            Ellipsoid((1.0, 1.0)), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_too_many_non_finite_samples():
    samples = _zero_component_input()
    samples[:, : samples.shape[1] // 4 + 1] = np.nan
    with pytest.raises(FitPreconditionError,
                       match="^too many non-finite candidate samples$"):
        fit_extremal_family(samples, ((), ()), Ellipsoid((1.0, 1.0)), 1)


def _sparse_member(nan_columns):
    # a band degree 4 member on 32 samples with no pinned zeros: 17
    # unknowns, rho and 8 complex zeros; each non-finite column masks
    # itself and its two neighbours
    rng = np.random.default_rng(3)
    E = Ellipsoid((1.5,))
    params = em.random_valid_params(rng, E.exponents, 4)
    trace = em.boundary_trace(params, E, 32)
    trace[:, nan_columns] = np.nan
    return trace, ((),), E, 4


UNDERDETERMINED = [0, 1, 8, 9, 16, 17, 24, 25]   # 16 usable samples


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_refuses_fewer_usable_samples_than_unknowns(monkeypatch):
    runs = _spy_least_squares(monkeypatch)
    with pytest.raises(FitPreconditionError,
                       match="^16 usable samples cannot determine "
                             "17 unknowns$"):
        fit_extremal_family(*_sparse_member(UNDERDETERMINED))
    assert runs == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_runs_with_as_many_usable_samples_as_unknowns(monkeypatch):
    runs = _spy_least_squares(monkeypatch)
    rep = fit_extremal_family(*_sparse_member(UNDERDETERMINED[:-1]))
    assert runs
    assert rep.masked == 32 - 17


def _spy_least_squares(monkeypatch):
    """Forward `boundary.least_squares`; record each run's (fun, jac, x0,
    result, residual calls)."""
    real = boundary.least_squares
    runs = []

    def spying(fun, x0, jac="2-point", **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return fun(x)

        res = real(counted, x0, jac=jac, **kwargs)
        runs.append((fun, jac, x0, res, calls[0]))
        return res

    monkeypatch.setattr(boundary, "least_squares", spying)
    return runs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fit_jacobian_matches_central_differences(monkeypatch, n, m, pinned):
    rng = np.random.default_rng(100 * n + 10 * m + pinned)
    p = tuple(rng.uniform(0.6, 2.5, n))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, m)
    zeros = em.component_zeros(params) if pinned else ((),) * n
    runs = _spy_least_squares(monkeypatch)
    fit_extremal_family(em.boundary_trace(params, E, 64), zeros, E, m)
    fun, jac, x0, _, _ = runs[0]
    # the first start moved off itself, away from the fitted solution
    x = x0 + 0.05 * rng.standard_normal(x0.size)
    J = jac(x)
    h = 1e-6
    diff = np.empty_like(J)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        diff[:, i] = (fun(x + e) - fun(x - e)) / (2 * h)
    assert J.shape == (fun(x).size, x.size)
    assert np.max(np.abs(J - diff)) <= 1e-6 * np.max(np.abs(diff))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_jacobian_is_finite_where_a_factor_vanishes(monkeypatch):
    # a free zero at the sample zeta = 1 makes its factor 0 there; the
    # residual clamps that log-modulus, and its Jacobian entries are 0
    runs = _spy_least_squares(monkeypatch)
    fit_extremal_family(*_flat_fit_input()[:2], Ellipsoid((1.0, 2.0)), 2)
    fun, jac, x0, _, _ = runs[0]
    x = x0.copy()
    x[2:4] = (1.0, 0.0)  # component 0's free zero
    J = jac(x)
    assert np.all(np.isfinite(fun(x))) and np.all(np.isfinite(J))
    assert np.all(J[0, 2:4] == 0.0)
    assert np.all(J[1:64, 2] != 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_spends_no_residuals_on_finite_differences(monkeypatch):
    rng = np.random.default_rng(2)
    p = tuple(rng.uniform(0.6, 2.5, 2))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, 2)
    trace = em.boundary_trace(params, E, 256)
    runs = _spy_least_squares(monkeypatch)
    rep = fit_extremal_family(trace, em.component_zeros(params), E, 2)
    assert rep.in_family
    for _, jac, _, res, calls in runs:
        assert callable(jac)
        # `nfev` counts every residual call, and a finite-difference
        # Jacobian would add one call per unknown to the spy's count
        assert calls == res.nfev


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_data_of_a_higher_band_degree():
    # a member of band degree 2, one zero pinned per component, fitted at
    # m = 1: the fit cannot reach the data and says so
    rng = np.random.default_rng(1)
    E = Ellipsoid((1.0, 2.0))
    params = em.random_valid_params(rng, E.exponents, 2)
    trace = em.boundary_trace(params, E, 64)
    zeros = tuple(z[:1] for z in em.component_zeros(params))
    rep = fit_extremal_family(trace, zeros, E, 1)
    assert rep.in_family is False
    assert rep.rms_total > 1e-2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m,M,message", [
    (0, 8, "^band degree m must be >= 1$"),
    (1, 8, "^need at least 16 samples per component$"),
    (3, 16, "^need at least 24 samples per component$"),
], ids=["m0-M8", "m1-M8", "m3-M16"])
def test_fit_checks_the_degree_before_the_grid(m, M, message):
    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    with pytest.raises(ValueError, match=message):
        fit_extremal_family(zeta[None, :], ((),), Ellipsoid((1.0,)), m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_is_bit_identical_between_calls():
    rng = np.random.default_rng(2)
    p = tuple(rng.uniform(0.6, 2.5, 3))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, 2)
    trace = em.boundary_trace(params, E, 256)
    first, second = (fit_extremal_family(trace, ((),) * 3, E, 2)
                     for _ in range(2))
    for name in ("a", "alpha0", "alpha", "r"):
        assert np.array_equal(getattr(first.params, name),
                              getattr(second.params, name))
    assert first.rms_total == second.rms_total
    assert first.rms_by_component == second.rms_by_component


# --- Levenberg-Marquardt ----------------------------------------------------

def _counted(fun):
    """fun, and a list that gets one entry per call of it."""
    calls = []

    def counting(x):
        calls.append(1)
        return fun(x)
    return counting, calls


def test_least_squares_solves_a_linear_problem():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 5))
    want = rng.standard_normal(5)
    b = A @ want
    fun, calls = _counted(lambda x: A @ x - b)
    res = boundary.least_squares(fun, np.zeros(5), jac=lambda x: A)
    assert np.max(np.abs(res.x - want)) <= 1e-12
    assert np.array_equal(res.fun, A @ res.x - b)
    assert res.nfev == len(calls)


def test_least_squares_matches_minpack_with_a_nonzero_residual():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 4.0, 40)
    y = 2.5 * np.exp(-1.3 * t) + 0.3 + 0.05 * rng.standard_normal(t.size)

    def residual(x):
        return x[0] * np.exp(x[1] * t) + x[2] - y

    def jacobian(x):
        e = np.exp(x[1] * t)
        return np.column_stack((e, x[0] * t * e, np.ones_like(t)))

    x0 = np.array([1.0, -0.5, 0.0])
    fun, calls = _counted(residual)
    res = boundary.least_squares(fun, x0, jac=jacobian)
    ref = scipy_optimize.least_squares(residual, x0, jac=jacobian,
                                       method="lm", xtol=1e-15, ftol=1e-15,
                                       gtol=1e-15)
    assert np.sqrt(np.mean(ref.fun ** 2)) > 0.01
    assert np.max(np.abs(res.x - ref.x)) <= 1e-9
    assert res.nfev == len(calls)


def test_least_squares_refuses_a_non_finite_start():
    fun, calls = _counted(lambda x: np.array([np.log(x[0]), x[1]]))
    with pytest.raises(ValueError, match="not finite"):
        with np.errstate(invalid="ignore"):
            boundary.least_squares(fun, np.array([-1.0, 0.0]),
                                   jac=lambda x: np.eye(2))
    assert len(calls) == 1


@pytest.mark.parametrize("max_nfev", [1, 2, 7])
def test_least_squares_honours_max_nfev(max_nfev):
    # Rosenbrock's valley from its classic start takes dozens of calls
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jacobian(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    fun, calls = _counted(residual)
    res = boundary.least_squares(fun, np.array([-1.2, 1.0]), jac=jacobian,
                                 max_nfev=max_nfev)
    assert res.nfev == len(calls) == max_nfev
    full = boundary.least_squares(residual, np.array([-1.2, 1.0]),
                                  jac=jacobian)
    assert full.nfev > 7
    assert np.max(np.abs(full.x - 1.0)) <= 1e-12
