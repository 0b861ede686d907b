"""Parametric family evaluation, constraint identity, boundary behavior."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsogeo import Ellipsoid, ParameterError
from ellipsogeo import extremal_map as em


def make_params(a, alpha0, alpha, r):
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    return em.ExtremalMapParams(
        m=alpha.shape[0], n=a.size, a=a,
        alpha0=np.atleast_1d(np.asarray(alpha0, dtype=complex)),
        alpha=alpha, r=np.atleast_2d(np.asarray(r, dtype=int)))


def flat_params():
    # all alpha zero: phi_j(lam) = a_j lam^r_j, membership needs
    # sum |a_j|^(2 p_j) = 1
    return make_params([np.sqrt(0.5), 0.5 ** 0.25], [0.0],
                       [[0.0, 0.0]], [[1, 1]])


FLAT_E = Ellipsoid((1.0, 2.0))


def test_mobius_zero_at_alpha():
    params = make_params([1.0], [0.5], [[0.5]], [[1]])
    val = em.evaluate(params, Ellipsoid((1.0,)), 0.5)
    assert abs(val[0]) < 1e-15


def test_flat_family_is_monomial():
    vals = em.evaluate(flat_params(), FLAT_E, 0.3)
    assert vals[0] == pytest.approx(np.sqrt(0.5) * 0.3, abs=1e-14)
    assert vals[1] == pytest.approx(0.5 ** 0.25 * 0.3, abs=1e-14)


def test_flat_family_residuals_vanish():
    assert em.constraint_residual(flat_params(), FLAT_E) < 1e-14
    assert em.boundary_defect(flat_params(), FLAT_E, 64) < 1e-14


def test_flat_family_boundary_membership_exact():
    trace = em.boundary_trace(flat_params(), FLAT_E, 8)
    s = np.abs(trace[0]) ** 2 + np.abs(trace[1]) ** 4
    assert np.max(np.abs(s - 1.0)) < 1e-14


def test_single_mobius_boundary_unimodular():
    params = make_params([1.0], [0.5], [[0.5]], [[1]])
    trace = em.boundary_trace(params, Ellipsoid((1.0,)), 16)
    assert np.max(np.abs(np.abs(trace[0]) - 1.0)) < 1e-14


def solve_equal_weight_band1():
    """Independent bisection for the tied-coefficient system at m=1.

    With alpha_1 = 0.3, alpha_2 = -0.2 and equal weights w, the system
    reduces to 0.01 w^2 - 2.13 w + 1 = 0 and alpha_0 = 0.1 w; bisection
    on [0, 1] brackets the small root.
    """
    f = lambda w: 0.01 * w * w - 2.13 * w + 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def tied_band1_params():
    w = solve_equal_weight_band1()
    # p = (1, 2): w = |a_1|^2 = |a_2|^4
    return make_params([np.sqrt(w), w ** 0.25], [0.1 * w],
                       [[0.3, -0.2]], [[1, 1]]), w


def test_band1_system_solution_is_consistent():
    E = Ellipsoid((1.0, 2.0))
    params, w = tied_band1_params()
    assert em.constraint_residual(params, E) < 1e-12
    vals = em.evaluate(params, E, 0.0)
    assert E.defining_value(vals) < 0
    assert em.boundary_defect(params, E, 256) < 1e-10


def test_band1_membership_against_high_precision_sum():
    # independent check of the boundary identity at 10 random angles:
    # for r = 1 the inner factors are unimodular, so the membership sum
    # reduces to sum_j w_j |1 - conj(alpha_j) zeta|^2 / |1 - conj(a0) zeta|^2
    params, w = tied_band1_params()
    a0 = 0.1 * w
    mpmath.mp.dps = 40
    rng = np.random.default_rng(13)
    for theta in rng.uniform(0, 2 * np.pi, 10):
        zeta = mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
        num1 = abs(1 - mpmath.mpf(0.3) * zeta) ** 2
        num2 = abs(1 + mpmath.mpf(0.2) * zeta) ** 2
        den = abs(1 - mpmath.mpf(a0) * zeta) ** 2
        s = (mpmath.mpf(w) * num1 + mpmath.mpf(w) * num2) / den
        assert abs(float(s) - 1.0) < 1e-10


def test_constraint_residual_mismatch_example():
    params = make_params([1.0, 1.0], [0.1], [[0.3, -0.2]], [[1, 1]])
    res = em.constraint_residual(params, Ellipsoid((1.0, 1.0)))
    assert res == pytest.approx(1.12, abs=1e-12)


def test_single_component_residual_forces_mobius():
    # for n = 1 the identity pins |a|^(2p) = 1 and alpha = alpha0
    params = make_params([np.exp(0.7j)], [0.3 + 0.2j], [[0.3 + 0.2j]], [[1]])
    assert em.constraint_residual(params, Ellipsoid((1.7,))) < 1e-14
    off_weight = make_params([0.9 * np.exp(0.7j)], [0.3 + 0.2j],
                             [[0.3 + 0.2j]], [[1]])
    assert em.constraint_residual(off_weight, Ellipsoid((1.7,))) > 1e-2
    off_zero = make_params([np.exp(0.7j)], [0.3 + 0.2j], [[0.25 + 0.2j]], [[1]])
    assert em.constraint_residual(off_zero, Ellipsoid((1.7,))) > 1e-3


def test_component_zeros():
    assert em.component_zeros(flat_params()) == ((0.0,), (0.0,))
    mob = make_params([1.0], [0.5], [[0.5]], [[1]])
    assert em.component_zeros(mob) == ((0.5,),)
    r0 = make_params([0.6, 0.8], [0.2], [[0.3, 0.4]], [[0, 0]])
    assert em.component_zeros(r0) == ((), ())


@given(st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_derivative_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = tuple(rng.uniform(0.6, 2.5, n))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, m)
    lam = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    h = 1e-6
    num = (em.evaluate(params, E, lam + h) - em.evaluate(params, E, lam - h)) / (2 * h)
    ana = em.derivative(params, E, lam)
    assert np.max(np.abs(num - ana)) < 1e-7 * max(1.0, np.max(np.abs(ana)))


@given(st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_generator_produces_valid_parameters(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    p = tuple(rng.uniform(0.55, 3.0, n))
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, m)
    assert em.constraint_residual(params, E) <= 5e-13
    assert np.max(np.abs(params.alpha)) <= 0.9 + 1e-12
    assert em.boundary_defect(params, E, 256) < 1e-10


def test_boundary_trace_matches_radial_limit():
    rng = np.random.default_rng(5)
    p = (1.0, 1.5)
    E = Ellipsoid(p)
    params = em.random_valid_params(rng, p, 2)
    M = 32
    trace = em.boundary_trace(params, E, M)
    for k in (0, 7, 20):
        lam = (1 - 1e-9) * np.exp(2j * np.pi * k / M)
        inner = em.evaluate(params, E, lam)
        assert np.max(np.abs(inner - trace[:, k])) < 1e-6


def test_evaluate_rejects_boundary_argument():
    with pytest.raises(ValueError):
        em.evaluate(flat_params(), FLAT_E, 1.0)


@pytest.mark.parametrize("lam", [complex("nan"),
                                 [0.1, complex(0.2, float("nan"))]])
def test_evaluate_and_derivative_reject_a_non_finite_argument(lam):
    # NaN fails |lam| < 1 like a point on the circle
    with pytest.raises(ValueError, match=r"evaluate requires \|lam\| < 1"):
        em.evaluate(flat_params(), FLAT_E, lam)
    with pytest.raises(ValueError, match=r"derivative requires \|lam\| < 1"):
        em.derivative(flat_params(), FLAT_E, lam)


def test_boundary_trace_requires_power_of_two():
    with pytest.raises(ValueError):
        em.boundary_trace(flat_params(), FLAT_E, 12)


def test_check_box_rejects_circle_zero_with_blaschke_flag():
    params = make_params([1.0], [0.0], [[1.0]], [[1]])
    with pytest.raises(ParameterError):
        params.check_box()


def test_check_box_allows_circle_zero_without_flag():
    params = make_params([1.0], [0.0], [[1.0]], [[0]])
    params.check_box()


def test_params_json_round_trip():
    rng = np.random.default_rng(3)
    params = em.random_valid_params(rng, (1.0, 2.0), 2)
    back = em.params_from_json(em.params_to_json(params))
    assert back.m == params.m and back.n == params.n
    assert np.allclose(back.a, params.a)
    assert np.allclose(back.alpha0, params.alpha0)
    assert np.allclose(back.alpha, params.alpha)
    assert np.array_equal(back.r, params.r)


def test_params_json_rejects_empty_band():
    obj = em.params_to_json(flat_params())
    obj.update(m=0, alpha0=[], alpha=[], r=[])
    with pytest.raises(ParameterError):
        em.params_from_json(obj)


def test_constraint_residual_band_permutation_invariant():
    # the tied product is symmetric in the band index
    rng = np.random.default_rng(9)
    p = (1.0, 2.0, 0.8)
    params = em.random_valid_params(rng, p, 3)
    perm = [2, 0, 1]
    shuffled = em.ExtremalMapParams(
        m=params.m, n=params.n, a=params.a.copy(),
        alpha0=params.alpha0[perm].copy(),
        alpha=params.alpha[perm].copy(),
        r=params.r[perm].copy())
    E = Ellipsoid(p)
    r1 = em.constraint_residual(params, E)
    r2 = em.constraint_residual(shuffled, E)
    assert abs(r1 - r2) < 1e-12
    assert em.boundary_defect(shuffled, E, 128) < 1e-10


# ---------------------------------------------------------------------------
# The power factor from ln|w| and Arg w against the complex-log formula


def complex_log_components(params, exponents, lam, with_derivative=False):
    """Oracle: each factor's power written with complex np.log, one
    factor at a time, and the derivative by the product rule."""
    lam = np.asarray(lam, dtype=complex)
    vals = np.empty((params.n, lam.size), dtype=complex)
    ders = np.empty((params.n, lam.size), dtype=complex)
    with np.errstate(all="ignore"):
        for j in range(params.n):
            p = exponents[j]
            f, df = [], []
            for k in range(params.m):
                al, a0 = params.alpha[k, j], params.alpha0[k]
                num = 1.0 - np.conj(al) * lam
                den = 1.0 - np.conj(a0) * lam
                h = np.exp((np.log(num) - np.log(den)) / p)
                dh = h * (-np.conj(al) / num + np.conj(a0) / den) / p
                if params.r[k, j] == 1:
                    mob = (lam - al) / num
                    dmob = (1.0 - abs(al) ** 2) / num ** 2
                    f.append(mob * h)
                    df.append(dmob * h + mob * dh)
                else:
                    f.append(h)
                    df.append(dh)
            vals[j] = params.a[j] * np.prod(f, axis=0)
            ders[j] = params.a[j] * sum(
                df[k] * np.prod(f[:k] + f[k + 1:], axis=0)
                for k in range(params.m))
    return (vals, ders) if with_derivative else vals


def random_member(rng, n, m, radius):
    """Parameters of the family's shape with zeros up to `radius`; the
    tying identity is not imposed, evaluation does not need it."""
    def disc(shape):
        return (rng.uniform(0.0, radius, shape)
                * np.exp(1j * rng.uniform(0.0, 2 * np.pi, shape)))
    a = rng.uniform(0.2, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return make_params(a, disc(m), disc((m, n)), rng.integers(0, 2, (m, n)))


@pytest.mark.parametrize("seed", range(6))
def test_eval_components_matches_complex_log_formula(seed):
    rng = np.random.default_rng(seed)
    for M in (64, 512, 8192):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = tuple(rng.uniform(0.5, 3.0, n))
        params = random_member(rng, n, m, 0.999)
        zeta = np.exp(2j * np.pi * np.arange(M) / M)
        inner = (rng.uniform(0.0, 0.999, 64)
                 * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 64)))
        got = em._eval_components(params, p, zeta)
        want = complex_log_components(params, p, zeta)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        got, dgot = em._eval_components(params, p, inner, True)
        want, dwant = complex_log_components(params, p, inner, True)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(dgot - dwant)) <= 1e-14 * np.max(np.abs(dwant))


M_EDGE = 256
EDGE_GRID = np.exp(2j * np.pi * np.arange(M_EDGE) / M_EDGE)


def edge_members():
    """Circle zeros (r = 0, |alpha| = 1) and tied zeros placed exactly on
    points of the M_EDGE grid, each with whether it must give zero
    samples and non-finite columns."""
    z1, zm1, zi, zmi = EDGE_GRID[[0, M_EDGE // 2, M_EDGE // 4,
                                  3 * M_EDGE // 4]]
    return [
        # a circle zero at zeta = 1
        (make_params([0.8, 0.9], [0.3], [[z1, 0.4]], [[0, 1]]),
         True, False),
        # circle zeros at zeta = -1 and i, beside Blaschke factors
        (make_params([0.7, 1.1, 0.6], [0.2, -0.1j],
                     [[zm1, 0.5, 0.1], [0.3j, zi, -0.2]],
                     [[0, 1, 0], [1, 0, 1]]),
         True, False),
        # the tied zero at zeta = -i
        (make_params([0.9, 0.5], [zmi], [[0.2, 0.6]], [[1, 0]]),
         False, True),
        # a tied zero and a circle zero on the same point zeta = 1
        (make_params([0.8, 0.7], [z1, 0.1], [[z1, 0.3], [0.2, -0.4]],
                     [[0, 1], [0, 0]]),
         False, True),
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", range(4))
def test_eval_components_edge_members_match_complex_log_formula(index):
    params, zeros, nonfinite = edge_members()[index]
    p = (1.0, 2.0, 0.7)[:params.n]
    E = Ellipsoid(p)
    got = em.boundary_trace(params, E, M_EDGE)
    want = complex_log_components(params, p, EDGE_GRID)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(got == 0, want == 0)
    assert np.any(want == 0) == zeros
    finite = np.all(np.isfinite(want), axis=0)
    assert np.all(finite) != nonfinite
    assert np.max(np.abs(got[:, finite] - want[:, finite])) <= (
        1e-14 * np.max(np.abs(want[:, finite])))
    info = em.boundary_defect_info(params, E, M_EDGE)
    assert info.excluded == M_EDGE - np.count_nonzero(finite)
    u = E.defining_values(want[:, finite])
    assert info.defect == pytest.approx(float(np.max(np.abs(u))), rel=1e-13)
