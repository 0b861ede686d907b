"""Interpolation solver, closed-form oracles, and the competitor search."""

import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from ellipsogeo import solver
from ellipsogeo.ellipsoid import Ellipsoid
from ellipsogeo.extremal_map import evaluate, derivative
from ellipsogeo.polyfactor import unit_circle_grid
from ellipsogeo.solver import (
    BruteForceError,
    PointDirectionProblem,
    SolveError,
    SolverConfig,
    TwoPointProblem,
    _brute_objective,
    _perturb,
    _second_datum,
    _seed,
    _system,
    ball_oracle,
    brute_force_disc,
    mobius_oracle,
    solve_point_direction,
    solve_two_point,
)

# value produced by the degree-3 competitor search on the fixed instance
# below; kept as a regression pin, not derived from anything else
FROZEN_P12_D3 = 0.33495705986022944

# L-BFGS objective evaluations of the degree-1 competitor on the linear
# disc (p = 1, z = 0, w = 0.5), with no start run twice
LINEAR_DISC_NFEV = 1315


def assert_gates(res):
    assert res.residuals.interpolation < 1e-9
    assert res.residuals.constraint < 1e-9
    assert res.residuals.boundary < 1e-8


# ---------------------------------------------------------------------------
# two-point solves


def test_two_point_identity_disc():
    res = solve_two_point(Ellipsoid((1.0,)), TwoPointProblem((0,), (0.5,)))
    assert res.scalar == pytest.approx(0.5, abs=1e-10)
    assert abs(abs(res.params.a[0]) - 1.0) < 1e-10
    assert abs(res.params.alpha[0, 0]) < 1e-8
    assert abs(res.params.alpha0[0]) < 1e-8
    assert res.params.r[0, 0] == 1
    assert_gates(res)


def test_two_point_matches_schwarz_pick_quotient():
    res = solve_two_point(Ellipsoid((1.0,)), TwoPointProblem((0.2,), (0.6,)))
    assert res.scalar == pytest.approx(0.4 / 0.88, abs=1e-9)
    assert_gates(res)


def test_two_point_ball_is_linear_disc():
    E = Ellipsoid((1.0, 1.0))
    res = solve_two_point(E, TwoPointProblem((0, 0), (0.3, 0.4)))
    assert res.scalar == pytest.approx(0.5, abs=1e-8)
    for lam in (0.2, 0.3j, -0.4, 0.1 - 0.2j):
        vals = evaluate(res.params, E, lam)
        assert np.allclose(vals, lam * np.array([0.6, 0.8]), atol=1e-7)
    assert_gates(res)


def test_two_point_symmetry():
    E = Ellipsoid((1.0, 2.0))
    z, w = (0.1, 0.2 + 0.1j), (0.3 - 0.1j, 0.1)
    a = solve_two_point(E, TwoPointProblem(z, w))
    b = solve_two_point(E, TwoPointProblem(w, z))
    assert abs(a.scalar - b.scalar) < 1e-8
    assert_gates(a)
    assert_gates(b)


def test_two_point_dimension_reduction():
    # second component identically zero; the solved slice is the disc case
    E = Ellipsoid((1.0, 1.5))
    res = solve_two_point(E, TwoPointProblem((0.2, 0), (0.5, 0)))
    assert res.dropped == (1,)
    assert res.active == (0,)
    assert res.scalar == pytest.approx(abs(0.3 / (1 - 0.1)), abs=1e-9)
    assert res.params.n == 1


def test_two_point_forced_flag_pattern():
    E = Ellipsoid((1.0,))
    res = solve_two_point(E, TwoPointProblem((0,), (0.5,)), r_pattern="1")
    assert res.diagnostics.pattern == (1,)
    assert res.scalar == pytest.approx(0.5, abs=1e-9)
    # flag 0 forces phi(0) != 0, incompatible with z = 0
    with pytest.raises(SolveError):
        solve_two_point(E, TwoPointProblem((0,), (0.5,)), r_pattern="0")


def test_forced_flag_pattern_spans_every_component():
    # the first component vanishes identically and is dropped; the pattern
    # still names one flag per component of the problem
    E = Ellipsoid((1.0, 2.0))
    prob = TwoPointProblem((0, 0.1), (0, 0.3))
    res = solve_two_point(E, prob, r_pattern="01")
    assert res.dropped == (0,)
    assert res.diagnostics.pattern == (1,)
    for bad in ("1", "111"):
        with pytest.raises(ValueError, match="bad flag pattern"):
            solve_two_point(E, prob, r_pattern=bad)


def test_two_point_labels_by_convexity():
    conv = solve_two_point(Ellipsoid((1.0,)), TwoPointProblem((0,), (0.4,)))
    assert conv.certified
    assert "geodesic" in conv.label
    non = solve_two_point(Ellipsoid((0.45,)), TwoPointProblem((0,), (0.4,)))
    assert not non.certified
    assert "candidate" in non.label


def test_problem_validation():
    with pytest.raises(ValueError):
        TwoPointProblem((0.2,), (0.2,))
    with pytest.raises(ValueError):
        TwoPointProblem((0.2,), (0.1, 0.3))
    with pytest.raises(ValueError):
        PointDirectionProblem((0.2,), (0,))
    with pytest.raises(ValueError):
        solve_two_point(Ellipsoid((1.0,)), TwoPointProblem((1.2,), (0.5,)))


# ---------------------------------------------------------------------------
# point-direction solves


def test_point_direction_schwarz_identity():
    res = solve_point_direction(Ellipsoid((1.0,)),
                                PointDirectionProblem((0,), (1,)))
    assert res.scalar == pytest.approx(1.0, abs=1e-9)
    assert_gates(res)


def test_point_direction_schwarz_pick_bound():
    res = solve_point_direction(Ellipsoid((1.0,)),
                                PointDirectionProblem((0.5,), (1,)))
    assert res.scalar == pytest.approx(0.75, abs=1e-9)
    # derivative at 0 really is t X
    d = derivative(res.params, Ellipsoid((1.0,)), 0.0)
    assert abs(d[0] - res.scalar) < 1e-8
    assert_gates(res)


def test_point_direction_axis_disc():
    E = Ellipsoid((1.0, 1.0))
    res = solve_point_direction(E, PointDirectionProblem((0, 0), (1, 0)))
    assert res.scalar == pytest.approx(1.0, abs=1e-8)
    assert res.dropped == (1,)
    vals = evaluate(res.params, Ellipsoid((1.0,)), 0.3)
    assert abs(vals[0] - 0.3) < 1e-7


# ---------------------------------------------------------------------------
# Newton system and search


@pytest.mark.parametrize("kind", ["two-point", "point-direction"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_jacobian_matches_central_differences(kind, n):
    rng = np.random.default_rng(10 * n + len(kind))
    p = rng.uniform(0.3, 3.0, n)
    z = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    tg = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    beta, scalar0, scalar_hi = _second_datum(kind, z, tg)
    for pat in itertools.product((1, 0), repeat=n):
        rpat = np.asarray(pat)
        F, jac = _system(kind, z, tg, rpat, p)
        x = _perturb(_seed(z, beta, scalar0, rpat, p), rng, n, scalar_hi)
        J = jac(F(x)[1])
        fd = np.empty_like(J)
        h = 1e-6
        for k in range(x.size):
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            fd[:, k] = (F(xp)[0] - F(xm)[0]) / (2 * h)
        assert np.max(np.abs(J - fd)) < 1e-8 * max(1.0, np.max(np.abs(J))), pat


def block_jacobian(kind, tg, rpat, p, parts):
    """The Jacobian assembled from complex (n, 4n+3) blocks per residual."""
    n = rpat.size
    full = rpat == 1
    idx = np.arange(n)
    cols = 4 * n + 3

    def block(val, d, dbar, d0bar, ds):
        C = np.zeros((n, cols), dtype=complex)
        C[idx, idx] = val
        C[idx, n + idx] = 1j * val
        C[idx, 2 * n + 2 * idx] = d + dbar
        C[idx, 2 * n + 2 * idx + 1] = 1j * (d - dbar)
        C[:, 4 * n] = d0bar
        C[:, 4 * n + 1] = -1j * d0bar
        C[:, 4 * n + 2] = ds
        return np.concatenate([C.real, C.imag])

    alpha, alpha0, s, a, wgt, phi0, second, *extra = parts
    zero = np.zeros(n, dtype=complex)
    rows0 = block(phi0, np.where(full, -a, 0.0), zero, zero, zero)
    if kind == "two-point":
        num, den, h = extra
        d = np.where(full, -a * h / num, 0.0)
        dbar = second * s / num * (full - 1.0 / p)
        d0bar = second * s / (p * den)
        ds = (np.where(full, a * h * (1.0 - np.abs(alpha) ** 2) / num ** 2,
                       0.0)
              + second / p * (np.conj(alpha0) / den - np.conj(alpha) / num))
    else:
        (hp,) = extra
        d = np.where(full, a * (-np.conj(alpha) - hp), 0.0)
        dbar = np.where(full, a * alpha * (1.0 / p - 1.0), -a / p)
        d0bar = np.where(full, -a * alpha / p, a / p)
        ds = -tg
    rows1 = block(second, d, dbar, d0bar, ds)
    tie = np.zeros((3, cols))
    dw = 2.0 * p * wgt
    tie[0, idx] = (dw * alpha).real
    tie[1, idx] = (dw * alpha).imag
    tie[2, idx] = dw * (1.0 + np.abs(alpha) ** 2)
    tie[0, 2 * n + 2 * idx] = wgt
    tie[1, 2 * n + 2 * idx + 1] = wgt
    tie[2, 2 * n + 2 * idx] = 2.0 * wgt * alpha.real
    tie[2, 2 * n + 2 * idx + 1] = 2.0 * wgt * alpha.imag
    tie[0, 4 * n] = tie[1, 4 * n + 1] = -1.0
    tie[2, 4 * n] = -2.0 * alpha0.real
    tie[2, 4 * n + 1] = -2.0 * alpha0.imag
    return np.concatenate([rows0, rows1, tie])


@pytest.mark.parametrize("kind", ["two-point", "point-direction"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_jacobian_is_bit_identical_to_the_block_form(kind, n):
    # the Newton path depends on every bit of the Jacobian, signed zeros
    # included (1j * 0 and -1j * 0 differ), so the real-matrix assembly
    # must equal the complex block form byte for byte
    rng = np.random.default_rng(100 * n + len(kind))
    pats = (list(itertools.product((1, 0), repeat=n)) if n <= 3
            else [tuple(rng.integers(0, 2, n)) for _ in range(8)])
    for pat in pats:
        rpat = np.asarray(pat)
        p = rng.uniform(0.25, 3.0, n)
        z = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        tg = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # real data give seeds with exactly zero imaginary parts
        for zz in (z, z.real + 0j):
            beta, scalar0, scalar_hi = _second_datum(kind, zz, tg)
            F, jac = _system(kind, zz, tg, rpat, p)
            x0 = _seed(zz, beta, scalar0, rpat, p)
            for x in (x0, _perturb(x0, rng, n, scalar_hi),
                      _perturb(x0, rng, n, scalar_hi)):
                parts = F(x)[1]
                want = block_jacobian(kind, tg, rpat, p, parts)
                assert jac(parts).tobytes() == want.tobytes(), pat


ZERO_RADIUS = solver._ZERO_RADIUS


def zero_inside_the_guard():
    """A zero exactly on the guard's circle, within 1e-13 to 1e-3 of it,
    or anywhere in the disc of radius 0.99."""
    on = st.sampled_from([complex(ZERO_RADIUS, 0.0), complex(0.0, ZERO_RADIUS),
                          complex(-ZERO_RADIUS, 0.0)])
    angle = st.floats(0.0, 2 * np.pi)
    near = st.tuples(st.floats(-13.0, -3.0), angle).map(
        lambda ea: (ZERO_RADIUS - 10.0 ** ea[0]) * np.exp(1j * ea[1]))
    inside = st.tuples(st.floats(0.0, 0.99), angle).map(
        lambda ra: ra[0] * np.exp(1j * ra[1]))
    return st.one_of(on, near, inside)


@st.composite
def line_search_case(draw):
    n = draw(st.integers(1, 3))
    alpha = np.array(draw(st.lists(zero_inside_the_guard(),
                                   min_size=n, max_size=n)))
    x = solver._pack(np.zeros(n), np.zeros(n), alpha, 0.1 + 0.2j, 0.5)
    if draw(st.booleans()):
        # any finite step
        entry = st.floats(allow_nan=False, allow_infinity=False)
        return x, np.array(draw(st.lists(entry, min_size=x.size,
                                         max_size=x.size)))
    # a step the other guard bounds let through, with the zeros moving
    # by 1e-8 to 1e8
    step = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=x.size,
                                  max_size=x.size)))
    scale = st.tuples(st.floats(-8.0, 8.0), st.sampled_from([-1.0, 1.0]))
    for k in range(2 * n, 4 * n):
        e, sign = draw(scale)
        step[k] = sign * 10.0 ** e
    return x, step


def line_search(x, step, guard, reach):
    """One `_damped_newton` step with `step` as its Newton step and every
    point the guard lets through accepted: (x after the step, residual
    calls).  The result is None when no rung down to
    `solver._NEWTON_MIN_STEP` passes."""
    calls = []

    def F(y):
        calls.append(y)
        return (-step if len(calls) == 1 else np.zeros_like(step)), None

    got, iters = solver._damped_newton(F, lambda parts: np.eye(x.size), x,
                                       guard, reach)
    assert iters == 1
    return got, len(calls)


@given(line_search_case())
@settings(max_examples=400, deadline=None)
@example((solver._pack(np.zeros(1), np.zeros(1), np.array([0.5]), 0j, 0.5),
          np.array([0.0, 0.0, 1e20, 0.0, 0.0, 0.0, 0.0])))
def test_reach_never_changes_the_accepted_rung(case):
    x, step = case
    n = (x.size - 3) // 4
    guard = solver._make_guard(n, 1.0 - 1e-9)
    assume(guard(x) and np.max(np.abs(step)) >= 1e-11)
    # the step _damped_newton takes, and the first rung of the full
    # ladder 1, 1/2, ... down to _NEWTON_MIN_STEP that the guard lets
    # through
    newton_step = np.linalg.lstsq(np.eye(x.size), step, rcond=None)[0]
    t, floor = 1.0, solver._NEWTON_MIN_STEP
    while t >= floor and not guard(x + t * newton_step):
        t *= 0.5
    want = x + t * newton_step if t >= floor else None

    for reach in (solver._make_reach(n), lambda x, step: np.inf):
        got, calls = line_search(x, step, guard, reach)
        if want is None:
            assert got is None and calls == 1
        else:
            assert got.tobytes() == want.tobytes() and calls == 2


def assert_reach_keeps_the_first_passing_rung(start):
    # start(gap) gives an n = 1 iterate with one disc `gap` inside its
    # guard circle, and the index of that disc's (re, im) pair in x.  The
    # gaps run from 1e-13 to 1e-3 on a grid of ratio 10^(1/8) < 4/3: a
    # reach taken to any smaller radius in that range skips a rung the
    # guard lets through at some gap of the grid.  Above the 1e-12 margin
    # the guard sees the start and at most two rungs
    test, guards = solver._make_guard(1, 1.0 - 1e-9), []

    def guard(y):
        guards.append(y)
        return test(y)

    reach, floor = solver._make_reach(1), solver._NEWTON_MIN_STEP
    for k in range(81):
        gap = 10.0 ** (-13.0 + k / 8.0)
        x, at = start(gap)
        for turn in (0.0, 1.0, 2.0):
            for size in (3.0, 3e2, 3e5):
                d = size * gap * np.exp(1j * (0.7 + turn))
                step = np.zeros(x.size)
                step[0] = 0.1             # so that the residual is not tiny
                step[at: at + 2] = d.real, d.imag
                newton_step = np.linalg.lstsq(np.eye(x.size), step,
                                              rcond=None)[0]
                t = 1.0
                while t >= floor and not guard(x + t * newton_step):
                    t *= 0.5
                guards.clear()
                got, calls = line_search(x, step, guard, reach)
                assert gap < 5e-13 or len(guards) <= 3
                if t < floor:
                    assert got is None and calls == 1
                else:
                    want = x + t * newton_step
                    assert got.tobytes() == want.tobytes() and calls == 2


def test_reach_at_the_tied_zero_keeps_the_first_passing_rung():
    # only the tied zero moves, at angle 0.7 inside its guard circle
    assert_reach_keeps_the_first_passing_rung(lambda gap: (solver._pack(
        np.zeros(1), np.zeros(1), np.array([0.5j]),
        (solver._TIED_RADIUS - gap) * np.exp(0.7j), 0.5), 4))


def test_reach_at_a_zero_keeps_the_first_passing_rung():
    # only the zero alpha_1 moves, at angle 0.7 inside its guard circle
    assert_reach_keeps_the_first_passing_rung(lambda gap: (solver._pack(
        np.zeros(1), np.zeros(1),
        np.array([(solver._ZERO_RADIUS - gap) * np.exp(0.7j)]), 0.5j,
        0.5), 2))


def test_guard_rejects_a_modulus_beyond_the_largest_float():
    # abs(complex(1.5e308, 1.5e308)) raises OverflowError instead of
    # returning a modulus; the guard must reject such a point, not raise
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    guard = solver._make_guard(1, 1.0 - 1e-9)
    for alpha, alpha0 in ((1.5e308 + 1.5e308j, 0.1j),
                          (0.5, 1.5e308 - 1.5e308j)):
        x = solver._pack(np.zeros(1), np.zeros(1), np.array([alpha]),
                         alpha0, 0.5)
        assert not guard(x)


def test_guard_rejects_a_log_modulus_beyond_thirty():
    guard = solver._make_guard(1, 1.0 - 1e-9)
    for rho, inside in ((29.9, True), (-29.9, True),
                        (30.1, False), (-30.1, False)):
        x = solver._pack(np.array([rho]), np.zeros(1), np.array([0.5]),
                         0.1j, 0.5)
        assert guard(x) is inside


def test_newton_fails_at_once_on_a_start_the_guard_rejects():
    def residual(x):
        raise AssertionError("the residual ran")

    guard, reach = solver._make_guard(1, 1.0 - 1e-9), solver._make_reach(1)
    # alpha0 = 1 lies outside its guard disc
    x0 = solver._pack(np.zeros(1), np.zeros(1), np.array([0.5]), 1.0, 0.5)
    assert solver._damped_newton(residual, None, x0, guard, reach) == (None, 0)


def test_newton_gives_up_after_its_iteration_budget():
    # F(x) = x with Jacobian 4 I: every full step passes the Armijo test
    # but only cuts the residual to 3/4, so 70 steps leave 0.75^70 > 1e-12
    calls = []

    def residual(x):
        calls.append(x)
        return x, None

    got = solver._damped_newton(residual, lambda parts: 4.0 * np.eye(7),
                                np.ones(7), lambda x: True,
                                lambda x, step: np.inf)
    assert got == (None, 70) and solver._NEWTON_MAX_ITER == 70
    assert len(calls) == 71
    assert abs(np.max(calls[-1]) - 0.75 ** 70) < 1e-20


def newton_with_a_first_passing_rung(rung):
    """`_damped_newton` from x = 0 with the Newton step e_0 (identity
    Jacobian), where only the rungs t <= `rung` decrease the residual:
    (result, iterations, residual calls)."""
    calls = []

    def residual(y):
        calls.append(y)
        if len(calls) == 1:
            return -np.eye(1, 7)[0], None
        return np.full(7, 0.0 if y[0] <= rung else 2.0), None

    got, iters = solver._damped_newton(residual, lambda parts: np.eye(7),
                                       np.zeros(7), lambda y: True,
                                       lambda y, step: np.inf)
    return got, iters, len(calls)


def test_newton_accepts_a_step_on_its_last_rung():
    # the 17 rungs 1, 1/2, ..., 2^-16 each cost a residual call, and the
    # last one passes: one iteration, then the zero residual converges
    assert solver._NEWTON_MIN_STEP == 2.0 ** -16
    got, iters, calls = newton_with_a_first_passing_rung(2.0 ** -16)
    assert (iters, calls) == (1, 18)
    assert got.tobytes() == (2.0 ** -16 * np.eye(1, 7)[0]).tobytes()


def test_newton_fails_below_its_last_rung():
    # a decrease first at 2^-17 is past the end of the ladder: the start
    # fails at its first iteration after the residuals of rungs 1 to 2^-16
    assert newton_with_a_first_passing_rung(2.0 ** -17) == (None, 1, 18)


def test_line_search_skips_the_rungs_the_zeros_rule_out(monkeypatch):
    # the pinned non-convex search of the test below, with the guard and
    # the residual counted: the line search starts at the first rung the
    # zeros allow, so only the guard's work falls (2015 calls when every
    # rung from 1 down to _NEWTON_MIN_STEP was tested) and every residual
    # stays
    counts = {"guard": 0, "residual": 0}
    make_guard, system = solver._make_guard, solver._system

    def counted(fun, key):
        def call(*args):
            counts[key] += 1
            return fun(*args)
        return call

    def counting_system(*args):
        F, jac = system(*args)
        return counted(F, "residual"), jac

    monkeypatch.setattr(solver, "_make_guard",
                        lambda *args: counted(make_guard(*args), "guard"))
    monkeypatch.setattr(solver, "_system", counting_system)
    res = solve_two_point(Ellipsoid((0.3, 1.0)),
                          TwoPointProblem((0.05, 0.2j), (0.1, -0.1)))
    assert res.diagnostics.newton_iterations == 220
    assert (counts["guard"], counts["residual"]) == (591, 425)


@pytest.mark.parametrize("p, kind, z, tg", [
    ((1.0, 2.0), "tp", (0.1, 0.2 + 0.1j), (0.3 - 0.1j, 0.1)),
    ((0.6, 3.0), "tp", (0.1, 0.2j), (0.3, -0.1)),
    ((1.0, 1.0, 1.0), "pd", (0.1, 0.2j, 0.1), (0.3, -0.1, 0.05j)),
])
def test_convex_first_candidate_is_not_beaten_by_any_pattern(p, kind, z, tg):
    # the convex search stops at its first validated candidate; forcing
    # each flag pattern in turn must not find a better scalar
    E = Ellipsoid(p)
    if kind == "tp":
        prob, solve, sign = TwoPointProblem(z, tg), solve_two_point, 1.0
    else:
        prob, solve, sign = (PointDirectionProblem(z, tg),
                             solve_point_direction, -1.0)
    res = solve(E, prob)
    assert res.diagnostics.patterns_tried == 1
    assert res.alternates == ()
    assert_gates(res)
    for pat in itertools.product("10", repeat=len(p)):
        try:
            forced = solve(E, prob, r_pattern="".join(pat))
        except SolveError:
            continue
        assert sign * (res.scalar - forced.scalar) <= 1e-7, pat


def test_nonconvex_search_enumerates_every_pattern():
    E = Ellipsoid((0.3, 1.0))
    res = solve_two_point(E, TwoPointProblem((0.05, 0.2j), (0.1, -0.1)))
    assert not res.certified
    d = res.diagnostics
    assert (d.patterns_tried, d.starts_tried, d.newton_iterations) == \
        (4, 28, 220)
    assert d.pattern == (0, 1)
    assert res.scalar == 0.2727116147882784
    assert_gates(res)


def minkowski(p, v):
    """The Minkowski functional h of E(p) at v, by bisection:
    sum_j (|v_j| / h)^(2 p_j) = 1, with the left side decreasing in h."""
    p, av = np.asarray(p), np.abs(np.asarray(v))

    def inside(h):
        return np.sum((av / h) ** (2 * p)) <= 1.0

    lo, hi = 0.0, 1.0
    while not inside(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)


@pytest.mark.parametrize("p, v", [
    ((0.25, 0.25, 1.0), (0.1, 0.05j, 0.2 - 0.1j)),
    ((0.3, 0.45), (0.2 + 0.1j, -0.15)),
    ((0.3, 1.0), (0.1, -0.1)),
])
def test_nonconvex_origin_scalar_is_the_minkowski_functional(p, v):
    # at z = 0 the extremal disc of the balanced domain E(p) is linear,
    # so sigma = h(w) and t = 1 / h(X), also for p_j < 1/2
    E, z = Ellipsoid(p), (0.0,) * len(p)
    tp = solve_two_point(E, TwoPointProblem(z, v))
    pd = solve_point_direction(E, PointDirectionProblem(z, v))
    h = minkowski(p, v)
    assert not tp.certified and not pd.certified
    assert abs(tp.scalar - h) < 1e-10
    assert abs(pd.scalar - 1.0 / h) < 1e-10
    assert_gates(tp)
    assert_gates(pd)


def test_flag_enumeration_refuses_more_than_the_dimension_limit(monkeypatch):
    def no_start(*args):
        raise AssertionError("a Newton start ran")

    monkeypatch.setattr(solver, "_damped_newton", no_start)
    n = solver._MAX_PATTERNS_DIM + 1
    prob = TwoPointProblem((0.1,) * n, (0.1j,) * n)
    with pytest.raises(SolveError,
                       match=f"limit {solver._MAX_PATTERNS_DIM}"):
        solve_two_point(Ellipsoid((1.0,) * n), prob)


@pytest.mark.parametrize("field, value", [
    ("boundary_grid", 100), ("boundary_grid", 4), ("starts", -1),
])
def test_solver_config_rejects_unusable_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_search_moves_past_a_converged_start_that_fails_validation(
        monkeypatch):
    # gates of 1e-30 reject every converged start, so the search runs all
    # 9 starts of both flag patterns of a 1-D problem and then fails
    validate, verdicts = solver._validate, []

    def recorded(*args):
        ok, report = validate(*args)
        verdicts.append(ok)
        return ok, report

    monkeypatch.setattr(solver, "_validate", recorded)
    strict = SolverConfig(interpolation_tol=1e-30, constraint_tol=1e-30,
                          boundary_tol=1e-30)
    with pytest.raises(SolveError, match="after 18 starts over 2 flag "):
        solve_two_point(Ellipsoid((1.0,)), TwoPointProblem((0.1,), (0.5,)),
                        strict)
    assert len(verdicts) >= 2 and not any(verdicts)


def test_baseline_instance_search_counts():
    # exact counts on the baseline p = (1, 2) instance: the first pattern
    # validates at its first start, after 6 Newton iterations
    E = Ellipsoid((1.0, 2.0))
    res = solve_two_point(E, TwoPointProblem((0.1, 0.2 + 0.1j),
                                             (0.3 - 0.1j, 0.1)))
    d = res.diagnostics
    assert (d.patterns_tried, d.starts_tried, d.newton_iterations) == (1, 1, 6)
    assert d.pattern == (1, 1)
    assert len(d.candidates) == 1


# ---------------------------------------------------------------------------
# closed-form oracles


def test_mobius_oracle_values():
    s, params = mobius_oracle(TwoPointProblem((0,), (0.5,)))
    assert s == pytest.approx(0.5, abs=0)
    assert abs(evaluate(params, Ellipsoid((1.0,)), s)[0] - 0.5) < 1e-12
    s2, _ = mobius_oracle(TwoPointProblem((0.2,), (0.6,)))
    assert s2 == pytest.approx(0.4 / 0.88, abs=1e-14)


def test_mobius_oracle_point_direction():
    t, params = mobius_oracle(PointDirectionProblem((0.5,), (1,)))
    assert t == pytest.approx(0.75, abs=1e-14)
    d = derivative(params, Ellipsoid((1.0,)), 0.0)
    assert abs(d[0] - 0.75) < 1e-12
    t2, _ = mobius_oracle(PointDirectionProblem((0.5,), (2j,)))
    assert t2 == pytest.approx(0.375, abs=1e-14)


def test_mobius_oracle_rejects_higher_dimension():
    with pytest.raises(ValueError):
        mobius_oracle(TwoPointProblem((0, 0), (0.5, 0.1)))


def test_mobius_oracle_rejects_point_outside_disc():
    with pytest.raises(ValueError):
        mobius_oracle(PointDirectionProblem((1.0,), (0.5,)))


def test_mobius_oracle_rejects_second_point_outside_disc():
    with pytest.raises(ValueError, match="unit disc"):
        mobius_oracle(TwoPointProblem((0.1,), (1.5,)))


def test_oracle_and_competitor_reject_non_problems():
    with pytest.raises(TypeError):
        mobius_oracle((0.2, 0.5))
    with pytest.raises(TypeError):
        brute_force_disc(Ellipsoid((1.0,)), (0.2, 0.5), 2)


def test_ball_oracle_values():
    E = Ellipsoid((1.0, 1.0))
    assert ball_oracle(E, TwoPointProblem((0, 0), (0.3, 0.4))) == \
        pytest.approx(0.5, abs=1e-14)
    assert ball_oracle(E, TwoPointProblem((0, 0), (0.7, 0))) == \
        pytest.approx(0.7, abs=1e-14)
    # automorphism invariance: moving the base point keeps the slice value
    one_var = ball_oracle(E, TwoPointProblem((0.2, 0), (0.6, 0)))
    assert one_var == pytest.approx(0.4 / 0.88, abs=1e-12)


def test_ball_oracle_requires_unit_exponents():
    with pytest.raises(ValueError):
        ball_oracle(Ellipsoid((1.0, 2.0)), TwoPointProblem((0, 0), (0.3, 0.4)))


def test_solvers_and_ball_oracle_refuse_the_other_problem_kind():
    E = Ellipsoid((1.0, 1.0))
    tp = TwoPointProblem((0.1, 0.2j), (0.3, -0.1))
    pd = PointDirectionProblem((0.1, 0.2j), (0.3, -0.1))
    with pytest.raises((TypeError, ValueError)):
        solve_two_point(E, pd)
    with pytest.raises((TypeError, ValueError)):
        solve_point_direction(E, tp)
    with pytest.raises((TypeError, ValueError)):
        ball_oracle(E, pd)


# ---------------------------------------------------------------------------
# brute-force competitor search


def test_brute_linear_disc():
    res = brute_force_disc(Ellipsoid((1.0,)), TwoPointProblem((0,), (0.5,)), 1)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.certified_sup_u <= 0.0


def test_brute_ball_degree_two():
    res = brute_force_disc(Ellipsoid((1.0, 1.0)),
                           TwoPointProblem((0, 0), (0.3, 0.4)), 2)
    assert res.value == pytest.approx(0.5, abs=1e-4)


def test_brute_frozen_regression_and_solver_consistency():
    E = Ellipsoid((1.0, 2.0))
    prob = TwoPointProblem((0, 0), (0.2, 0.3))
    res = brute_force_disc(E, prob, 3)
    assert abs(res.value - FROZEN_P12_D3) < 1e-6
    sol = solve_two_point(E, prob)
    assert res.value >= sol.scalar - 1e-4
    assert_gates(sol)


def counting_minimize(monkeypatch):
    """Substitute `solver.minimize`; return its list of (objective, x0, nfev)."""
    forwarded = solver.minimize
    runs = []

    def counting(fun, x0, *args, **kwargs):
        res = forwarded(fun, x0, *args, **kwargs)
        runs.append((fun, x0.tobytes(), res.nfev))
        return res

    monkeypatch.setattr(solver, "minimize", counting)
    return runs


@pytest.mark.parametrize("problem,value,levels,calls", [
    (PointDirectionProblem((0.2,), (0.5j,)), 1.9199983081054683, 21, 22),
    (TwoPointProblem((0.2,), (0.5j,)), 0.5358444797661603, 20, 21),
])
def test_brute_bisection_counts_pinned(monkeypatch, problem, value, levels,
                                       calls):
    # one bisection serves both kinds: t moves up, sigma moves down; the
    # objective evaluations pin every L-BFGS path, not just the verdicts
    nfev = {PointDirectionProblem: 2067, TwoPointProblem: 5340}[type(problem)]
    runs = counting_minimize(monkeypatch)
    res = brute_force_disc(Ellipsoid((1.0,)), problem, 2)
    assert (res.bisection_levels, res.feasibility_calls) == (levels, calls)
    assert abs(res.value - value) < 1e-12
    assert res.certified_sup_u <= 0.0
    assert sum(r[2] for r in runs) == nfev


def test_brute_skips_a_repeated_start(monkeypatch):
    # at z = 0 the warm witness is often x = 0, equal to the zero start;
    # L-BFGS is deterministic, so running it twice would only repeat work
    E, prob = Ellipsoid((1.0,)), TwoPointProblem((0,), (0.5,))
    plain = brute_force_disc(E, prob, 1)
    runs = counting_minimize(monkeypatch)
    res = brute_force_disc(E, prob, 1)
    starts = [(fun, x0) for fun, x0, _ in runs]
    assert len(set(starts)) == len(starts)
    assert res == plain
    assert sum(r[2] for r in runs) == LINEAR_DISC_NFEV


def test_brute_runs_every_lbfgs_through_solver_minimize(monkeypatch):
    # the benchmark tracer and tests substitute `solver.minimize`, so every
    # L-BFGS run must resolve that name at call time
    E, prob = Ellipsoid((1.0,)), TwoPointProblem((0.2,), (0.5j,))
    plain = brute_force_disc(E, prob, 1)
    real_scipy = scipy.optimize.minimize
    forwarded = solver.minimize
    patched, reached = [], []

    def counting_scipy(*args, **kwargs):
        reached.append(kwargs.get("method"))
        return real_scipy(*args, **kwargs)

    def counting(*args, **kwargs):
        patched.append(kwargs.get("method"))
        return forwarded(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting_scipy)
    monkeypatch.setattr(solver, "minimize", counting)
    res = brute_force_disc(E, prob, 1)
    assert patched and patched == reached
    assert set(patched) == {"L-BFGS-B"}
    assert res == plain


def test_brute_raises_when_no_probe_is_feasible(monkeypatch):
    probes = []

    def infeasible(p, z, tg, kind, scalar, *args):
        probes.append(scalar)
        return None

    monkeypatch.setattr(solver, "_brute_feasible", infeasible)
    with pytest.raises(BruteForceError, match="at degree 2"):
        brute_force_disc(Ellipsoid((1.0,)), TwoPointProblem((0.2,), (0.5j,)),
                         2)
    assert len(probes) == 3


def test_brute_rejects_degree_below_one():
    with pytest.raises(ValueError):
        brute_force_disc(Ellipsoid((1.0,)), TwoPointProblem((0,), (0.5,)), 0)


def test_brute_rejects_second_point_outside_ellipsoid():
    with pytest.raises(ValueError, match="w is not strictly inside"):
        brute_force_disc(Ellipsoid((1.0,)), TwoPointProblem((0.2,), (1.5,)),
                         1)


def objective_data(kind, n, feasible=False):
    """(p, z, tg, scalar) at a level where the hinge is active at x = 0:
    sigma below the extremal value, t above the Schwarz-Pick cap; or, with
    `feasible`, at a level where x = 0 and small x cost nothing."""
    p = np.array([1.0, 2.0, 1.5])[:n]
    tg = np.array([0.2, 0.3, 0.1j], dtype=complex)[:n]
    if kind == "two-point":
        z = np.zeros(n, dtype=complex)
        scalar = 0.9 if feasible else (0.15, 0.28, 0.28)[n - 1]
    else:
        z = np.array([0.1, 0.2 + 0.1j, -0.05])[:n]
        scalar = 0.5 if feasible else (10.0, 3.5, 3.5)[n - 1]
    return p, z, tg, scalar


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["two-point", "point-direction"])
def test_brute_objective_gradient_matches_differences(kind, n, degree, start):
    # check at an infeasible level where the hinge is active and smooth;
    # x = 0 takes the |v| = 0 branch of the squash derivative
    p, z, tg, scalar = objective_data(kind, n)
    zeta = np.exp(2j * np.pi * np.arange(64) / 64)
    cost_grad, _build = _brute_objective(p, z, tg, kind, scalar, degree,
                                         zeta)
    nfree = 2 * n * (degree - 1) + 2 * degree
    if start == "zero":
        x = np.zeros(nfree)
    else:
        x = np.random.default_rng(5).uniform(-2.0, 2.0, nfree)
    c0, g = cost_grad(x)
    assert c0 > 1e-8  # hinge must be active for the check to mean anything
    for k in range(x.size):
        h = 1e-7
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fd = (cost_grad(xp)[0] - cost_grad(xm)[0]) / (2 * h)
        assert abs(fd - g[k]) < 1e-5 * max(1.0, abs(g[k]))


def loop_objective(p, z, tg, kind, scalar, degree, margin, zeta):
    """The objective as one small numpy call per (component, coefficient):
    the reference that `_brute_objective` must match bit for bit."""
    n, d = z.size, degree
    ncf = 2 * n * (d - 1)

    def split(x):
        raw = x[:ncf]
        chigh = (raw[0::2] + 1j * raw[1::2]).reshape(n, d - 1) if d >= 2 \
            else np.zeros((n, 0), dtype=complex)
        v = x[ncf:][0::2] + 1j * x[ncf:][1::2]
        absv = np.abs(v)
        return chigh, v, absv, solver._SQUASH * v / (1.0 + absv)

    def assemble(chigh, beta):
        bc = np.conj(beta)
        fac = 1.0 - bc[:, None] * zeta[None, :]
        q = np.prod(fac, axis=0)
        if kind == "two-point":
            qs_fac = 1.0 - bc * scalar
            qs = complex(np.prod(qs_fac))
            powers = scalar ** np.arange(2, d + 1)
            c1 = (tg * qs - z - chigh @ powers) / scalar
        else:
            qs_fac = None
            c1 = scalar * tg + z * (-np.sum(bc))
        coeffs = np.concatenate([z[:, None], c1[:, None], chigh], axis=1)
        num = np.stack([np.polyval(coeffs[j, ::-1], zeta) for j in range(n)])
        return coeffs, fac, q, qs_fac, num / q[None, :]

    def build(x):
        chigh, _, _, beta = split(x)
        coeffs, _, _, _, g = assemble(chigh, beta)
        return coeffs, beta, g

    def cost_grad(x):
        chigh, v, absv, beta = split(x)
        _, fac, q, qs_fac, g = assemble(chigh, beta)
        absg = np.abs(g)
        u = np.sum(absg ** (2.0 * p[:, None]), axis=0) - 1.0
        viol = np.maximum(u + margin, 0.0)
        cost = float(np.sum(viol * viol))
        grad = np.zeros(ncf + 2 * d)
        if cost == 0.0:
            return cost, grad
        T = (2.0 * viol[None, :] * 2.0 * p[:, None]
             * np.maximum(absg, 1e-150) ** (2.0 * p[:, None] - 2.0)
             * np.conj(g))
        zq = zeta / q
        for i in range(2, d + 1):
            if kind == "two-point":
                D = (zeta ** i - scalar ** (i - 1) * zeta) / q
            else:
                D = zeta ** i / q
            for j in range(n):
                S = T[j] * D
                col = 2 * ((i - 2) + j * (d - 1))
                grad[col] = float(np.sum(S.real))
                grad[col + 1] = float(-np.sum(S.imag))
        for i in range(d):
            sq, a = solver._SQUASH, absv[i]
            if a > 0:
                unit = v[i] / a
                db_re = sq * ((1.0 + a) - v[i] * unit.real) / (1.0 + a) ** 2
                db_im = sq * (1j * (1.0 + a) - v[i] * unit.imag) \
                    / (1.0 + a) ** 2
            else:
                db_re, db_im = sq, 1j * sq
            if kind == "two-point":
                dc1 = -tg * complex(np.prod(qs_fac)) / qs_fac[i]
            else:
                dc1 = -z
            dq_ratio = zeta / fac[i]
            acc = 0j
            for j in range(n):
                dg = dc1[j] * zq + g[j] * dq_ratio
                acc += np.sum(T[j] * dg)
            grad[ncf + 2 * i] = float((acc * np.conj(db_re)).real)
            grad[ncf + 2 * i + 1] = float((acc * np.conj(db_im)).real)
        return cost, grad

    return cost_grad, build


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["two-point", "point-direction"])
def test_brute_objective_is_bit_identical_to_the_loop_form(kind, n, degree):
    # L-BFGS paths are chaotic: a 1e-15 change in one gradient moves the
    # bisection's verdicts, so the batched objective must equal the loop
    rng = np.random.default_rng(11)
    nfree = 2 * n * (degree - 1) + 2 * degree
    for m in (64, 8192):
        zeta = unit_circle_grid(m)
        for feasible, x in ((False, np.zeros(nfree)),
                            (False, rng.uniform(-2.0, 2.0, nfree)),
                            (True, 0.01 * rng.standard_normal(nfree))):
            p, z, tg, scalar = objective_data(kind, n, feasible)
            args = (p, z, tg, kind, scalar, degree)
            cost_grad, build = _brute_objective(*args, zeta)
            ref_cg, ref_build = loop_objective(*args, solver._BRUTE_MARGIN,
                                               zeta)
            cost, grad = cost_grad(x)
            ref_cost, ref_grad = ref_cg(x)
            assert (cost == 0.0) == feasible
            assert cost == ref_cost
            assert np.array_equal(grad, ref_grad)
            for got, want in zip(build(x), ref_build(x)):
                assert np.array_equal(got, want)


def test_brute_config_margin_respected():
    res = brute_force_disc(Ellipsoid((1.0,)), TwoPointProblem((0,), (0.5,)),
                           1)
    # witness stays strictly inside: certified sup over the dense grid
    assert res.certified_sup_u <= 0.0
    assert res.bisection_levels > 0
    assert res.feasibility_calls > 0
