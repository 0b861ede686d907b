"""Solvers for extremal disc problems in an ellipsoid.

Two problem kinds are supported, both with band degree 1:

  * two-point: find the family member through phi(0) = z, phi(sigma) = w
    with the smallest sigma in (0, 1);
  * point-direction: find the member with phi(0) = z, phi'(0) = t X and
    the largest stretch t > 0.

The unknown vector stacks log-moduli and phases of the a_j, the
per-component zeros, the tied zero, and the scalar (sigma or t); the
interpolation conditions plus the three real tying equations make the
system square, and a damped Newton iteration with a closed-form Jacobian
and seeded multistart per flag pattern hunts for roots.  A pattern's base
start runs alone; if it gives no validated candidate, its perturbed
starts run as one batch in lockstep (`_damped_newton`), sharing every
residual call, Jacobian call and stacked LU solve of the Newton steps
while each takes, bit for bit, the path it takes alone (which is why the
tying row takes |alpha0| from the scalar `abs`, see `_system`), and the
lowest-numbered start that validates wins.  The batch draws all its
perturbations up front, so the random generator is then set back to
where a search drawing one start at a time would have stopped, and later
patterns get that search's starts.
Candidates are re-validated from scratch (interpolation, tying identity,
boundary closeness) before they are allowed to compete on the scalar.  On a
convex ellipsoid every validated candidate is a complex geodesic
(Lempert), so the search stops at the first one; on a non-convex
ellipsoid every admissible flag pattern is searched.

Independent references: a closed-form oracle for dimension 1, a
closed-form oracle for the p = (1, ..., 1) ball, and a brute-force
bound (an upper bound on sigma, a lower bound on t) that optimizes
rational competitor discs of a given numerator degree with denominators
zero-free on the closed disc.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, PointClass
from . import extremal_map
from .extremal_map import ExtremalMapParams
from .polyfactor import check_tolerance, unit_circle_grid

__all__ = [
    "BruteForceError",
    "BruteForceResult",
    "PointDirectionProblem",
    "ResidualReport",
    "SolveDiagnostics",
    "SolveError",
    "SolveResult",
    "SolverConfig",
    "TwoPointProblem",
    "ball_oracle",
    "brute_force_disc",
    "mobius_oracle",
    "solve_point_direction",
    "solve_two_point",
]


class SolveError(RuntimeError):
    """No validated family member was found for the problem.

    `diagnostics` is what the search did, a `SolveDiagnostics` with
    `pattern` None, when the search ran; it is None when the problem was
    refused before any start ran.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class BruteForceError(RuntimeError):
    """No feasible competitor disc exists at the requested degree."""


@dataclass(frozen=True)
class TwoPointProblem:
    z: tuple[complex, ...]
    w: tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        w = tuple(complex(v) for v in self.w)
        if len(z) != len(w):
            raise ValueError("z and w must have the same length")
        if z == w:
            raise ValueError("z and w must be distinct")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class PointDirectionProblem:
    z: tuple[complex, ...]
    X: tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        X = tuple(complex(v) for v in self.X)
        if len(z) != len(X):
            raise ValueError("z and X must have the same length")
        if all(v == 0 for v in X):
            raise ValueError("direction X must be nonzero")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "X", X)


@dataclass(frozen=True)
class SolverConfig:
    """The seed, the start count and the post-hoc validation gates.

    Tolerances are gates recomputed on assembled parameter sets; the
    Newton iteration itself always aims at `_NEWTON_TOL` in the max norm.
    """

    seed: int = 0
    starts: int = 8                  # random perturbations per flag pattern
    interpolation_tol: float = 1e-9
    constraint_tol: float = 1e-9
    boundary_tol: float = 1e-8
    boundary_grid: int = 512

    def __post_init__(self):
        # the solver's members have band degree 1
        extremal_map.check_grid(self.boundary_grid, 1, "boundary_grid")
        if self.starts < 0:
            raise ValueError(f"starts = {self.starts} must be at least 0")
        for name in ("interpolation_tol", "constraint_tol", "boundary_tol"):
            check_tolerance(getattr(self, name), name)


@dataclass(frozen=True)
class ResidualReport:
    """Post-hoc residuals of a candidate, recomputed from its parameters."""

    interpolation: float
    constraint: float
    boundary: float
    boundary_grid: int


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the search did.

    `pattern` is the flag pattern of the returned candidate, None for a
    failed search.  `patterns_tried` counts the flag patterns entered,
    `starts_tried` the Newton starts over them, and `newton_iterations`,
    `residual_rows` and `guard_calls` the Newton steps, the residual
    evaluations (one row of a residual call each) and the line-search
    guard calls of those starts.  The starts of a batch after its winner
    ran in lockstep with it but are not counted, so these counts are
    those of a search that runs its starts one at a time.
    `residual_calls` counts the batched residual calls the search made,
    all of them.  `candidates` lists the validated (pattern, scalar)
    pairs, at most one per pattern, in search order.
    """

    pattern: tuple[int, ...] | None
    patterns_tried: int
    starts_tried: int
    newton_iterations: int
    residual_rows: int
    guard_calls: int
    residual_calls: int
    candidates: tuple[tuple[tuple[int, ...], float], ...]
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    """A validated extremal candidate with its certification status.

    `params` lives in the sliced ellipsoid over `active` indices;
    components listed in `dropped` are identically zero and were removed
    before solving.  `certified` is True exactly when the ellipsoid is
    convex, where the first-order conditions are known to be sufficient;
    otherwise the result is only a stationary candidate.  `alternates`
    lists other validated candidates within 1e-7 of the scalar; it is
    empty on convex domains, where the search stops at the first one.
    """

    kind: str
    scalar: float
    params: ExtremalMapParams
    residuals: ResidualReport
    certified: bool
    label: str
    active: tuple[int, ...]
    dropped: tuple[int, ...]
    alternates: tuple[tuple[tuple[int, ...], float], ...]
    diagnostics: SolveDiagnostics


def _kind(problem) -> tuple[str, tuple[complex, ...]]:
    """The kind of a problem and its second datum (w or X)."""
    if isinstance(problem, TwoPointProblem):
        return "two-point", problem.w
    if isinstance(problem, PointDirectionProblem):
        return "point-direction", problem.X
    raise TypeError(f"unsupported problem type {type(problem).__name__}")


@dataclass(frozen=True)
class _Intake:
    """A checked problem; the arrays and `pattern` are on `active` only."""

    kind: str
    z: np.ndarray
    second: np.ndarray                  # w or X
    p: np.ndarray
    pattern: tuple[int, ...] | None     # forced flag pattern, if any
    active: tuple[int, ...]
    dropped: tuple[int, ...]


def _intake(ellipsoid: Ellipsoid, problem, kind: str | None = None,
            r_pattern: str | None = None) -> _Intake:
    """Check a problem against the ellipsoid and drop vanishing components.

    Refuses a problem of another kind than `kind` (when given), a
    dimension mismatch, a base point (for two-point problems also w) not
    strictly inside E(p), and a forced flag pattern that is not one flag
    0 or 1 per component.  A component with z_j = 0 and second datum 0 is
    identically zero on every extremal disc and is dropped, which is the
    paper's dimension reduction; this is the one place that decides it.
    The problem types guarantee that some component remains.
    """
    got, second = _kind(problem)
    if kind is not None and got != kind:
        raise TypeError(f"expected a {kind} problem, got "
                        f"{type(problem).__name__}")
    z = np.asarray(problem.z, dtype=complex)
    tg = np.asarray(second, dtype=complex)
    if z.size != ellipsoid.dim:
        raise ValueError("problem dimension does not match the ellipsoid")
    points = (("z", z), ("w", tg)) if got == "two-point" else (("z", z),)
    for name, v in points:
        cls = ellipsoid.classify(v, tol=1e-12)
        if cls.kind is not PointClass.INSIDE:
            raise ValueError(f"{name} is not strictly inside the ellipsoid "
                             f"(u = {cls.value:.3e})")
    pattern = None
    if r_pattern is not None:
        pattern = tuple(int(c) for c in r_pattern)
        if len(pattern) != z.size or any(c not in (0, 1) for c in pattern):
            raise ValueError(f"bad flag pattern {pattern}")
    active = [j for j in range(z.size) if not (z[j] == 0 and tg[j] == 0)]
    return _Intake(
        kind=got, z=z[active], second=tg[active],
        p=np.asarray(ellipsoid.exponents)[active],
        pattern=None if pattern is None else tuple(pattern[j] for j in active),
        active=tuple(active),
        dropped=tuple(j for j in range(z.size) if j not in active),
    )


def _mobius_sigma(a: complex, b: complex) -> float:
    return abs((b - a) / (1.0 - np.conj(a) * b))


# ---------------------------------------------------------------------------
# damped Newton on a square real system

_NEWTON_MAX_ITER = 70
_NEWTON_TOL = 1e-12      # max-norm residual at which a start has converged
_NEWTON_MIN_STEP = 2.0 ** -16   # the last rung of the line search


def _newton_steps(J, fx):
    """The Newton steps s[k] with J[k] s[k] = -fx[k] of a stack: one LU
    factorisation with partial pivoting per square J[k] (LAPACK gesv), so
    row k has the bytes a stack of one gives it.  Raises
    `np.linalg.LinAlgError` for the whole stack when some J[k] is exactly
    singular."""
    return np.linalg.solve(J, -fx[..., None])[..., 0]


def _damped_newton(F, jac, x0, guard, reach):
    """Newton with a backtracking (Armijo) line search, on a batch of
    starts in lockstep.

    x0 stacks the starts, one per row.  F(x) takes a stack of iterates
    and returns their residuals, one row each, with the intermediate
    values from which jac builds the stacked Jacobians at the same x.
    `guard` and `reach` see one iterate at a time; `guard` rejects
    out-of-box iterates before F is called.  The line search tries the
    rungs 1, 1/2, 1/4, ... down to `_NEWTON_MIN_STEP` = 2^-16, but starts
    at the first rung not above 2 reach(x, step): every rung above it
    takes a zero or the tied zero out of its guard disc (see
    `_make_reach`), so the accepted step is the one the full ladder would
    accept.  A start fails as soon as its line search finds no decrease.
    The floor is a minimum step length (Dennis-Schnabel, section 6.3): a
    start that only moves on shorter rungs is crawling toward a guard
    circle or a stalled residual, and no converging start has been seen
    to need a rung below 2^-14.

    The starts share the calls, not the arithmetic.  Each step builds one
    Jacobian stack for every start still iterating and solves it for the
    Newton steps in one call (`_newton_steps`: the square J needs an LU
    factorisation, Dennis-Schnabel section 6.1, not a least-squares
    solve); each round of the line search moves every start still
    searching down past the rungs its guard rejects, and one residual
    call evaluates all of their rungs.  The guard, `reach` and the Armijo
    test stay per start, and `_system` and the solve compute every row as
    they compute a stack of one, so each start takes the path, bit for
    bit, that it takes alone.  A start whose J is exactly singular fails
    at that step; the solve refuses the whole stack then, so the stack
    is solved again one start at a time.

    Returns four lists with one entry per start: the converged x or None,
    the Newton iterations, and the start's residual evaluations (rows)
    and guard calls, which keep the work of each start countable when
    the starts share their calls.
    """
    size = len(x0)
    found, iters, evals, tests = ([None] * size, [0] * size, [0] * size,
                                  [1] * size)
    live = [b for b in range(size) if guard(x0[b])]
    if not live:
        return found, iters, evals, tests
    x = x0 if len(live) == size else x0[live]
    fx, parts = F(x)
    nrm = np.maximum.reduce(np.abs(fx), axis=1).tolist()
    for b in live:
        evals[b] = 1
    for it in range(_NEWTON_MAX_ITER):
        if any(v < _NEWTON_TOL for v in nrm):
            keep = []
            for k, v in enumerate(nrm):
                if v < _NEWTON_TOL:
                    found[live[k]], iters[live[k]] = x[k], it
                else:
                    keep.append(k)
            if not keep:
                return found, iters, evals, tests
            live = [live[k] for k in keep]
            nrm = [nrm[k] for k in keep]
            x, fx, *parts = (q[keep] for q in (x, fx, *parts))
        J = jac(parts)
        try:
            steps = _newton_steps(J, fx)
        except np.linalg.LinAlgError:
            # some J is singular: that start fails, the others step
            steps = []
            for k in range(len(x)):
                try:
                    steps.append(_newton_steps(J[k: k + 1], fx[k: k + 1])[0])
                except np.linalg.LinAlgError:
                    steps.append(None)
        # per start still iterating: [row, x, Newton step, rung]
        ladders = []
        for k, (xk, step) in enumerate(zip(x, steps)):
            if step is None:
                continue
            t = 1.0
            skip = 2.0 * reach(xk, step)
            while t > skip and t >= _NEWTON_MIN_STEP:
                t *= 0.5
            ladders.append([k, xk, step, t])
        moved = []      # per round: rows passed, their norms and state
        while ladders:
            trial, trial_x = [], []
            for lad in ladders:
                _, xk, step, t = lad
                b = live[lad[0]]
                while t >= _NEWTON_MIN_STEP:
                    xn = xk + t * step
                    tests[b] += 1
                    if guard(xn):
                        trial.append(lad)
                        trial_x.append(xn)
                        break
                    t *= 0.5
                lad[3] = t
            ladders = []
            if not trial:
                continue
            xn = np.array(trial_x)
            fn, pn = F(xn)
            nn = np.maximum.reduce(np.abs(fn), axis=1).tolist()
            passed = []
            for i, (lad, v) in enumerate(zip(trial, nn)):
                k = lad[0]
                evals[live[k]] += 1
                if v <= (1.0 - 1e-4 * lad[3]) * nrm[k] or v < _NEWTON_TOL:
                    passed.append(i)
                else:
                    lad[3] *= 0.5
                    ladders.append(lad)
            if len(passed) == len(live):
                # every start moved, in this one round and in order
                x, fx, parts, nrm = xn, fn, pn, nn
                break
            if passed:
                moved.append(([trial[i][0] for i in passed], passed, nn,
                              (xn, fn, *pn)))
        else:
            # a start that did not move failed: its ladder ran out
            rows = [k for m in moved for k in m[0]]
            for k in set(range(len(live))) - set(rows):
                iters[live[k]] = it + 1
            if not rows:
                return found, iters, evals, tests
            live = [live[k] for k in rows]
            nrm = [nn[i] for _, passed, nn, _ in moved for i in passed]
            x, fx, *parts = (np.concatenate(qs) for qs in zip(
                *([q[passed] for q in st] for _, passed, _, st in moved)))
    for k, v in enumerate(nrm):
        if v < _NEWTON_TOL:
            found[live[k]] = x[k]
    for b in live:
        iters[b] = _NEWTON_MAX_ITER
    return found, iters, evals, tests


# ---------------------------------------------------------------------------
# the band-degree-1 residual system


def _unpack(x, n):
    """The unknowns of one iterate x, or of each row of a stack: rho and
    psi with n entries, the zeros alpha_1..alpha_n then alpha0, and the
    scalar."""
    # not a complex view: the sum turns a -0.0 into +0.0, so the bytes
    # of the residual and Jacobian rows do not depend on the sign of a
    # zero in x.  The LU step's pivots compare magnitudes, so a view
    # would move only the signs of zero entries, not a value
    zeros = x[..., 2 * n: 4 * n + 2: 2] + 1j * x[..., 2 * n + 1: 4 * n + 2: 2]
    return x[..., :n], x[..., n: 2 * n], zeros, x[..., 4 * n + 2:]


@functools.lru_cache(maxsize=None)
def _jacobian_layout(n):
    """Where `_system`'s Jacobian of a start takes its entries.

    Component rows hold, per residual (phi(0), then the second datum) and
    component j, seven complex entries: val at d/d(rho_j) (linear in
    a_j), 1j val at d/d(psi_j), d + dbar and 1j (d - dbar) at the two
    columns of alpha_j, d0bar and -1j d0bar at those of alpha0
    (antiholomorphic), and ds at the scalar.  The Jacobian stacks them as
    (entry, residual, start, component).  Returns the flat position in a
    (cols, cols) matrix of each of their real and imaginary parts, with
    an axis of length 1 for the start (start k of a stack adds k cols^2),
    and the matrix of one start with its constant entries (read-only, to
    repeat).  The cache holds one layout per dimension, whatever the
    stack height: the search calls it at every height from
    `SolverConfig.starts` down to 1 as the starts of a batch finish.
    """
    idx = np.arange(n)
    cols = 4 * n + 3
    ent_cols = np.stack([idx, n + idx, 2 * n + 2 * idx, 2 * n + 2 * idx + 1,
                         np.full(n, 4 * n), np.full(n, 4 * n + 1),
                         np.full(n, 4 * n + 2)])
    ent_rows = (2 * n * np.arange(2)[:, None, None]      # residual
                + n * np.arange(2)[None, None, :]        # real, imaginary
                + idx[None, :, None])
    at = (ent_rows[None] * cols
          + ent_cols[:, None, :, None])[:, :, None]      # (7, 2, 1, n, 2)
    blank = np.zeros((1, cols, cols))
    blank[:, 4 * n, 4 * n] = blank[:, 4 * n + 1, 4 * n + 1] = -1.0
    blank.flags.writeable = False
    return at, blank


def _system(kind, z, tg, rpat, p):
    """Residual and closed-form Jacobian of the band-degree-1 system.

    Rows: phi(0) - z, the second datum (phi(s) - w for two-point,
    phi'(0) - s X for point-direction), both split into real and
    imaginary parts, then the tying equations sum_j w_j alpha_j = alpha0
    and sum_j w_j (1 + |alpha_j|^2) = 1 + |alpha0|^2 with weights
    w_j = |a_j|^(2 p_j).  Component rows depend only on their own
    (rho_j, psi_j, alpha_j), on alpha0 and on s, and only
    antiholomorphically on the zeros, so the Jacobian comes from the
    Wirtinger derivatives d/d(alpha_j) and d/d(conj alpha_j): a real
    column x pairs with D + Dbar, an imaginary column y with i (D - Dbar).

    Both work on stacks: the residual maps iterates (B, 4n + 3) to
    residuals (B, 4n + 3), and the Jacobian of its intermediates is
    (B, 4n + 3, 4n + 3).  Each row has the bytes a stack of one gives it.
    """
    n = z.size
    cols = 4 * n + 3
    two_point = kind == "two-point"
    # The per-component data as rows, which a stack of one matches in
    # shape, and complex where it meets complex values: numpy casts a
    # real operand of a complex operation to exactly this, and a cast
    # inside the call costs more than the operation on a small stack.
    full, z, tg = rpat[None] == 1, z[None], tg[None]
    two_p = 2.0 * p[None]
    inv_p = 1.0 / p[None]
    full_less_inv_p = (full - inv_p).astype(complex)
    inv_p_less_1 = (inv_p - 1.0).astype(complex)
    p = p[None].astype(complex)
    # np.where(full, X, Y), which is X itself when every flag is 1: the
    # first pattern of a search, at whose base start most convex
    # searches end
    pick = (lambda X, Y: X) if full.all() else functools.partial(np.where,
                                                                  full)

    def residual(x):
        rho, psi, zeros, s = _unpack(x, n)
        s = s.astype(complex)
        alpha, alpha0 = zeros[:, :n], zeros[:, n:]
        conj = np.conj(zeros)
        a = np.exp(rho + 1j * psi)
        wgt = np.exp(two_p * rho)
        neg_alpha = -alpha
        phi0 = a * pick(neg_alpha, 1.0)
        abs2 = np.abs(alpha) ** 2
        if two_point:
            # phi(s) = a * mob * h, h = ((1 - conj(alpha) s)
            # / (1 - conj(alpha0) s))^(1/p) on the principal branch;
            # `ends` holds both factors, like `zeros`
            ends = 1.0 - conj * s
            num = ends[:, :n]
            logs = np.log(ends)
            h = np.exp((logs[:, :n] - logs[:, n:]) / p)
            mob = pick((s - alpha) / num, 1.0)
            second = a * mob * h
            e1 = second - tg
            extra = (ends, h)
        else:
            # phi'(0) = a * ((1 - |alpha|^2) - alpha hp) or a * hp
            hp = (conj[:, n:] - conj[:, :n]) / p
            second = a * pick((1.0 - abs2) + neg_alpha * hp, hp)
            e1 = second - s * tg
            extra = (hp,)
        one_plus = 1.0 + abs2
        c1 = np.add.reduce(wgt * alpha, axis=1, keepdims=True) - alpha0
        # 1 + |alpha0|^2 in Python floats, per row: np.abs of a complex
        # array rounds the modulus differently for about half of all
        # inputs, and x ** 2 (pow) differs from np.square for some
        tied = [[1.0 + abs(v) ** 2] for (v,) in alpha0.tolist()]
        c2 = np.add.reduce(wgt * one_plus, axis=1, keepdims=True) - tied
        e0 = phi0 - z
        f = np.concatenate([e0.real, e0.imag, e1.real, e1.imag,
                            c1.real, c1.imag, c2], axis=1)
        return f, (alpha, alpha0, conj, s, a, wgt, phi0, second, abs2,
                   one_plus) + extra

    # the tying rows, and the columns of re alpha_j and im alpha_j
    t0, t1, t2 = 4 * n, 4 * n + 1, 4 * n + 2
    are, aim = slice(2 * n, 4 * n, 2), slice(2 * n + 1, 4 * n, 2)

    def jacobian(parts):
        (alpha, alpha0, conj, s, a, wgt, phi0, second, abs2, one_plus,
         *extra) = parts
        size = len(alpha)
        ent = np.zeros((7, 2, size, n), dtype=complex)
        d, dbar = np.zeros((2, 2, size, n), dtype=complex)
        neg_a = -a
        ent[0, 0] = phi0
        d[0] = pick(neg_a, 0.0)
        ent[0, 1] = second
        if two_point:
            ends, h = extra
            num = ends[:, :n]
            d[1] = pick(neg_a * h / num, 0.0)
            ss = second * s
            np.multiply(ss / num, full_less_inv_p, out=dbar[1])
            np.divide(ss, p * ends[:, n:], out=ent[4, 1])
            # conj(alpha0) / den - conj(alpha) / num
            q = conj / ends
            np.add(pick(a * h * (1.0 - abs2) / num ** 2, 0.0),
                   second / p * (q[:, n:] - q[:, :n]), out=ent[6, 1])
        else:
            (hp,) = extra
            d[1] = pick(a * (-conj[:, :n] - hp), 0.0)
            dbar[1] = pick(a * alpha * inv_p_less_1, neg_a / p)
            ent[4, 1] = pick(neg_a * alpha / p, a / p)
            ent[6, 1] = -tg
        np.multiply(1j, ent[0], out=ent[1])
        np.add(d, dbar, out=ent[2])
        np.multiply(1j, d - dbar, out=ent[3])
        np.multiply(-1j, ent[4], out=ent[5])
        at, blank = _jacobian_layout(n)
        if size > 1:
            # start k of the stack lies k matrices further on
            sq = cols * cols
            at = at + np.arange(0, size * sq, sq)[:, None, None]
        J = blank.repeat(size, axis=0)
        J.ravel()[at.ravel()] = ent.view(float).ravel()
        dw = two_p * wgt                        # d(w_j)/d(rho_j)
        dwa = dw * alpha
        J[:, t0, :n] = dwa.real
        J[:, t1, :n] = dwa.imag
        np.multiply(dw, one_plus, out=J[:, t2, :n])
        J[:, t0, are] = wgt
        J[:, t1, aim] = wgt
        w2 = 2.0 * wgt
        np.multiply(w2, alpha.real, out=J[:, t2, are])
        np.multiply(w2, alpha.imag, out=J[:, t2, aim])
        np.multiply(-2.0, alpha0.view(float), out=J[:, t2, 4 * n: 4 * n + 2])
        return J

    return residual, jacobian


# the guard's discs: the n zeros alpha_j, then the tied zero alpha0, as
# the (re, im) pairs x[2n: 4n + 2] (`_discs`), with these radii
_ZERO_RADIUS = 1.0 - 1e-12
_TIED_RADIUS = 1.0 - 1e-9


def _discs(n):
    return (slice(2 * n, 4 * n + 2, 2), slice(2 * n + 1, 4 * n + 2, 2),
            [_ZERO_RADIUS] * n + [_TIED_RADIUS])


def _make_guard(n, scalar_hi):
    """Box test on an iterate, in plain Python: it runs on every trial step.

    The tests only reject, so their order is free: the discs come first
    (most of the rungs they reject are skipped before the guard runs, see
    `_make_reach`), and NaN (which fails no comparison) is caught by the
    finiteness test at the end.  A modulus too large for a float raises
    OverflowError in `abs`, and rejects too.
    """
    re, im, radii = _discs(n)

    def guard(x):
        v = x.tolist()
        try:
            for a, b, r in zip(v[re], v[im], radii):
                if abs(complex(a, b)) > r:
                    return False
        except OverflowError:
            return False
        for rho in v[:n]:
            if abs(rho) > 30.0:
                return False
        if not 1e-8 < v[4 * n + 2] < scalar_hi:
            return False
        return all(map(math.isfinite, v))

    return guard


def _make_reach(n):
    """How far a Newton step can go before a zero leaves its guard disc.

    reach(x, step) is the smallest over the n + 1 discs, the zeros
    alpha_j and the tied zero alpha0 (direction d_j in `step`), of the
    positive root t_j of |alpha_j + t d_j| = r_j, with r_j the guard's
    radius, or inf.  |alpha_j + t d_j| is convex in t, so at t >= 2 t_j
    it exceeds r_j by at least r_j - |alpha_j|, which is above 5e-13
    whenever the margin r_j^2 - |alpha_j|^2 is at least 1e-12: far
    beyond the rounding of x + t * step, so the guard rejects every such
    rung.  A zero with a smaller margin (or a non-finite one) skips
    nothing.  Plain Python floats, like the guard.
    """
    re, im, radii = _discs(n)
    r2s = [r ** 2 for r in radii]

    def reach(x, step):
        v = x.tolist()
        s = step.tolist()
        best = math.inf
        for a, b, c, d, r2 in zip(v[re], v[im], s[re], s[im], r2s):
            margin = r2 - (a * a + b * b)
            dd = c * c + d * d
            if not (margin >= 1e-12 and dd * margin > 0.0):
                continue
            # the roots of dd t^2 + 2 ad t - margin = 0 have opposite
            # signs; take the positive one without cancellation
            ad = a * c + b * d
            root = math.sqrt(ad * ad + dd * margin)
            t = margin / (ad + root) if ad >= 0.0 else (root - ad) / dd
            if t < best:
                best = t
        return best

    return reach


def _second_datum(kind, z, tg):
    """Seed phase, seed scalar and scalar ceiling for the second datum.

    Two-point: the phase and size of the Mobius quotient per component.
    Point-direction: the phase of X and the per-component Schwarz-Pick
    cap min (1 - |z_j|^2) / |X_j|.
    """
    if kind == "two-point":
        quot = (tg - z) / (1.0 - np.conj(z) * tg)
        scalar0 = float(np.clip(1.05 * np.max(np.abs(quot)), 0.05, 0.95))
        return np.angle(quot), scalar0, 1.0 - 1e-9
    nz = tg != 0
    cap = float(np.min((1.0 - np.abs(z[nz]) ** 2) / np.abs(tg[nz])))
    return np.angle(np.where(nz, tg, 1.0)), 0.8 * cap, 10.0 * cap


def _seed(z, beta, scalar0, rpat, p):
    """Start of a flag pattern: circle factors carry the phase beta."""
    n = z.size
    alpha = np.where(rpat == 1, -z * np.exp(-1j * beta),
                     0.05 + 0.05j * np.ones(n))
    rho = np.where(rpat == 1, 0.0,
                   np.log(np.maximum(np.abs(z), 1e-8)))
    psi = np.where(rpat == 1, beta, np.angle(np.where(z == 0, 1.0, z)))
    wgt = np.exp(2.0 * p * rho)
    alpha0 = np.sum(wgt * alpha)
    if abs(alpha0) > 0.9:
        alpha0 = 0.9 * alpha0 / abs(alpha0)
    return _pack(rho, psi, alpha, alpha0, scalar0)


def _pack(rho, psi, alpha, alpha0, scalar):
    n = rho.size
    x = np.empty(4 * n + 3)
    x[:n] = rho
    x[n: 2 * n] = psi
    x[2 * n: 4 * n + 2].view(complex)[:] = np.append(alpha, alpha0)
    x[4 * n + 2] = scalar
    return x


def _perturb(x, rng, n, scalar_hi):
    y = x.copy()
    y[:n] += 0.3 * rng.standard_normal(n)
    y[n: 2 * n] += 0.5 * rng.standard_normal(n)
    y[2 * n: 4 * n] += 0.15 * rng.standard_normal(2 * n)
    y[4 * n: 4 * n + 2] += 0.1 * rng.standard_normal(2)
    y[4 * n + 2] = np.clip(
        y[4 * n + 2] + 0.1 * scalar_hi * rng.standard_normal(),
        1e-4, scalar_hi * 0.999)
    alpha = y[2 * n: 4 * n].view(complex)
    big = np.abs(alpha) > 0.97
    alpha[big] = 0.9 * alpha[big] / np.abs(alpha[big])
    # alpha0 stays a numpy scalar: its clamp rounds differently in an array
    a0 = y[4 * n] + 1j * y[4 * n + 1]
    if abs(a0) > 0.97:
        a0 = 0.9 * a0 / abs(a0)
        y[4 * n], y[4 * n + 1] = a0.real, a0.imag
    return y


def _assemble(x, n, rpat) -> ExtremalMapParams:
    rho, psi, zeros, _ = _unpack(x, n)
    return ExtremalMapParams(
        m=1, n=n,
        a=np.exp(rho + 1j * psi),
        alpha0=zeros[n:],
        alpha=zeros[:n].reshape(1, n),
        r=np.asarray(rpat, dtype=int).reshape(1, n),
    )


def _validate(params, ellipsoid, kind, z, target, scalar, config):
    """Recompute every gate from the assembled parameters."""
    params.check_box()
    p0 = extremal_map.evaluate(params, ellipsoid, 0.0)
    if kind == "two-point":
        pt = extremal_map.evaluate(params, ellipsoid, scalar)
        interp = max(float(np.max(np.abs(p0 - z))),
                     float(np.max(np.abs(pt - target))))
    else:
        dv = extremal_map.derivative(params, ellipsoid, 0.0)
        interp = max(float(np.max(np.abs(p0 - z))),
                     float(np.max(np.abs(dv - scalar * target))))
    cres = extremal_map.constraint_residual(params, ellipsoid)
    bdef = extremal_map.boundary_defect(params, ellipsoid, config.boundary_grid)
    report = ResidualReport(interp, cres, bdef, config.boundary_grid)
    ok = (interp <= config.interpolation_tol
          and cres <= config.constraint_tol
          and bdef <= config.boundary_tol)
    return ok, report


def _patterns(z, forced):
    """Flag patterns to try; components pinned to zero at 0 need flag 1."""
    pats = ([forced] if forced is not None
            else itertools.product((1, 0), repeat=z.size))
    # phi_j(0) = a_j != 0 cannot meet z_j = 0
    return [pat for pat in pats
            if not any(z[j] == 0 and pat[j] == 0 for j in range(z.size))]


_MAX_PATTERNS_DIM = 6    # refuse 2^n flag enumeration beyond this n


def _solve_core(ellipsoid, data: _Intake, config):
    t_start = time.monotonic()
    kind, z, tg, p = data.kind, data.z, data.second, data.p
    sub = Ellipsoid(tuple(p))
    n = z.size
    if n > _MAX_PATTERNS_DIM:
        raise SolveError(
            f"flag enumeration over {n} components is too large "
            f"(limit {_MAX_PATTERNS_DIM})")

    # two-point minimizes sigma, point-direction maximizes t
    sign = 1.0 if kind == "two-point" else -1.0
    beta, scalar0, scalar_hi = _second_datum(kind, z, tg)
    rng = np.random.default_rng(config.seed)
    guard = _make_guard(n, scalar_hi)
    reach = _make_reach(n)
    best = None
    candidates = []
    patterns = _patterns(z, data.pattern)
    if not patterns:
        raise SolveError("no admissible flag pattern "
                         "(zero components need flag 1)")
    # the search's counts, under their `SolveDiagnostics` names
    work = dict.fromkeys(("patterns_tried", "starts_tried",
                          "newton_iterations", "residual_rows",
                          "guard_calls", "residual_calls"), 0)

    def first_validated(F, jac, rpat, x0):
        """Run the starts x0 of a flag pattern in lockstep and validate
        the converged ones in start order: the (params, report, scalar)
        of the first that passes and its index, or (None, None)."""
        def residual(x):
            work["residual_calls"] += 1
            return F(x)

        found, *per_start = _damped_newton(residual, jac, x0, guard, reach)
        won, used = (None, None), len(found)
        for k, x in enumerate(found):
            if x is None:
                continue
            scalar = float(x[4 * n + 2])
            params = _assemble(x, n, rpat)
            ok, report = _validate(params, sub, kind, z, tg, scalar, config)
            if ok:
                won, used = ((params, report, scalar), k), k + 1
                break
        # the starts after the winner count as never run
        work["starts_tried"] += used
        for key, counts in zip(("newton_iterations", "residual_rows",
                                "guard_calls"), per_start):
            work[key] += sum(counts[:used])
        return won

    for pat in patterns:
        work["patterns_tried"] += 1
        rpat = np.asarray(pat)
        F, jac = _system(kind, z, tg, rpat, p)
        x_base = _seed(z, beta, scalar0, rpat, p)
        # the base start alone, then the perturbed starts as one batch
        won, _ = first_validated(F, jac, rpat, x_base[None])
        if won is None and config.starts:
            draws, states = [], []
            for _ in range(config.starts):
                draws.append(_perturb(x_base, rng, n, scalar_hi))
                states.append(rng.bit_generator.state)
            won, k = first_validated(F, jac, rpat, np.array(draws))
            if won is not None:
                # the next pattern draws on from where a search that ran
                # the starts one at a time would have stopped drawing
                rng.bit_generator.state = states[k]
        if won is None:
            continue
        params, report, scalar = won
        candidates.append((pat, scalar))
        if best is None or sign * scalar < sign * best[3]:
            best = (params, report, pat, scalar)
        # on a convex domain every validated member is a complex geodesic
        # (Lempert), so its scalar is already the extremal value
        if ellipsoid.is_convex:
            break
    diag = SolveDiagnostics(
        pattern=None if best is None else best[2],
        candidates=tuple(candidates),
        elapsed=time.monotonic() - t_start,
        **work,
    )
    if best is None:
        raise SolveError(
            f"no validated solution after {work['starts_tried']} starts over "
            f"{work['patterns_tried']} flag patterns", diag)
    params, report, pat, scalar = best
    alternates = tuple((q, s) for q, s in candidates
                       if (q, s) != (pat, scalar)
                       and abs(s - scalar) <= 1e-7)
    label = ("geodesic (convex domain: stationarity is sufficient)"
             if ellipsoid.is_convex
             else "extremal candidate (stationarity only: domain not convex)")
    return SolveResult(
        kind=kind,
        scalar=scalar,
        params=params,
        residuals=report,
        certified=ellipsoid.is_convex,
        label=label,
        active=data.active,
        dropped=data.dropped,
        alternates=alternates,
        diagnostics=diag,
    )


def solve_two_point(ellipsoid: Ellipsoid, problem: TwoPointProblem,
                    config: SolverConfig = SolverConfig(),
                    r_pattern: str | None = None) -> SolveResult:
    """Smallest sigma in (0,1) with a family member phi(0) = z, phi(sigma) = w."""
    data = _intake(ellipsoid, problem, "two-point", r_pattern)
    return _solve_core(ellipsoid, data, config)


def solve_point_direction(ellipsoid: Ellipsoid, problem: PointDirectionProblem,
                          config: SolverConfig = SolverConfig(),
                          r_pattern: str | None = None) -> SolveResult:
    """Largest t > 0 with a family member phi(0) = z, phi'(0) = t X."""
    data = _intake(ellipsoid, problem, "point-direction", r_pattern)
    return _solve_core(ellipsoid, data, config)


# ---------------------------------------------------------------------------
# closed-form oracles


def mobius_oracle(problem) -> tuple[float, ExtremalMapParams]:
    """Dimension-1 closed form: disc automorphisms solve both problems.

    For two points the scalar is |(w - z) / (1 - conj(z) w)|; for a
    point and direction the stretch is (1 - |z|^2) / |X|.  The returned
    parameter set uses a unimodular a, one full circle factor, and tied
    zero equal to the component zero, which satisfies the tying identity
    exactly for every exponent.
    """
    kind, second = _kind(problem)
    if len(problem.z) != 1:
        raise ValueError("mobius oracle requires dimension 1")
    z, s = problem.z[0], second[0]
    if kind == "two-point":
        if abs(z) >= 1 or abs(s) >= 1:
            raise ValueError("points must lie in the unit disc")
        num = (s - z) / (1.0 - np.conj(z) * s)
        value, beta = abs(num), float(np.angle(num))
    else:
        if abs(z) >= 1:
            raise ValueError("base point must lie in the unit disc")
        value, beta = (1.0 - abs(z) ** 2) / abs(s), float(np.angle(s))
    alpha = -z * np.exp(-1j * beta)
    params = ExtremalMapParams(
        m=1, n=1,
        a=np.array([np.exp(1j * beta)]),
        alpha0=np.array([alpha]),
        alpha=np.array([[alpha]]),
        r=np.array([[1]]),
    )
    return float(value), params


def ball_oracle(ellipsoid: Ellipsoid, problem: TwoPointProblem) -> float:
    """Exact two-point scalar for the round ball (all exponents 1).

    Moves z to the origin by the standard ball automorphism and returns
    the norm of the image of w, which is the extremal sigma.
    """
    if not isinstance(problem, TwoPointProblem):
        raise ValueError("ball oracle handles two_point problems only")
    if any(p != 1.0 for p in ellipsoid.exponents):
        raise ValueError("ball oracle requires all exponents equal to 1")
    _intake(ellipsoid, problem)   # checks only: the formula needs no reduction
    z = np.asarray(problem.z, dtype=complex)
    w = np.asarray(problem.w, dtype=complex)
    if np.all(z == 0):
        return float(np.linalg.norm(w))
    zz = float(np.vdot(z, z).real)
    wz = complex(np.vdot(z, w))  # <w, z> with conjugation on z
    s = math.sqrt(1.0 - zz)
    proj = (wz / zz) * z
    orth = w - proj
    img = (z - proj - s * orth) / (1.0 - wz)
    return float(np.linalg.norm(img))


# ---------------------------------------------------------------------------
# brute-force competitor discs


@dataclass(frozen=True)
class BruteForceResult:
    """Certified bound from rational competitor discs.

    The witness disc g = N / q interpolates the data exactly by
    construction; `certified_sup_u` is the maximum of u over the dense
    certification grid (strictly negative means the disc stays inside).
    """

    kind: str
    value: float
    degree: int
    numerator: tuple[tuple[complex, ...], ...]
    denominator_zeros: tuple[complex, ...]
    certified_sup_u: float
    bisection_levels: int
    feasibility_calls: int


_SQUASH = 0.95
_BRUTE_GRID = 256          # coarse circle grid of the hinge penalty
_BRUTE_CERT_GRID = 8192    # certification grid: sup u <= 0 on it accepts
_BRUTE_MARGIN = 1e-6       # hinge offset: u + margin <= 0 on the grids
_BRUTE_TOL = 5e-7          # bisection width (times the cap for t)
_BRUTE_STARTS = 3          # random L-BFGS starts per level, besides 0
_BRUTE_MAXITER = 400       # L-BFGS iterations per run


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call.

    Importing scipy.optimize costs most of a CLI process's start-up and
    only the competitor needs it.  The competitor calls it through this
    module attribute, so a test or a tracer can substitute `solver.minimize`.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _brute_objective(p, z, tg, kind, scalar, degree, zeta):
    """Hinge-penalty objective at a fixed scalar; returns (cost_grad, build).

    The penalty sum of max(u + _BRUTE_MARGIN, 0)^2 over the circle grid
    comes with its exact gradient: the disc depends on the free numerator
    coefficients holomorphically and on the denominator zeros only
    through their conjugates, so Wirtinger chain rules give every
    partial in closed form.  Finite differences are useless here; close
    to the feasible set the cost sits at roundoff level and a noisy
    gradient stalls the line search far from the sharp minimum.

    What does not depend on x is tabulated once per objective, and each
    evaluation works on whole (n, M) arrays.  Every element still sees
    the same operations in the same order as a per-component loop, so
    cost and gradient are bit-identical to it; L-BFGS paths are chaotic
    enough that a regrouped sum moves the bisection's verdicts.
    """
    n = z.size
    d = degree
    ncf = 2 * n * (d - 1)
    nfree = ncf + 2 * d
    pcol = p[:, None]
    expo = 2.0 * pcol                                   # |g|^(2p) in u
    expo_t = 2.0 * pcol - 2.0                           # its derivative
    # numerators of dg_j / dc_{ij} times q, i = 2..d: (d - 1, M)
    if kind == "two-point":
        powers = scalar ** np.arange(2, d + 1)
        dnum = [zeta ** i - scalar ** (i - 1) * zeta for i in range(2, d + 1)]
    else:
        dnum = [zeta ** i for i in range(2, d + 1)]
    dnum = np.array(dnum, dtype=complex).reshape(d - 1, zeta.size)

    def split(x):
        raw = x[:ncf]
        chigh = (raw[0::2] + 1j * raw[1::2]).reshape(n, d - 1)
        vraw = x[ncf:]
        v = vraw[0::2] + 1j * vraw[1::2]
        absv = np.abs(v)
        beta = _SQUASH * v / (1.0 + absv)
        return chigh, v, absv, beta

    def assemble(chigh, beta):
        bc = np.conj(beta)
        fac = 1.0 - bc[:, None] * zeta[None, :]          # (d, M)
        q = fac.prod(axis=0)                             # (M,)
        if kind == "two-point":
            qs_fac = 1.0 - bc * scalar                   # (d,)
            qs = complex(qs_fac.prod())
            c1 = (tg * qs - z - chigh @ powers) / scalar
        else:
            qs_fac = qs = None
            c1 = scalar * tg + z * (-np.sum(bc))
        coeffs = np.concatenate([z[:, None], c1[:, None], chigh], axis=1)
        # Horner in np.polyval's order, every component at once
        g = np.zeros((n, zeta.size), dtype=complex)
        for k in range(d, -1, -1):
            g *= zeta
            g += coeffs[:, k:k + 1]
        g /= q
        return coeffs, fac, q, qs_fac, qs, g

    def build(x):
        chigh, _, _, beta = split(x)
        coeffs, _, _, _, _, g = assemble(chigh, beta)
        return coeffs, beta, g

    def cost_grad(x):
        chigh, v, absv, beta = split(x)
        _, fac, q, qs_fac, qs, g = assemble(chigh, beta)
        absg = np.abs(g)
        u = np.sum(absg ** expo, axis=0) - 1.0
        viol = np.maximum(u + _BRUTE_MARGIN, 0.0)
        cost = float(np.sum(viol * viol))
        grad = np.zeros(nfree)
        if cost == 0.0:
            return cost, grad
        # weight per (component, grid point); clip keeps p < 1 finite at g = 0
        T = (2.0 * viol[None, :] * 2.0 * pcol
             * np.maximum(absg, 1e-150) ** expo_t
             * np.conj(g))                              # (n, M)
        zq = zeta / q                                   # (M,)
        # free numerator coefficients c_{ij}, i = 2..d, laid out (j, i)
        S = T[:, None, :] * (dnum / q)                  # (n, d - 1, M)
        grad[0:ncf:2] = S.real.sum(axis=-1).ravel()
        grad[1:ncf:2] = -S.imag.sum(axis=-1).ravel()
        # denominator parameters v_i through beta conjugates:
        # dg_j / d(conj beta_i) = zeta dc1_ij / q + g_j zeta / fac_i
        if kind == "two-point":
            dc1 = (-tg * qs)[None, :] / qs_fac[:, None]   # (d, n)
        else:
            dc1 = np.broadcast_to(-z, (d, n))
        dq_ratio = zeta / fac                           # (d, M)
        for i in range(d):
            if absv[i] > 0:
                unit = v[i] / absv[i]
                db_re = _SQUASH * ((1.0 + absv[i]) - v[i] * unit.real) \
                    / (1.0 + absv[i]) ** 2
                db_im = _SQUASH * (1j * (1.0 + absv[i]) - v[i] * unit.imag) \
                    / (1.0 + absv[i]) ** 2
            else:
                db_re = _SQUASH
                db_im = 1j * _SQUASH
            # one (n, M) array per i keeps the 8192 grid in cache.  numpy's
            # complex product rounds with FMA, so a * b and b * a can differ
            # in the last bit; explicit out= keeps the operand order, which
            # temporary elision may swap on arrays of 256 KiB or more
            dg = g * dq_ratio[i]
            np.add(dc1[i][:, None] * zq, dg, out=dg)
            np.multiply(T, dg, out=dg)
            acc = 0j
            for s in dg.sum(axis=-1):
                acc += s
            grad[ncf + 2 * i] = float((acc * np.conj(db_re)).real)
            grad[ncf + 2 * i + 1] = float((acc * np.conj(db_im)).real)
        return cost, grad

    return cost_grad, build


def _brute_feasible(p, z, tg, kind, scalar, degree, x0_list, zeta, zeta_cert):
    """Certified competitor at a fixed scalar: (coeffs, beta, sup_u, x) or None.

    A multistart hinge-penalty search on the coarse grid `zeta` comes
    first.  The coarse grid only pins u at its nodes; between nodes u can
    overshoot the margin by grid_spacing^2 times the curvature, so a
    coarse success is polished on the certification grid `zeta_cert`
    before it counts, and the polished disc must have sup u <= 0 there.
    Without the polish the bisection silently treats near-extremal
    feasible levels as infeasible and returns a bound that is too loose
    by orders of magnitude.  L-BFGS is deterministic, so a start equal to
    an earlier one (the warm witness of a z = 0 disc is often x = 0) is
    skipped: it would repeat that run exactly.
    """
    cost_grad, _ = _brute_objective(p, z, tg, kind, scalar, degree, zeta)
    opts = {"maxiter": _BRUTE_MAXITER, "ftol": 1e-30, "gtol": 1e-30}
    best = None
    tried = set()
    for x0 in x0_list:
        if x0.tobytes() in tried:
            continue
        tried.add(x0.tobytes())
        res = minimize(cost_grad, x0, method="L-BFGS-B", jac=True,
                       options=opts)
        if best is None or res.fun < best.fun:
            best = res
        if res.fun == 0.0:
            break
    if not best.fun < 1e-20:
        return None
    fine_cg, fine_build = _brute_objective(p, z, tg, kind, scalar, degree,
                                           zeta_cert)
    res = minimize(fine_cg, best.x, method="L-BFGS-B", jac=True,
                   options=opts)
    if not res.fun < 1e-20:
        return None
    coeffs, beta, g = fine_build(res.x)
    sup_u = float(np.max(np.sum(np.abs(g) ** (2.0 * p[:, None]), axis=0)
                         - 1.0))
    return (coeffs, beta, sup_u, res.x) if sup_u <= 0.0 else None


def brute_force_disc(ellipsoid: Ellipsoid, problem, degree: int,
                     seed: int = 0) -> BruteForceResult:
    """Certified competitor bound over rational discs of a given degree.

    Competitors are g = N / q with per-component numerators of degree at
    most `degree` and a shared denominator q(lam) = prod (1 - conj(b) lam),
    |b| < 0.95, which is zero-free on the closed disc; the class contains
    every polynomial disc of the same degree (b = 0) and the closed-form
    extremals of round balls.  Interpolation at the base point and the
    second datum is imposed exactly by coefficient elimination, so the
    search only fights the membership constraint, penalized through a
    hinged max(u + margin, 0)^2 sum on a circle grid.  The scalar is
    bisected on a (good, bad) bracket with warm starts: good is the best
    certified level so far, bad the level it moves toward (downward on
    sigma, upward on t).  Every accepted level is re-certified on a dense
    grid before it may tighten the bracket.

    `seed` seeds the random L-BFGS starts.  Raises BruteForceError when
    no feasible disc is found at all.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    data = _intake(ellipsoid, problem)
    kind, z, tg, p = data.kind, data.z, data.second, data.p
    n = z.size
    zeta = unit_circle_grid(_BRUTE_GRID)
    zeta_cert = unit_circle_grid(_BRUTE_CERT_GRID)
    rng = np.random.default_rng(seed + 77)
    nfree = 2 * n * (degree - 1) + 2 * degree

    def starts(warm):
        xs = []
        if warm is not None:
            xs.append(warm)
        xs.append(np.zeros(nfree))
        while len(xs) < _BRUTE_STARTS + 1:
            xs.append(0.3 * rng.standard_normal(nfree))
        return xs

    if kind == "two-point":
        # no competitor beats the per-component Mobius sigma; probe near 1
        bad = max(1e-6, 0.999 * max(_mobius_sigma(z[j], tg[j])
                                    for j in range(n)))
        probes = (min(max(bad * 1.01, 0.99), 0.9995), 0.995, 0.999)
        tol = _BRUTE_TOL
    else:
        # no competitor beats the per-component Schwarz-Pick cap
        cap = min((1.0 - abs(z[j]) ** 2) / abs(tg[j])
                  for j in range(n) if tg[j] != 0)
        bad = cap * 1.001
        probes = (cap * 1e-3,)
        tol = _BRUTE_TOL * cap
    calls = 0
    for good in probes:
        witness = _brute_feasible(p, z, tg, kind, good, degree, starts(None),
                                  zeta, zeta_cert)
        calls += 1
        if witness is not None:
            break
    else:
        raise BruteForceError(f"no feasible competitor disc at degree {degree}")
    levels = 0
    while abs(good - bad) > tol:
        mid = 0.5 * (good + bad)
        found = _brute_feasible(p, z, tg, kind, mid, degree,
                                starts(witness[3]), zeta, zeta_cert)
        calls += 1
        levels += 1
        if found is None:
            bad = mid
        else:
            good, witness = mid, found
    coeffs, beta, sup_u, _ = witness
    return BruteForceResult(
        kind=kind,
        value=float(good),
        degree=degree,
        numerator=tuple(tuple(row) for row in coeffs),
        denominator_zeros=tuple(beta),
        certified_sup_u=sup_u,
        bisection_levels=levels,
        feasibility_calls=calls,
    )
