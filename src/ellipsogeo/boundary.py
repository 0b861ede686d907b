"""Boundary-value analysis on uniform circle grids.

An analyticity test (negative-frequency mass) and a least-squares
membership fit that decides whether candidate boundary data belongs to
the rational-power extremal family at a given band degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid
from . import extremal_map
from .extremal_map import ExtremalMapParams
from .polyfactor import unit_circle_grid

__all__ = [
    "FamilyFitReport",
    "FitPreconditionError",
    "analyticity_defect",
    "fit_extremal_family",
]


def analyticity_defect(g) -> float:
    """Largest |c_k| over strictly negative frequencies k.

    Zero (to roundoff) exactly when the samples extend holomorphically
    from the circle into the disc at this resolution.
    """
    v = np.asarray(g, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("samples contain non-finite values")
    M = v.size
    c = np.fft.fft(v) / M
    # fft order: k = 0 .. (M - 1) // 2, then the negative k = -(M // 2) .. -1
    return float(np.max(np.abs(c[(M + 1) // 2:]), initial=0.0))


class FitPreconditionError(ValueError):
    """Candidate boundary data fails the fit preconditions."""


@dataclass(frozen=True)
class FamilyFitReport:
    """Outcome of fitting candidate boundary data to the extremal family.

    `rms_total` is the RMS log-modulus residual over all usable samples
    and `rms_by_component` the same per component; `singular_defect` is
    the largest per-component RMS, not a singular inner factor.
    `constraint_residual` is the tying identity of the assembled `params`,
    `u_defect` the sup of |u| over the finite candidate samples, and
    `masked` the number of (component, sample) pairs left out of the fit.
    """

    params: ExtremalMapParams
    in_family: bool
    rms_total: float
    rms_by_component: tuple[float, ...]
    singular_defect: float
    constraint_residual: float
    u_defect: float
    masked: int


@dataclass(frozen=True)
class LeastSquaresResult:
    """One `least_squares` run: the last accepted point `x`, its residual
    vector `fun`, and the number of residual calls the run made."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


# least_squares stops at a step, or a taken step's decreases, this small
# relative to x, or to the cost
_XTOL = 1e-15
_FTOL = 1e-15


def least_squares(fun, x0, jac, *, max_nfev=4000):
    """Minimize 0.5 ||fun(x)||^2 from x0 by Levenberg-Marquardt.

    Each trial step h solves the damped normal equations
    (J^T J + mu diag(d)) h = -J^T r, where d is the running maximum of
    diag(J^T J) over the points visited, 1 in a column that has stayed
    zero (Marquardt's scaling, as in MINPACK's `lmder`).  mu starts at
    0.1.  A step that lowers the cost is taken, and mu shrinks by
    max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the
    predicted decrease; any other step, one to non-finite residuals
    included, is refused, and mu grows by a factor that doubles with
    each refusal in a row (Nielsen, IMM report, 1999; Moré, 1978).  The
    run stops when a step is at most _XTOL relative to x, when a taken
    step's actual and predicted decreases are both at most _FTOL relative
    to the cost (both 1e-15), or once max_nfev residuals have been
    evaluated; `nfev` counts every call of `fun`.

    Raises ValueError when the residuals at x0 are not all finite.  The
    fit calls this through the module attribute, so a test or a tracer
    can substitute `boundary.least_squares`.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    nfev = 1
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the start")
    cost = 0.5 * (r @ r)
    mu, grow = 0.1, 2.0
    d = np.zeros(x.size)
    new_point = True
    while nfev < max_nfev:
        if new_point:
            J = jac(x)
            A, g = J.T @ J, J.T @ r
            d = np.maximum(d, np.diag(A))
            scale = np.where(d > 0.0, d, 1.0)
        h = np.linalg.solve(A + np.diag(mu * scale), -g)
        if (not np.all(np.isfinite(h))
                or np.linalg.norm(h) <= _XTOL * (np.linalg.norm(x) + _XTOL)):
            break
        x_new = x + h
        r_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * (r_new @ r_new)
        decrease = cost - cost_new
        predicted = 0.5 * (h @ (mu * scale * h - g))
        new_point = decrease > 0.0   # False for non-finite residuals
        if not new_point:
            mu, grow = mu * grow, 2.0 * grow
            continue
        small = decrease <= _FTOL * cost and predicted <= _FTOL * cost
        x, r, cost = x_new, r_new, cost_new
        if small:
            break
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * decrease / predicted - 1.0) ** 3)
        grow = 2.0
    return LeastSquaresResult(x, r, nfev)


def fit_extremal_family(
    samples,
    zeros,
    ellipsoid: Ellipsoid,
    m: int,
    tol: float = 1e-6,
) -> FamilyFitReport:
    """Decide whether boundary data lies in the extremal family at degree m.

    `samples` is an (n, M) array of candidate circle values; `zeros`
    lists the known interior zeros of each component (these are pinned
    as full circle factors, the remaining zeros per component float
    freely with flag 0).  The fit runs on log-moduli: each component's
    log |phi_j| is matched against log |a_j| plus the signed power-factor
    sums, grid points within one sample of a log-modulus singularity
    being excluded.  Phases of the a_j are recovered afterwards by
    aligning the fitted trace with the data, and the tying identity of
    the assembled parameter set is reported alongside the residuals.

    The verdict is "in family" when the total RMS log-modulus residual
    is at most tol and the assembled tying identity holds to
    max(10 tol, 1e-8).
    """
    S = np.asarray(samples, dtype=complex)
    if S.ndim != 2 or S.shape[0] != ellipsoid.dim:
        raise ValueError(
            f"samples must have shape (n, M) with n = {ellipsoid.dim}"
        )
    n, M = S.shape
    if m < 1:
        raise ValueError("band degree m must be >= 1")
    if M < max(8 * m, 16):
        raise ValueError(f"need at least {max(8 * m, 16)} samples per component")
    if len(zeros) != n:
        raise ValueError(f"zeros must list {n} components")
    # column j of the zero matrix holds the pinned zeros of component j,
    # then its free ones; the unknown vector is (rho, the free zeros
    # column by column, the tied zeros alpha0), each zero as (re, im)
    pinned = []
    pinned_alpha = np.zeros((m, n), dtype=complex)
    free = np.ones((m, n), dtype=bool)
    for j, zl in enumerate(zeros):
        zl = [complex(z) for z in zl]
        if len(zl) > m:
            raise ValueError(f"component {j} pins {len(zl)} zeros, max is {m}")
        if any(abs(z) >= 1.0 for z in zl):
            raise ValueError(f"component {j} has a pinned zero outside the disc")
        pinned.append(tuple(zl))
        pinned_alpha[: len(zl), j] = zl
        free[: len(zl), j] = False
    p = np.asarray(ellipsoid.exponents)
    zeta = unit_circle_grid(M)

    finite_cols = np.all(np.isfinite(S), axis=0)
    if np.count_nonzero(finite_cols) < (3 * M) // 4:
        raise FitPreconditionError("too many non-finite candidate samples")
    u = ellipsoid.defining_values(S[:, finite_cols])
    u_defect = float(np.max(np.abs(u)))
    if u_defect > max(tol, 1e-8) * 100:
        raise FitPreconditionError(
            f"candidate data leaves the ellipsoid boundary: "
            f"sup |u| = {u_defect:.3e}"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        logmods = np.log(np.abs(S))
    bad = ~finite_cols | ~np.isfinite(logmods) | (np.abs(logmods) > 30)
    # exclude the immediate neighbors of singular samples too
    masks = ~(bad | np.roll(bad, 1, axis=1) | np.roll(bad, -1, axis=1))
    short = np.count_nonzero(masks, axis=1) < max(8 * m, 16) // 2
    if np.any(short):
        raise FitPreconditionError(f"component {np.argmax(short)} has too "
                                   "few usable samples after masking")
    data = logmods[masks]
    # Levenberg-Marquardt needs a residual per unknown; fewer usable
    # samples would fail every start
    nfree = np.count_nonzero(free)
    unknowns = n + 2 * (nfree + m)
    if data.size < unknowns:
        raise FitPreconditionError(f"{data.size} usable samples cannot "
                                   f"determine {unknowns} unknowns")

    def unpack(x):
        """(rho, the (m, n) zero matrix, the tied zeros alpha0) of x."""
        zs = x[n::2] + 1j * x[n + 1::2]
        alpha = pinned_alpha.copy()
        alpha.T[free.T] = zs[: zs.size - m]
        return x[:n], alpha, zs[zs.size - m:]

    def log_factors(z):
        # sum_k log |1 - conj(z_k) zeta| over the first axis of z
        return np.sum(np.log(np.maximum(
            np.abs(1.0 - np.conj(z)[..., None] * zeta), 1e-300)), axis=0)

    def log_factor_slopes(z):
        # zeta / w for w = 1 - conj(z) zeta, 0 where log_factors clamps |w|
        w = 1.0 - np.conj(z)[..., None] * zeta
        return np.divide(zeta, w, out=np.zeros_like(w),
                         where=np.abs(w) > 1e-300)

    def model(x):
        """Model log |phi_j| on the whole grid, shape (n, M)."""
        rho, alpha, a0 = unpack(x)
        return (rho[:, None]
                + (log_factors(alpha) - log_factors(a0)) / p[:, None])

    def residual(x):
        return model(x)[masks] - data

    # d model_j / d log |1 - conj(z_k) zeta| for the k-th zero of the
    # unknown vector: 1 / p_j for a free zero of component j, -1 / p_j on
    # every component for a tied zero, 0 elsewhere
    owner = np.nonzero(free.T)[0]
    weight = np.zeros((n, 1, nfree + m))
    weight[owner, 0, np.arange(nfree)] = 1.0 / p[owner]
    weight[:, 0, nfree:] = -1.0 / p[:, None]
    rho_columns = np.eye(n)[np.nonzero(masks)[0]]

    def jacobian(x):
        """d residual / dx, shape (usable samples, unknowns)."""
        # d log |w| = -Re(zeta / w) d(re z) - Im(zeta / w) d(im z), so the
        # complex -weight zeta / w, viewed as floats, holds each zero's
        # (re, im) column pair
        q = log_factor_slopes(x[n::2] + 1j * x[n + 1::2]).T
        return np.hstack((rho_columns, (-weight * q)[masks].view(float)))

    def start(rng=None):
        # a random start draws each zero in turn, radius before angle
        zs = [0.15 * np.exp(2j * np.pi * (i + 0.3 * j) / m)
              for j in range(n) for i in range(m - len(pinned[j]))]
        zs += [0.2 * np.exp(2j * np.pi * (k + 0.17) / m + 0.4j)
               for k in range(m)]
        if rng is not None:
            zs = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in zs]
        x0 = np.zeros(n + 2 * len(zs))
        x0[:n] = [np.mean(logmods[j][masks[j]]) for j in range(n)]
        x0[n::2] = np.real(zs)
        x0[n + 1::2] = np.imag(zs)
        return x0

    rng = np.random.default_rng(0)
    best = None
    for trial in range(7):
        x0 = start(None if trial == 0 else rng)
        try:
            sol = least_squares(residual, x0, jac=jacobian, max_nfev=4000)
        except ValueError:
            # least_squares raises this for a start it cannot use, such
            # as one with non-finite residuals
            continue
        rms = float(np.sqrt(np.mean(sol.fun ** 2)))
        if best is None or rms < best[0]:
            best = (rms, sol.x)
        if rms <= tol * 0.1:
            break
    if best is None:
        raise RuntimeError("log-modulus fit failed to produce any solution")
    _, x = best

    rho, alpha, a0 = unpack(x)
    rho = rho.copy()
    # fold any outside-disc fitted zero back in; on the circle the factor
    # modulus only changes by a constant, absorbed into rho (pinned zeros
    # lie inside the disc)
    for (i, j), A in np.ndenumerate(alpha):
        if abs(A) > 1.0:
            rho[j] += np.log(abs(A)) / p[j]
            alpha[i, j] = 1.0 / np.conj(A)
    for k, A in enumerate(a0):
        if abs(A) > 1.0:
            rho -= np.log(abs(A)) / p
            a0[k] = 1.0 / np.conj(A)

    params0 = ExtremalMapParams(m=m, n=n, a=np.exp(rho),
                                alpha0=a0, alpha=alpha, r=~free)
    trace = extremal_map._eval_components(params0, ellipsoid.exponents, zeta)
    psi = np.zeros(n)
    for j in range(n):
        mask = masks[j] & np.isfinite(trace[j])
        inner = np.sum(S[j][mask] * np.conj(trace[j][mask]))
        psi[j] = float(np.angle(inner)) if inner != 0 else 0.0
    params = ExtremalMapParams(m=m, n=n, a=np.exp(rho + 1j * psi),
                               alpha0=a0, alpha=alpha, r=~free)

    fit = model(x)
    rms_by = tuple(
        float(np.sqrt(np.mean((fit[j][masks[j]] - logmods[j][masks[j]]) ** 2)))
        for j in range(n))
    rms_total = float(np.sqrt(np.mean((fit[masks] - data) ** 2)))
    cres = extremal_map.constraint_residual(params, ellipsoid)
    in_family = rms_total <= tol and cres <= max(10 * tol, 1e-8)
    return FamilyFitReport(
        params=params,
        in_family=in_family,
        rms_total=rms_total,
        rms_by_component=rms_by,
        singular_defect=max(rms_by),
        constraint_residual=cres,
        u_defect=u_defect,
        masked=int(np.count_nonzero(~masks)),
    )
