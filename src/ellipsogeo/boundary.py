"""Boundary-value analysis on uniform circle grids.

Fourier coefficient extraction, an analyticity test (negative-frequency
mass), outer functions synthesized from a prescribed log-modulus,
Blaschke products, and a least-squares membership fit that decides
whether candidate boundary data belongs to the rational-power extremal
family at a given band degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid
from . import extremal_map
from .extremal_map import ExtremalMapParams
from .polyfactor import unit_circle_grid

__all__ = [
    "FactorizationTriple",
    "FamilyFitReport",
    "FitPreconditionError",
    "FourierCoefficients",
    "analyticity_defect",
    "blaschke_eval",
    "fit_extremal_family",
    "fourier_coefficients",
    "outer_from_log_modulus",
    "OuterFunction",
    "unit_circle_grid",
]


def _as_samples(g) -> np.ndarray:
    return np.asarray(g, dtype=complex).reshape(-1)


@dataclass(frozen=True)
class FourierCoefficients:
    """Discrete Fourier data c_k for k = -M/2 .. M/2 - 1, c_0 the mean."""

    values: np.ndarray
    indices: np.ndarray

    def coefficient(self, k: int) -> complex:
        i = k + self.values.size // 2
        if not (0 <= i < self.values.size):
            raise IndexError(f"index {k} outside the resolved band")
        return complex(self.values[i])


def fourier_coefficients(g) -> FourierCoefficients:
    """Coefficients (1/M) sum_i g_i exp(-2 pi i k i_grid / M), centered order."""
    v = _as_samples(g)
    M = v.size
    if not np.all(np.isfinite(v)):
        raise ValueError("samples contain non-finite values")
    c = np.fft.fftshift(np.fft.fft(v)) / M
    idx = np.arange(-M // 2, M // 2)
    return FourierCoefficients(c, idx)


def analyticity_defect(g) -> float:
    """Largest |c_k| over strictly negative frequencies k.

    Zero (to roundoff) exactly when the samples extend holomorphically
    from the circle into the disc at this resolution.
    """
    fc = fourier_coefficients(g)
    neg = fc.values[fc.indices < 0]
    return float(np.max(np.abs(neg)))


@dataclass(frozen=True)
class OuterFunction:
    """Zero-free analytic function F with prescribed |F| on the circle.

    Stored via the Taylor coefficients of log F; F(0) = exp(c_0) > 0 is
    the normalization (c_0 real).  Evaluation is plain Horner on log F
    followed by exp, valid on the closed disc.
    """

    log_taylor: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.log_taylor, dtype=complex).reshape(-1)
        if c.size == 0 or abs(c[0].imag) > 1e-9:
            raise ValueError("log F must have a real constant term")
        c.setflags(write=False)
        object.__setattr__(self, "log_taylor", c)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(np.polyval(self.log_taylor[::-1], z))

    def boundary_log_modulus(self, M: int) -> np.ndarray:
        zeta = unit_circle_grid(M)
        return np.log(np.abs(self(zeta)))


def outer_from_log_modulus(logmod) -> OuterFunction:
    """Outer function with boundary modulus exp(logmod) on the sample grid.

    The Herglotz reconstruction reads off FFT coefficients of the real
    input: log F has Taylor coefficients (c_0, 2 c_1, ..., 2 c_{M/2-1},
    c_{M/2}), which reproduces the grid samples exactly when the input
    is band-limited to |k| <= M/2.
    """
    v = _as_samples(logmod)
    if not np.all(np.isfinite(v)):
        raise ValueError("log-modulus samples contain non-finite values")
    if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v.real))):
        raise ValueError("log-modulus samples must be real")
    x = v.real
    M = x.size
    c = np.fft.fft(x) / M
    taylor = np.empty(M // 2 + 1, dtype=complex)
    taylor[0] = c[0].real
    taylor[1: M // 2] = 2.0 * c[1: M // 2]
    taylor[M // 2] = c[M // 2].real
    return OuterFunction(taylor)


def blaschke_eval(zeros, lam):
    """Finite Blaschke product prod_k (lam - b_k) / (1 - conj(b_k) lam).

    All zeros must lie strictly inside the disc; an empty zero list
    yields the constant 1.
    """
    zs = np.asarray(zeros, dtype=complex).reshape(-1)
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("Blaschke zeros must lie strictly inside the disc")
    lam = np.asarray(lam, dtype=complex)
    out = np.ones_like(lam, dtype=complex)
    for b in zs:
        out = out * (lam - b) / (1.0 - np.conj(b) * lam)
    return out


class FitPreconditionError(ValueError):
    """Candidate boundary data fails the fit preconditions."""


@dataclass(frozen=True)
class FactorizationTriple:
    """Per-component factorization summary from a membership fit.

    Blaschke zeros are the pinned interior zeros, the outer part is
    reported through its fitted boundary log-modulus, and the defect is
    the RMS log-modulus mass the two explain away only through a
    (numerically forbidden) singular inner factor.
    """

    blaschke_zeros: tuple[complex, ...]
    outer_log_modulus: np.ndarray
    singular_defect: float


@dataclass(frozen=True)
class FamilyFitReport:
    """Outcome of fitting candidate boundary data to the extremal family."""

    params: ExtremalMapParams
    in_family: bool
    rms_total: float
    rms_by_component: tuple[float, ...]
    singular_defect: float
    constraint_residual: float
    u_defect: float
    triples: tuple[FactorizationTriple, ...]
    masked: int
    tol: float


def least_squares(*args, **kwargs):
    """`scipy.optimize.least_squares`, imported on the first call.

    Importing scipy.optimize costs most of a CLI process's start-up and
    only the membership fit needs it.  The fit calls it through this
    module attribute, so a test or a tracer can substitute
    `boundary.least_squares`.
    """
    from scipy.optimize import least_squares as scipy_least_squares
    return scipy_least_squares(*args, **kwargs)


def _logmod_model(x, pinned, free_counts, p, m, zeta, masks):
    """Stacked masked residual-model values for the log-modulus fit."""
    n = len(p)
    rho = x[:n]
    pos = n
    out = []
    frees = []
    for j in range(n):
        fj = free_counts[j]
        fa = x[pos: pos + 2 * fj: 2] + 1j * x[pos + 1: pos + 2 * fj: 2] \
            if fj else np.zeros(0, complex)
        pos += 2 * fj
        frees.append(fa)
    a0 = x[pos::2] + 1j * x[pos + 1::2]
    denom = np.zeros(zeta.size)
    for k in range(m):
        denom += np.log(np.maximum(np.abs(1.0 - np.conj(a0[k]) * zeta), 1e-300))
    for j in range(n):
        acc = np.zeros(zeta.size)
        for A in list(pinned[j]) + list(frees[j]):
            acc += np.log(np.maximum(np.abs(1.0 - np.conj(A) * zeta), 1e-300))
        model = rho[j] + (acc - denom) / p[j]
        out.append(model[masks[j]])
    return np.concatenate(out), frees, a0, rho


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
    if M < max(8 * m, 16):
        raise ValueError(f"need at least {max(8 * m, 16)} samples per component")
    if m < 1:
        raise ValueError("band degree m must be >= 1")
    if len(zeros) != n:
        raise ValueError(f"zeros must list {n} components")
    pinned = []
    for j, zl in enumerate(zeros):
        zl = [complex(z) for z in zl]
        if len(zl) > m:
            raise ValueError(f"component {j} pins {len(zl)} zeros, max is {m}")
        if any(abs(z) >= 1.0 for z in zl):
            raise ValueError(f"component {j} has a pinned zero outside the disc")
        pinned.append(tuple(zl))
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
    masks = []
    for j in range(n):
        bad = ~finite_cols | ~np.isfinite(logmods[j]) | (np.abs(logmods[j]) > 30)
        # exclude the immediate neighbors of singular samples too
        bad = bad | np.roll(bad, 1) | np.roll(bad, -1)
        masks.append(~bad)
        if np.count_nonzero(~bad) < max(8 * m, 16) // 2:
            raise FitPreconditionError(
                f"component {j} has too few usable samples after masking"
            )
    free_counts = [m - len(pinned[j]) for j in range(n)]
    n_params = n + 2 * sum(free_counts) + 2 * m
    data = np.concatenate([logmods[j][masks[j]] for j in range(n)])

    def residual(x):
        model, _, _, _ = _logmod_model(x, pinned, free_counts, p, m, zeta, masks)
        return model - data

    def start(rng=None):
        x0 = np.zeros(n_params)
        for j in range(n):
            x0[j] = float(np.mean(logmods[j][masks[j]]))
        pos = n
        for j in range(n):
            for i in range(free_counts[j]):
                if rng is None:
                    A = 0.15 * np.exp(2j * np.pi * (i + 0.3 * j) / max(m, 1))
                else:
                    A = rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                x0[pos], x0[pos + 1] = A.real, A.imag
                pos += 2
        for k in range(m):
            if rng is None:
                A = 0.2 * np.exp(2j * np.pi * (k + 0.17) / m + 0.4j)
            else:
                A = rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
            x0[pos], x0[pos + 1] = A.real, A.imag
            pos += 2
        return x0

    rng = np.random.default_rng(0)
    best = None
    for trial in range(7):
        x0 = start(None if trial == 0 else rng)
        try:
            sol = least_squares(residual, x0, method="lm",
                                xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                max_nfev=4000)
        except ValueError:
            # least_squares raises this for a start it cannot use, such
            # as one with non-finite residuals
            continue
        if not np.all(np.isfinite(sol.x)):
            continue
        rms = float(np.sqrt(np.mean(sol.fun ** 2)))
        if best is None or rms < best[0]:
            best = (rms, sol.x)
        if rms <= tol * 0.1:
            break
    if best is None:
        raise RuntimeError("log-modulus fit failed to produce any solution")
    _, x = best

    model, frees, a0, rho = _logmod_model(x, pinned, free_counts, p, m,
                                          zeta, masks)
    rho = rho.copy()
    # fold any outside-disc fitted zero back in; on the circle the factor
    # modulus only changes by a constant, absorbed into rho
    frees = [fa.copy() for fa in frees]
    for j in range(n):
        for i, A in enumerate(frees[j]):
            if abs(A) > 1.0:
                rho[j] += np.log(abs(A)) / p[j]
                frees[j][i] = 1.0 / np.conj(A)
    a0 = a0.copy()
    for k in range(m):
        if abs(a0[k]) > 1.0:
            for j in range(n):
                rho[j] -= np.log(abs(a0[k])) / p[j]
            a0[k] = 1.0 / np.conj(a0[k])

    alpha = np.zeros((m, n), dtype=complex)
    rflag = np.zeros((m, n), dtype=int)
    for j in range(n):
        col = list(pinned[j]) + list(frees[j])
        alpha[:, j] = col
        rflag[: len(pinned[j]), j] = 1
    params0 = ExtremalMapParams(m=m, n=n, a=np.exp(rho),
                                alpha0=a0, alpha=alpha, r=rflag)
    trace = extremal_map._eval_components(params0, ellipsoid.exponents, zeta)
    psi = np.zeros(n)
    for j in range(n):
        mask = masks[j] & np.isfinite(trace[j])
        inner = np.sum(S[j][mask] * np.conj(trace[j][mask]))
        psi[j] = float(np.angle(inner)) if inner != 0 else 0.0
    params = ExtremalMapParams(m=m, n=n, a=np.exp(rho + 1j * psi),
                               alpha0=a0, alpha=alpha, r=rflag)

    rms_by = []
    triples = []
    pos = 0
    for j in range(n):
        cnt = int(np.count_nonzero(masks[j]))
        res_j = (model - data)[pos: pos + cnt]
        pos += cnt
        rms_j = float(np.sqrt(np.mean(res_j ** 2))) if cnt else float("inf")
        rms_by.append(rms_j)
        full_model = np.full(M, np.nan)
        full_model[masks[j]] = model[pos - cnt: pos]
        triples.append(FactorizationTriple(
            blaschke_zeros=pinned[j],
            outer_log_modulus=full_model,
            singular_defect=rms_j,
        ))
    rms_total = float(np.sqrt(np.mean((model - data) ** 2)))
    singular_defect = float(max(rms_by))
    cres = extremal_map.constraint_residual(params, ellipsoid)
    in_family = rms_total <= tol and cres <= max(10 * tol, 1e-8)
    return FamilyFitReport(
        params=params,
        in_family=in_family,
        rms_total=rms_total,
        rms_by_component=tuple(rms_by),
        singular_defect=singular_defect,
        constraint_residual=cres,
        u_defect=u_defect,
        triples=tuple(triples),
        masked=int(np.sum([np.count_nonzero(~mk) for mk in masks])),
        tol=tol,
    )
