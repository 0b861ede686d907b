"""The rational-power family of extremal disc maps into an ellipsoid.

A member with band degree m >= 1 and target dimension n has components

    phi_j(lam) = a_j * prod_k [ (lam - A_kj) / (1 - conj(A_kj) lam) ]^r_kj
                     * [ (1 - conj(A_kj) lam) / (1 - conj(A_k0) lam) ]^(1/p_j)

for j = 1..n, k = 1..m, with a_j nonzero complex, A_kj in the closed
unit disc (open disc where r_kj = 1), r_kj in {0, 1}, and A_k0 the tied
zeros shared by all components.  The fractional powers are principal:
for |A| <= 1 and |lam| <= 1, Re(1 - conj(A) lam) >= 1 - |A| |lam| >= 0,
so Arg(1 - conj(A) lam) stays in [-pi/2, pi/2], away from the branch cut
of Log, and Log w = ln|w| + i Arg w (Kahan 1987).  The power is realized
from real log-moduli and arguments as exp((1/p_j) (ln|w_kj| - ln|w_k0|
+ i (Arg w_kj - Arg w_k0))) with w_kj = 1 - conj(A_kj) lam, which is the
holomorphic branch equal to 1 at lam = 0; no complex logarithm is taken.

Such a map sends the unit circle into the ellipsoid boundary exactly
when the tying identity

    sum_j |a_j|^(2 p_j) prod_k (z - A_kj)(1 - conj(A_kj) z)
        = prod_k (z - A_k0)(1 - conj(A_k0) z)

holds as a polynomial identity in z; `constraint_residual` measures its
failure coefficientwise and `boundary_defect` measures the geometric
failure |phi| on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid
from . import polyfactor

__all__ = [
    "BoundaryDefectInfo",
    "ExtremalMapParams",
    "ParameterError",
    "SCHEMA",
    "boundary_defect",
    "boundary_defect_info",
    "boundary_trace",
    "check_grid",
    "component_zeros",
    "constraint_residual",
    "derivative",
    "evaluate",
    "pair",
    "params_from_json",
    "params_to_json",
    "random_valid_params",
    "unpair",
]

SCHEMA = "ellipso-geo/v1"


class ParameterError(ValueError):
    """Parameter set violates the structural requirements of the family."""


_BOX_SLACK = 1e-12   # roundoff allowed outside the closed unit disc


@dataclass(frozen=True)
class ExtremalMapParams:
    """Parameter set (m, n, a, alpha0, alpha, r) of one family member.

    Shapes: a is (n,), alpha0 is (m,), alpha and r are (m, n); column j
    of alpha holds the per-factor points of component j.  Construction
    checks shapes and flag values only.  The disc-membership rules and
    the tying identity are deliberately not enforced here, so solver
    iterates may pass through infeasible parameter values; call
    `check_box` or `constraint_residual` for explicit validation.
    """

    m: int
    n: int
    a: np.ndarray
    alpha0: np.ndarray
    alpha: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        m, n = int(self.m), int(self.n)
        if m < 1 or n < 1:
            raise ParameterError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        a = np.array(self.a, dtype=complex).reshape(-1)
        alpha0 = np.array(self.alpha0, dtype=complex).reshape(-1)
        alpha = np.array(self.alpha, dtype=complex)
        r = np.array(self.r, dtype=int)
        if a.shape != (n,):
            raise ParameterError(f"a has shape {a.shape}, expected ({n},)")
        if alpha0.shape != (m,):
            raise ParameterError(
                f"alpha0 has shape {alpha0.shape}, expected ({m},)"
            )
        if alpha.shape != (m, n):
            raise ParameterError(
                f"alpha has shape {alpha.shape}, expected ({m}, {n})"
            )
        if r.shape != (m, n):
            raise ParameterError(f"r has shape {r.shape}, expected ({m}, {n})")
        if not np.all((r == 0) | (r == 1)):
            raise ParameterError("r flags must be 0 or 1")
        for arr in (a, alpha0, alpha):
            arr.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", r)

    def check_box(self) -> None:
        """Structural validity: a nonzero, zeros in the closed disc (up to
        `_BOX_SLACK`), strict disc where a full circle factor is on."""
        if np.any(self.a == 0):
            j = int(np.flatnonzero(self.a == 0)[0])
            raise ParameterError(f"a_{j} is zero")
        if np.any(np.abs(self.alpha) > 1 + _BOX_SLACK):
            raise ParameterError("alpha entry outside the closed unit disc")
        if np.any(np.abs(self.alpha0) > 1 + _BOX_SLACK):
            raise ParameterError("alpha0 entry outside the closed unit disc")
        bad = (self.r == 1) & (np.abs(self.alpha) >= 1.0)
        if np.any(bad):
            k, j = np.argwhere(bad)[0]
            raise ParameterError(
                f"r[{k},{j}] = 1 requires |alpha[{k},{j}]| < 1"
            )


def _check_pair(params: ExtremalMapParams, ellipsoid: Ellipsoid) -> None:
    if params.n != ellipsoid.dim:
        raise ParameterError(
            f"parameter dimension {params.n} != ellipsoid dimension "
            f"{ellipsoid.dim}"
        )


def _eval_components(params: ExtremalMapParams, exponents, lam: np.ndarray,
                     with_derivative: bool = False):
    """Evaluate all components (and optionally derivatives) on a flat grid.

    Uses the principal-branch exponential form for the power factors,
    built from real log-moduli and arguments (see the module docstring),
    and an explicit per-factor product rule for derivatives; the latter
    avoids the log-derivative singularity of circle factors at their
    zeros.  No finiteness filtering happens here.
    """
    m, n = params.m, params.n
    L = lam.size
    out = np.empty((n, L), dtype=complex)
    dout = np.empty((n, L), dtype=complex) if with_derivative else None
    denom0 = 1.0 - np.conj(params.alpha0)[:, None] * lam[None, :]  # (m, L)
    log_h = np.empty((m, L), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Log w = ln|w| + i Arg w; Re w >= 0 keeps Arg off the branch cut
        logmod_d0 = np.log(np.abs(denom0))
        arg_d0 = np.angle(denom0)
        for j in range(n):
            p = exponents[j]
            al = params.alpha[:, j][:, None]          # (m, 1)
            rfl = params.r[:, j][:, None]             # (m, 1)
            num = 1.0 - np.conj(al) * lam[None, :]    # (m, L)
            log_h.real = (np.log(np.abs(num)) - logmod_d0) / p
            log_h.imag = (np.angle(num) - arg_d0) / p
            h = np.exp(log_h)                         # power factors, (m, L)
            mob = (lam[None, :] - al) / num           # circle factors
            f = np.where(rfl == 1, mob, 1.0) * h
            out[j] = params.a[j] * np.prod(f, axis=0)
            if with_derivative:
                # factor derivatives: (B^r H)' = r B' H + B^r H'
                dmob = (1.0 - np.abs(al) ** 2) / num ** 2
                dh = h * ((-np.conj(al)) / num
                          + np.conj(params.alpha0)[:, None] / denom0) / p
                df = np.where(rfl == 1, dmob * h + mob * dh, dh)
                # leave-one-out products via prefix/suffix scans
                pre = np.ones((m + 1, L), dtype=complex)
                suf = np.ones((m + 1, L), dtype=complex)
                for k in range(m):
                    pre[k + 1] = pre[k] * f[k]
                    suf[m - 1 - k] = suf[m - k] * f[m - 1 - k]
                total = np.zeros(L, dtype=complex)
                for k in range(m):
                    total += df[k] * pre[k] * suf[k + 1]
                dout[j] = params.a[j] * total
    return (out, dout) if with_derivative else out


def _interior(params: ExtremalMapParams, ellipsoid: Ellipsoid, lam,
              with_derivative: bool):
    """Values or derivatives at interior points, shaped like lam."""
    _check_pair(params, ellipsoid)
    params.check_box()
    lam_arr = np.asarray(lam, dtype=complex)
    flat = np.atleast_1d(lam_arr).ravel()
    if not np.all(np.abs(flat) < 1.0):
        raise ValueError("derivative requires |lam| < 1" if with_derivative
                         else "evaluate requires |lam| < 1; use "
                         "boundary_trace for circle values")
    vals = _eval_components(params, ellipsoid.exponents, flat,
                            with_derivative)
    if with_derivative:
        vals = vals[1]
    if lam_arr.ndim == 0:
        return vals[:, 0]
    return vals.reshape((params.n,) + lam_arr.shape)


def evaluate(params: ExtremalMapParams, ellipsoid: Ellipsoid, lam):
    """Map values at interior points lam (scalar or array), |lam| < 1.

    Returns shape (n,) for scalar lam, (n, L) for an array of L points.
    """
    return _interior(params, ellipsoid, lam, with_derivative=False)


def derivative(params: ExtremalMapParams, ellipsoid: Ellipsoid, lam):
    """Complex derivative of each component at interior points lam."""
    return _interior(params, ellipsoid, lam, with_derivative=True)


def check_grid(M: int, m: int, name: str = "M") -> None:
    """Reject a circle grid unusable at band degree m: M must be a power
    of two with M >= 4 m + 4."""
    if M < 4 * m + 4:
        raise ValueError(f"{name} = {M} too small, need at least {4 * m + 4}")
    if M & (M - 1) != 0:
        raise ValueError(f"{name} = {M} must be a power of two")


def boundary_trace(params: ExtremalMapParams, ellipsoid: Ellipsoid,
                   M: int) -> np.ndarray:
    """Radial boundary values on the uniform M-point circle grid.

    M must pass `check_grid` at the band degree m.  Individual samples may
    come out non-finite where a tied zero sits on the circle itself;
    callers are expected to mask them (boundary_defect does).
    """
    _check_pair(params, ellipsoid)
    params.check_box()
    check_grid(M, params.m)
    zeta = polyfactor.unit_circle_grid(M)
    return _eval_components(params, ellipsoid.exponents, zeta)


@dataclass(frozen=True)
class BoundaryDefectInfo:
    """Boundary closeness report: sup |u| over finite circle samples."""

    defect: float
    excluded: int
    grid: int


def boundary_defect_info(params: ExtremalMapParams, ellipsoid: Ellipsoid,
                         M: int) -> BoundaryDefectInfo:
    """Max over finite circle samples of |u(phi(zeta))|, with exclusion count."""
    trace = boundary_trace(params, ellipsoid, M)
    finite = np.all(np.isfinite(trace), axis=0)
    n_bad = int(M - np.count_nonzero(finite))
    if not np.any(finite):
        raise ValueError("all circle samples are non-finite")
    u = ellipsoid.defining_values(trace[:, finite])
    return BoundaryDefectInfo(float(np.max(np.abs(u))), n_bad, M)


def boundary_defect(params: ExtremalMapParams, ellipsoid: Ellipsoid,
                    M: int) -> float:
    return boundary_defect_info(params, ellipsoid, M).defect


def constraint_residual(params: ExtremalMapParams,
                        ellipsoid: Ellipsoid) -> float:
    """Max coefficient mismatch in the tying identity.

    The weights are computed as exp(2 p_j log |a_j|) rather than through
    |a_j|^(2 p_j) so extreme moduli lose no accuracy before weighting.
    """
    _check_pair(params, ellipsoid)
    if np.any(params.a == 0):
        raise ParameterError("constraint undefined with a zero coefficient a_j")
    p = np.asarray(ellipsoid.exponents)
    w = np.exp(2.0 * p * np.log(np.abs(params.a)))
    lhs = np.zeros(2 * params.m + 1, dtype=complex)
    for j in range(params.n):
        lhs += w[j] * polyfactor.expand_circle_product(1.0, params.alpha[:, j])
    rhs = polyfactor.expand_circle_product(1.0, params.alpha0)
    return float(np.max(np.abs(lhs - rhs)))


def component_zeros(params: ExtremalMapParams) -> tuple[tuple[complex, ...], ...]:
    """Interior zeros of each component: the alpha[k, j] with r[k, j] = 1."""
    out = []
    for j in range(params.n):
        out.append(tuple(complex(params.alpha[k, j])
                         for k in range(params.m) if params.r[k, j] == 1))
    return tuple(out)


_ALPHA_MAX = 0.9          # largest modulus of a drawn zero
_RESIDUAL_CAP = 5e-13     # tying residual a drawn member must reach
_MAX_TRIES = 60


def random_valid_params(rng: np.random.Generator, exponents,
                        m: int) -> ExtremalMapParams:
    """Draw a parameter set satisfying the tying identity to near machine level.

    Draws the per-component zeros (modulus below `_ALPHA_MAX`) and
    positive weights freely, expands the weighted left side of the
    identity (automatically nonnegative on the circle), and factors it to
    obtain the tied zeros and the scale that normalizes the weights.
    Occasional ill-conditioned draws are rejected and retried, at most
    `_MAX_TRIES` times, until the verified residual is below
    `_RESIDUAL_CAP`.
    """
    ellipsoid = Ellipsoid(tuple(exponents))
    n = ellipsoid.dim
    p = np.asarray(ellipsoid.exponents)
    last = None
    for _ in range(_MAX_TRIES):
        radius = rng.uniform(0.0, _ALPHA_MAX, size=(m, n))
        theta = rng.uniform(0.0, 2 * np.pi, size=(m, n))
        alpha = radius * np.exp(1j * theta)
        r = rng.integers(0, 2, size=(m, n))
        w_raw = rng.uniform(0.2, 2.0, size=n)

        lhs = np.zeros(2 * m + 1, dtype=complex)
        for j in range(n):
            lhs += w_raw[j] * polyfactor.expand_circle_product(1.0, alpha[:, j])
        try:
            poly = polyfactor.SelfInversivePoly(tuple(lhs), tol=1e-9)
            form = polyfactor.factor(poly, tol=1e-7)
        except ValueError:
            continue
        if form.m != m:
            continue
        w = w_raw / form.scale
        mod_a = np.exp(np.log(w) / (2.0 * p))
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=n))
        params = ExtremalMapParams(
            m=m, n=n, a=mod_a * phase,
            alpha0=np.asarray(form.zeros),
            alpha=alpha, r=r,
        )
        res = constraint_residual(params, ellipsoid)
        if res <= _RESIDUAL_CAP:
            return params
        if last is None or res < last[0]:
            last = (res, params)
    if last is not None:
        raise RuntimeError(
            f"generator failed to reach residual {_RESIDUAL_CAP:.1e} in "
            f"{_MAX_TRIES} tries (best {last[0]:.3e})"
        )
    raise RuntimeError("generator failed: no factorable draw")


def pair(x) -> list[float]:
    """A complex number as the schema's [re, im] pair."""
    return [float(np.real(x)), float(np.imag(x))]


def unpair(v) -> complex:
    """The complex number of a schema [re, im] pair."""
    re, im = v
    return complex(re, im)


def params_to_json(params: ExtremalMapParams) -> dict:
    return {
        "schema": SCHEMA,
        "m": params.m,
        "n": params.n,
        "a": [pair(x) for x in params.a],
        "alpha0": [pair(x) for x in params.alpha0],
        "alpha": [[pair(x) for x in row] for row in params.alpha],
        "r": [[int(x) for x in row] for row in params.r],
    }


def params_from_json(obj: dict) -> ExtremalMapParams:
    if "schema" in obj and obj["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {obj['schema']!r}")
    m, n = int(obj["m"]), int(obj["n"])
    return ExtremalMapParams(
        m=m, n=n,
        a=[unpair(v) for v in obj["a"]],
        alpha0=[unpair(v) for v in obj["alpha0"]],
        alpha=np.array([[unpair(v) for v in row] for row in obj["alpha"]],
                       dtype=complex).reshape(m, n),
        r=np.array(obj["r"], dtype=int).reshape(m, n),
    )
