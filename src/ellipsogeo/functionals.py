"""Boundary functionals with finite Laurent weights.

A functional acts on an analytic disc map h : disc -> C^n through

    Phi(h) = (1/2 pi) int_0^{2 pi} Re < h(nu e^(i t)), w(nu e^(i t)) > dt,

where each weight component w_j is a finite Laurent series and nu is a
fixed evaluation radius.  Only the coefficients of nonpositive index
contribute (index -s pairs with the s-th Taylor coefficient of h_j and
the radius cancels), so the value is independent of nu as long as the
quadrature resolves the bandwidth; that collapse is what makes the
functional a legal constraint on interior Taylor data.

Point evaluation and point-derivative reading are packaged as problem
builders: constants read off h(0), the index -1 weight reads h'(0), and
the geometric series truncation of zeta / (zeta - s) reads Re h(s) for
an interior point s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyfactor import unit_circle_grid

__all__ = [
    "BoundaryFunctional",
    "ProblemSpec",
    "build_point_direction_problem",
    "build_two_point_problem",
    "eval_functional",
    "independence_rank",
    "type_defect",
]

_TAIL_EPS = 1e-18
_MAX_POLE_TERMS = 4000


@dataclass(frozen=True)
class BoundaryFunctional:
    """Weight data: one {index: coefficient} Laurent table per component.

    nu is the circle radius used for quadrature; any value in (0, 1)
    gives the same functional value, the stored one is just a good
    numerical choice for the weights at hand.
    """

    terms: tuple[dict, ...]
    nu: float

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        clean = []
        for t in self.terms:
            clean.append({int(s): complex(c) for s, c in t.items()})
        object.__setattr__(self, "terms", tuple(clean))

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def bandwidth(self) -> int:
        b = 0
        for t in self.terms:
            for s in t:
                b = max(b, abs(s))
        return b

    def weight_values(self, zpts: np.ndarray) -> np.ndarray:
        """All component weights at the given points, shape (n, L).

        Negative powers are evaluated by Horner in 1/z so geometric
        coefficient decay keeps intermediates bounded.
        """
        zpts = np.asarray(zpts, dtype=complex)
        out = np.zeros((self.n, zpts.size), dtype=complex)
        inv = 1.0 / zpts
        for j, table in enumerate(self.terms):
            if not table:
                continue
            smax = max(table)
            smin = min(table)
            if smax >= 0:
                pos = np.array([table.get(s, 0.0)
                                for s in range(smax, -1, -1)], dtype=complex)
                out[j] += np.polyval(pos, zpts)
            if smin < 0:
                neg = np.array([table.get(-k, 0.0)
                                for k in range(-smin, 0, -1)], dtype=complex)
                out[j] += np.polyval(neg, inv) * inv
        return out


def _as_disc_map(h, n: int):
    """Normalize a disc map argument to (callable, taylor_terms | None)."""
    if callable(h):
        return h, None
    coeffs = np.asarray(h, dtype=complex)
    if coeffs.ndim == 1:
        coeffs = coeffs[None, :]
    if coeffs.shape[0] != n:
        raise ValueError(
            f"coefficient array has {coeffs.shape[0]} components, expected {n}"
        )

    def f(zpts):
        zpts = np.asarray(zpts, dtype=complex)
        return np.stack([np.polyval(coeffs[j, ::-1], zpts)
                         for j in range(coeffs.shape[0])])

    return f, coeffs.shape[1]


def eval_functional(func: BoundaryFunctional, h, M: int | None = None) -> float:
    """Trapezoid value of Phi(h) on the radius-nu circle.

    Exact (to roundoff) whenever M resolves both the weight bandwidth
    and the Taylor content of h: for a Laurent-polynomial integrand the
    uniform grid sums every frequency to zero except the constant, as
    long as no frequency aliases onto a multiple of M.
    """
    f, terms = _as_disc_map(h, func.n)
    B = func.bandwidth
    if M is None:
        need = max(2 * B + 2, (terms or 0) + B + 1, 16)
        M = 1 << (need - 1).bit_length()
    if M <= 2 * B:
        raise ValueError(f"M = {M} does not resolve weight bandwidth {B}")
    if terms is not None and M < terms + B + 1:
        raise ValueError(f"M = {M} aliases a degree-{terms - 1} map against "
                         f"bandwidth {B}")
    pts = func.nu * unit_circle_grid(M)
    hv = np.asarray(f(pts), dtype=complex)
    if hv.shape != (func.n, M):
        raise ValueError(f"disc map returned shape {hv.shape}, "
                         f"expected ({func.n}, {M})")
    wv = func.weight_values(pts)
    return float(np.mean(np.sum(hv * wv, axis=0).real))


@dataclass(frozen=True)
class ProblemSpec:
    """A finite family of functionals with target values.

    band_degree and sigma record the expected zero structure of the
    normal direction along a solving map: sigma lists the boundary-data
    divisor (all inside the disc), one point per band level.
    """

    functionals: tuple[BoundaryFunctional, ...]
    targets: tuple[float, ...]
    band_degree: int
    sigma: tuple[complex, ...]

    def __post_init__(self):
        if len(self.functionals) != len(self.targets):
            raise ValueError("functionals and targets must pair up")
        if len(self.sigma) != self.band_degree:
            raise ValueError("sigma must list band_degree points")
        if any(abs(s) >= 1 for s in self.sigma):
            raise ValueError("sigma points must lie inside the open disc")
        object.__setattr__(self, "targets",
                           tuple(float(t) for t in self.targets))
        object.__setattr__(self, "sigma",
                           tuple(complex(s) for s in self.sigma))


def type_defect(spec: ProblemSpec) -> float:
    """Residual pole mass after clearing the declared divisor.

    Multiplies each weight's Laurent table by Q(z) = prod (z - sigma_k)
    and reports the largest coefficient left at negative index; zero
    means every weight extends to the punctured disc once Q clears it.
    """
    q = np.array([1.0], dtype=complex)
    for s in spec.sigma:
        q = np.convolve(q, np.array([-s, 1.0]))  # ascending in z
    worst = 0.0
    for func in spec.functionals:
        for table in func.terms:
            if not table:
                continue
            smin = min(table)
            smax = max(table)
            coeffs = np.array([table.get(s, 0.0)
                               for s in range(smin, smax + 1)], dtype=complex)
            prod = np.convolve(coeffs, q)  # indices smin .. smax + m
            neg = prod[: max(0, -smin)]
            if neg.size:
                worst = max(worst, float(np.max(np.abs(neg))))
    return worst


def _pole_table(sigma: float, nu: float) -> dict:
    """Truncated Laurent data of z / (z - sigma): sum sigma^k z^(-k).

    Against any polynomial map the truncation reads the Taylor partial
    sum of h at sigma; the tail is below (sigma/nu)^K on the radius-nu
    circle, pushed under 1e-18 when the term budget allows.
    """
    ratio = sigma / nu
    K = int(math.ceil(math.log(_TAIL_EPS) / math.log(ratio)))
    K = max(1, min(K, _MAX_POLE_TERMS))
    return {-k: complex(sigma ** k) for k in range(K + 1)}


def _unit(n: int, j: int, value: complex, extra: dict | None = None) -> tuple:
    tables: list[dict] = [dict() for _ in range(n)]
    if extra is None:
        tables[j] = {0: value}
    else:
        tables[j] = {s: value * c for s, c in extra.items()}
    return tuple(tables)


def _pin_and_read(z, target, reader: dict, nu: float,
                  sigma: complex) -> ProblemSpec:
    """Re/Im h_j(0) pinned to z, then Re/Im of the `reader` Laurent
    table against target, each over j; band degree 1 with divisor sigma."""
    n = z.size
    functionals = []
    targets = []
    for value, table, tgt in (
        (1.0 + 0j, None, z.real),
        (-1j, None, z.imag),
        (1.0 + 0j, reader, target.real),
        (-1j, reader, target.imag),
    ):
        for j in range(n):
            functionals.append(
                BoundaryFunctional(_unit(n, j, value, table), nu))
            targets.append(float(tgt[j]))
    return ProblemSpec(tuple(functionals), tuple(targets),
                       band_degree=1, sigma=(sigma,))


def build_two_point_problem(z, w, sigma: float) -> ProblemSpec:
    """Functionals pinning h(0) = z and reading Re/Im h(sigma) toward w.

    Ordering: [Re h_j(0)]_j, [Im h_j(0)]_j, [Re h_j(sigma)]_j,
    [Im h_j(sigma)]_j with targets (Re z, Im z, Re w, Im w).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if z.shape != w.shape:
        raise ValueError("z and w must have the same length")
    if np.array_equal(z, w):
        raise ValueError("z and w must be distinct")
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    nu = (1.0 + sigma) / 2.0
    return _pin_and_read(z, w, _pole_table(sigma, nu), nu, complex(sigma))


def build_point_direction_problem(z, X) -> ProblemSpec:
    """Functionals pinning h(0) = z and reading h'(0) against X.

    Ordering: [Re h_j(0)]_j, [Im h_j(0)]_j, [Re h_j'(0)]_j,
    [Im h_j'(0)]_j with targets (Re z, Im z, Re X, Im X).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    X = np.asarray(X, dtype=complex).reshape(-1)
    if z.shape != X.shape:
        raise ValueError("z and X must have the same length")
    if np.all(X == 0):
        raise ValueError("direction X must be nonzero")
    return _pin_and_read(z, X, {-1: 1.0 + 0j}, 0.5, 0j)


def _trial_matrix(spec: ProblemSpec) -> np.ndarray:
    """Each functional's value on each monomial disc c e_j lambda^d.

    The disc has one Taylor term, so it reads only the index -d weight
    coefficient of component j and the entry is Re(c w_j[-d]) exactly,
    with no quadrature.  Columns run over d, then j, then c in (1, i),
    with enough degrees d to saturate the family.
    """
    n = spec.functionals[0].n if spec.functionals else 0
    degrees = max(2, (2 * len(spec.functionals)) // max(n, 1) + 2)
    A = np.zeros((len(spec.functionals), 2 * n * degrees))
    for i, func in enumerate(spec.functionals):
        A[i] = [(unit * table.get(-d, 0.0)).real for d in range(degrees)
                for table in func.terms for unit in (1.0, 1j)]
    return A


_RANK_TOL = 1e-8    # singular values counted, relative to the largest


def independence_rank(spec: ProblemSpec) -> int:
    """Numerical rank of the functional family over the monomial discs."""
    sv = np.linalg.svd(_trial_matrix(spec), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
