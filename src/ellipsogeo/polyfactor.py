"""Self-inversive polynomials nonnegative on the unit circle.

A polynomial P of degree 2m with coefficients satisfying
c_k = conj(c_{2m-k}) takes values with P(zeta) / zeta^m real on
|zeta| = 1.  When that real value is also nonnegative, P factors as

    P(zeta) = r * prod_k (zeta - a_k) (1 - conj(a_k) zeta),   r > 0,

with every a_k in the closed unit disc.  Roots off the circle come in
reflected pairs (b, 1/conj(b)); roots on the circle have even
multiplicity.  This module expands such products and recovers
(r, {a_k}) from coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircleRationalForm",
    "FactorError",
    "SelfInversivePoly",
    "check_self_inversive",
    "check_tolerance",
    "expand_circle_product",
    "factor",
    "unit_circle_grid",
]


class FactorError(ValueError):
    """Input polynomial is not in the factorable class (within tolerance)."""


def unit_circle_grid(M: int) -> np.ndarray:
    """The M-th roots of unity exp(2 pi i k / M), k = 0..M-1."""
    return np.exp(2j * np.pi * np.arange(M) / M)


def check_tolerance(tol: float, name: str = "tol") -> float:
    """Refuse a tolerance that is not a finite number >= 0 with
    ValueError; return it.

    A tolerance only feeds comparisons such as `res > tol * scale`.
    Every comparison with NaN is false, so a NaN tolerance would switch
    off the tests it feeds instead of failing, and an infinite one
    passes everything: `factor` then strips every end coefficient as a
    zero factor.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} = {tol} must be a finite number >= 0")
    return tol


def check_self_inversive(coeffs) -> float:
    """Max |c_k - conj(c_{2m-k})| over k, for ascending coefficients.

    The array length must be odd (degree 2m); an even length cannot carry
    the symmetry and is rejected outright.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size % 2 != 1:
        raise ValueError(
            f"need an odd number of coefficients (degree 2m), got {c.size}"
        )
    return float(np.max(np.abs(c - np.conj(c[::-1]))))


@dataclass(frozen=True)
class SelfInversivePoly:
    """Degree-2m polynomial with the symmetry c_k = conj(c_{2m-k}).

    Coefficients are ascending; construction verifies the symmetry with
    the given tolerance (relative to the largest coefficient).
    """

    coefficients: tuple[complex, ...]
    tol: float = 1e-9

    def __post_init__(self):
        check_tolerance(self.tol)
        c = np.asarray(self.coefficients, dtype=complex)
        res = check_self_inversive(c)
        scale = max(float(np.max(np.abs(c))), 1e-300)
        if res > self.tol * scale:
            raise ValueError(
                f"coefficients are not self-inversive: residual {res:.3e} "
                f"exceeds {self.tol:.1e} * scale"
            )
        object.__setattr__(self, "coefficients", tuple(complex(x) for x in c))

    @property
    def m(self) -> int:
        return (len(self.coefficients) - 1) // 2


@dataclass(frozen=True)
class CircleRationalForm:
    """Factored data (r, {a_k}) with r > 0 and all |a_k| <= 1."""

    scale: float
    zeros: tuple[complex, ...]

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        zs = tuple(complex(a) for a in self.zeros)
        for a in zs:
            if abs(a) > 1 + 1e-9:
                raise ValueError(f"zero {a} lies outside the closed disc")
        object.__setattr__(self, "zeros", zs)

    @property
    def m(self) -> int:
        return len(self.zeros)


def expand_circle_product(scale: float, zeros) -> np.ndarray:
    """Ascending coefficients of scale * prod_k (z - a_k)(1 - conj(a_k) z)."""
    c = np.array([complex(scale)])
    for a in zeros:
        a = complex(a)
        c = np.convolve(c, np.array([-a, 1.0]))
        c = np.convolve(c, np.array([1.0, -np.conj(a)]))
    return c


def _polish_roots(coeffs_desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step per root against the original polynomial.

    Skipped for roots where |P'| is small (clustered or multiple roots),
    where the step is unstable and cluster averaging is used instead.
    """
    dcoeffs = np.polyder(coeffs_desc)
    p = np.polyval(coeffs_desc, roots)
    dp = np.polyval(dcoeffs, roots)
    scale = np.max(np.abs(coeffs_desc))
    safe = np.abs(dp) > 1e-8 * scale
    out = roots.copy()
    step = np.zeros_like(roots)
    step[safe] = p[safe] / dp[safe]
    small = np.abs(step) < 1e-3
    out[safe & small] -= step[safe & small]
    return out


def _root_groups(on, dist, fmod2, gap, reach) -> list[list[int]]:
    """Connected groups of root indices under two link rules.

    `dist` holds the distances between folded roots.  A root within the
    circle collar (`on`) links to every other collar root within `gap`;
    any other root links to its nearest off-collar root when within
    reach * (1 + |b|^2), the reflection tolerance of its folded value b.
    """
    n = len(on)
    links = [(i, j) for i in range(n) for j in range(i)
             if on[i] and on[j] and dist[i][j] <= gap]
    off = [i for i in range(n) if not on[i]]
    for i in off:
        d, j = min(((dist[i][j], j) for j in off if j != i),
                   default=(np.inf, i))
        if d <= reach * (1.0 + fmod2[i]):
            links.append((i, j))
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


# re-expansion error, relative to the largest coefficient, up to which a
# factorization attempt counts as exact; correct factorizations of
# products with a doubled circle zero re-expand to between about 1e-16
# and a few 1e-12
_ROUNDOFF = 1e-12


def factor(poly: SelfInversivePoly, tol: float = 1e-6) -> CircleRationalForm:
    """Recover (r, {a_k}) from a circle-nonnegative self-inversive polynomial.

    Strategy: strip zero factors signalled by vanishing end coefficients,
    take companion-matrix roots of the rest, polish simple roots by one
    Newton step, and fold every root into the closed disc.  A zero off
    the circle is then a pair of folded roots and a mu-fold circle zero
    a group of 2 mu, because computed copies of a k-fold circle root
    scatter by roughly eps^(1/k).  At each of six widening circle
    collars, roots are grouped once: collar roots by proximity, other
    roots with their nearest folded neighbour; each group of 2 mu gives
    mu copies of its mean (snapped to the circle for collar groups), and
    the result is verified by re-expansion.  The attempt that re-expands
    closest to the input wins, except that among attempts exact to
    roundoff the one with the fewest distinct zeros wins.

    Raises FactorError when the polynomial takes negative values on the
    circle or its roots cannot be grouped within tolerance (a group of
    odd size at every collar), and ValueError for a tol that is not a
    finite number >= 0.
    """
    check_tolerance(tol)
    c = np.asarray(poly.coefficients, dtype=complex)
    m = poly.m
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise FactorError("zero polynomial")

    # sign check on a fixed circle grid: P(zeta) / zeta^m must be >= 0
    grid = unit_circle_grid(1024)
    vals = np.polyval(c[::-1], grid) * grid ** (-m)
    if float(np.min(vals.real)) < -max(tol, 1e-8) * scale:
        raise FactorError(
            f"polynomial is negative on the circle (min {np.min(vals.real):.3e})"
        )

    # strip a_k = 0 factors: each contributes a plain zeta factor, so the
    # two end coefficients vanish together
    n_zero = 0
    work = c.copy()
    while (work.size > 1
           and abs(work[0]) <= max(tol, 1e-10) * scale
           and abs(work[-1]) <= max(tol, 1e-10) * scale):
        work = work[1:-1]
        n_zero += 1

    if work.size == 1:
        r = work[0].real
        if r <= 0:
            raise FactorError(f"scale {r:.3e} is not positive")
        return CircleRationalForm(r, (0.0,) * n_zero)

    roots = np.roots(work[::-1])
    roots = _polish_roots(work[::-1].copy(), roots)

    # fold every root into the closed disc: a zero a inside the circle
    # shows as the root pair (a, 1/conj(a)) and a mu-fold circle zero as
    # 2 mu scattered copies of one root, so either becomes one group of
    # 2 mu folded roots
    mods = np.abs(roots).tolist()
    outside = [x > 1.0 for x in mods]
    folded = roots.copy()
    folded[outside] = 1.0 / np.conj(roots[outside])
    dist = np.abs(folded[:, None] - folded[None, :]).tolist()
    fmod2 = (np.abs(folded) ** 2).tolist()
    angles = np.angle(roots).tolist()

    attempts = []
    last_msg = "no classification attempted"
    # widest rung sized for an m-fold circle zero, which is a 2m-fold
    # polynomial root scattering like eps^(1/2m) under np.roots; no
    # early exit, because near a high-multiplicity root every grouping
    # re-expands to roundoff and only the widest collar groups the
    # scattered copies so their mean cancels the first-order error
    for collar in (max(tol, 1e-7), 1e-5, 1e-3, 1e-2, 3e-2, 6e-2):
        on = [abs(x - 1.0) <= collar for x in mods]
        groups = _root_groups(on, dist, fmod2, max(2 * collar, 1e-6),
                              max(tol, collar))
        if any(len(g) % 2 for g in groups):
            last_msg = f"odd root cluster at collar {collar:.0e}"
            continue
        # disc zeros in the order of their roots inside the circle, then
        # circle zeros by angle, each group summed in angle order and
        # its mean snapped to the circle
        zeros = [0.0] * n_zero
        disc = [g for g in groups if not on[g[0]]]
        for g in sorted(disc, key=lambda g: min((outside[i], i) for i in g)):
            zeros += [np.mean(folded[g])] * (len(g) // 2)
        circle = [sorted(g, key=angles.__getitem__)
                  for g in groups if on[g[0]]]
        for g in sorted(circle, key=lambda g: angles[g[0]]):
            mean = np.mean(roots[g])
            zeros += [complex(mean / abs(mean))] * (len(g) // 2)
        # scale estimate from the grid point farthest from every zero
        prods = np.ones(grid.size)
        for a in zeros:
            prods *= np.abs(grid - a) ** 2
        i_far = int(np.argmax(prods))
        r = float(vals.real[i_far] / prods[i_far])
        if r <= 0:
            last_msg = f"scale {r:.3e} is not positive"
            continue
        err = float(np.max(np.abs(expand_circle_product(r, zeros) - c)))
        attempts.append((err, r, zeros, collar))
    if not attempts:
        raise FactorError(f"root pairing failed: {last_msg}")

    def rank(attempt):
        # a narrow collar can split the scattered copies of a multiple
        # circle zero into distinct zeros that still re-expand to
        # roundoff; among attempts at roundoff, the one that merged them
        # (fewest distinct zeros) is the factorization
        err, _, zeros, _ = attempt
        if err <= _ROUNDOFF * scale:
            return (0, len(set(zeros)), err)
        return (1, 0, err)

    err, r, zeros, collar = min(attempts, key=rank)
    if err > max(tol, 1e-7) * scale * 10:
        raise FactorError(
            f"re-expansion residual {err:.3e} exceeds tolerance "
            f"(best attempt at collar {collar:.0e})"
        )
    return CircleRationalForm(r, tuple(zeros))
