"""Complex ellipsoids E(p) = { z in C^n : sum_j |z_j|^(2 p_j) < 1 }.

The domain is described by the defining function

    u(z) = sum_j |z_j|^(2 p_j) - 1,

negative inside, zero on the boundary, positive outside.  All exponents
p_j are strictly positive reals; the domain is convex exactly when every
p_j >= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Ellipsoid", "GradientUndefinedError"]


class GradientUndefinedError(ValueError):
    """Gradient requested at a point with a vanishing component.

    The Wirtinger gradient of u has components p_j |z_j|^(2 p_j) / z_j,
    which blow up (p_j < 1) or lose smoothness (non-integer p_j) at
    z_j = 0, so the request is refused rather than silently patched.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"wirtinger gradient undefined: component {index} is zero"
        )


@dataclass(frozen=True)
class Ellipsoid:
    """The domain { sum_j |z_j|^(2 p_j) < 1 } for an exponent vector p > 0.

    Parameters
    ----------
    exponents : sequence of float
        The vector (p_1, ..., p_n).  Every entry must be strictly
        positive; there is no upper restriction.

    Notes
    -----
    The instance is immutable.  Exponents are stored as a plain tuple so
    the object is hashable and safe to share between threads.
    """

    exponents: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(x) for x in self.exponents)
        if len(p) == 0:
            raise ValueError("exponent vector must be nonempty")
        for j, x in enumerate(p):
            if not np.isfinite(x) or x <= 0.0:
                raise ValueError(f"exponent p_{j} must be positive, got {x}")
        object.__setattr__(self, "exponents", p)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def is_convex(self) -> bool:
        """Convexity holds exactly when every exponent is >= 1/2."""
        return all(p >= 0.5 for p in self.exponents)

    def _check_point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.dim,):
            raise ValueError(
                f"point has shape {z.shape}, expected ({self.dim},)"
            )
        return z

    def defining_value(self, z) -> float:
        """u(z) = sum_j |z_j|^(2 p_j) - 1 for a single point z."""
        z = self._check_point(z)
        p = np.asarray(self.exponents)
        return float(np.sum(np.abs(z) ** (2.0 * p)) - 1.0)

    def defining_values(self, zs) -> np.ndarray:
        """Vectorized u over a batch of points, shape (n, M) -> (M,)."""
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 2 or zs.shape[0] != self.dim:
            raise ValueError(
                f"batch has shape {zs.shape}, expected ({self.dim}, M)"
            )
        p = np.asarray(self.exponents)[:, None]
        return np.sum(np.abs(zs) ** (2.0 * p), axis=0) - 1.0

    def wirtinger_gradient(self, z) -> np.ndarray:
        """Components p_j |z_j|^(2 p_j) / z_j of the z-gradient of u.

        Raises
        ------
        GradientUndefinedError
            If any component of z vanishes; the error records the index
            of the first offending component.
        """
        z = self._check_point(z)
        zero = np.flatnonzero(z == 0)
        if zero.size:
            raise GradientUndefinedError(int(zero[0]))
        p = np.asarray(self.exponents)
        return p * np.abs(z) ** (2.0 * p) / z

    def to_json(self) -> dict:
        return {"p": list(self.exponents)}

    @classmethod
    def from_json(cls, obj: dict) -> "Ellipsoid":
        return cls(tuple(obj["p"]))
