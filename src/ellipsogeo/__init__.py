"""Extremal analytic discs and complex geodesics in complex ellipsoids."""

from . import ellipsoid, extremal_map, polyfactor, boundary, functionals, solver
from .ellipsoid import *  # noqa: F401,F403
from .extremal_map import *  # noqa: F401,F403
from .polyfactor import *  # noqa: F401,F403
from .boundary import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (ellipsoid, extremal_map, polyfactor, boundary,
                               functionals, solver)
           for name in module.__all__] + ["__version__"]
