"""Extremal analytic discs and complex geodesics in complex ellipsoids.

The submodules, and the names they export, are imported on first use
(PEP 562 module `__getattr__`), so a process that needs a few of them
does not compile and import the rest, `solver` above all.
"""

import importlib

__version__ = "0.1.0"

# the submodules whose `__all__` the package exports, in that order;
# `cli` exports nothing
_SUBMODULES = ("ellipsoid", "extremal_map", "polyfactor", "boundary",
               "functionals", "solver")


def __getattr__(name):
    if name in _SUBMODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for sub in _SUBMODULES for n in __getattr__(sub).__all__] \
            + ["__version__"]
    if not name.startswith("__"):   # a probe for a dunder imports nothing
        for sub in _SUBMODULES:
            module = __getattr__(sub)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
