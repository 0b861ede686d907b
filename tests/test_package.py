"""The package namespace: exactly what its modules export."""

import ellipsogeo
from ellipsogeo import (boundary, ellipsoid, extremal_map, functionals,
                        polyfactor, solver)

MODULES = (ellipsoid, extremal_map, polyfactor, boundary, functionals, solver)


def test_package_exports_every_module_all():
    names = [name for module in MODULES for name in module.__all__]
    assert ellipsogeo.__all__ == names + ["__version__"]
    assert len(set(ellipsogeo.__all__)) == len(ellipsogeo.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ellipsogeo, name) is getattr(module, name)

