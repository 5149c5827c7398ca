"""The package namespace: galpha exports exactly what its library modules export."""

import importlib
import pkgutil

import galpha

# the command-line front end is a program, not part of the library namespace
FRONT_ENDS = {"cli"}


def test_package_exports_the_union_of_the_module_exports():
    names = {"__version__"}
    for info in pkgutil.iter_modules(galpha.__path__):
        if info.name not in FRONT_ENDS:
            names.update(importlib.import_module("galpha." + info.name).__all__)
    assert sorted(galpha.__all__) == sorted(names)
    for name in galpha.__all__:
        assert hasattr(galpha, name), name
