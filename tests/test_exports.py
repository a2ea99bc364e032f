"""Every name a passel module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import passel

MODULES = sorted(m.name for m in pkgutil.iter_modules(passel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("passel." + module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, "passel.%s.__all__ names missing attributes: %s" % (module, missing)
