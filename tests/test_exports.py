"""Every name a passel module lists in __all__ resolves on that module, every
array it lists is read-only, and every error class it defines is listed."""

import importlib
import pkgutil

import numpy as np
import pytest

import passel

MODULES = sorted(m.name for m in pkgutil.iter_modules(passel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("passel." + module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, "passel.%s.__all__ names missing attributes: %s" % (module, missing)


@pytest.mark.parametrize("module", MODULES)
def test_exported_arrays_are_read_only(module):
    # fixed alphabets are shared module constants: no caller may write into them
    mod = importlib.import_module("passel." + module)
    values = {name: getattr(mod, name, None) for name in getattr(mod, "__all__", ())}
    writable = [name for name, value in values.items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert not writable, "passel.%s exports writable arrays: %s" % (module, writable)


@pytest.mark.parametrize("module", MODULES)
def test_error_classes_are_exported(module):
    # callers catch a module's errors by the names it exports
    mod = importlib.import_module("passel." + module)
    errors = [name for name, value in vars(mod).items()
              if isinstance(value, type) and issubclass(value, Exception)
              and value.__module__ == mod.__name__]
    missing = [name for name in errors if name not in getattr(mod, "__all__", ())]
    assert not missing, "passel.%s defines errors missing from __all__: %s" % (module, missing)


def test_fixed_alphabets_are_exported():
    # the read-only check above sees only what __all__ lists
    from passel import receiver, selection
    assert "PILOT_POINTS" in selection.__all__
    # the receiver's rail code table is private, and as fixed as an export
    assert not receiver._RAIL_VALUES.flags.writeable
    assert not receiver._RAIL_LABELS.flags.writeable
