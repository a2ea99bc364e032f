"""Every name a passel module lists in __all__ resolves on that module, and every
array it lists is read-only."""

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


def test_fixed_alphabets_are_exported():
    # the read-only check above sees only what __all__ lists
    from passel import receiver, selection
    assert {"QAM_POINTS", "QAM_LABELS"} <= set(receiver.__all__)
    assert "PILOT_POINTS" in selection.__all__
