import importlib
import pkgutil

import pytest

import spincat

MODULES = ["spincat"] + [f"spincat.{m.name}" for m in pkgutil.iter_modules(spincat.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name deleted from a module must leave its __all__ too, and the
    # package's, or `from spincat import *` raises
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []
