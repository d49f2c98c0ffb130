"""Every name a module lists in __all__ must exist, so that
`from polythick import *` and `from polythick.<module> import *` cannot
break on an entry left behind when a function is removed."""

import importlib
import pkgutil

import pytest

import polythick

MODULES = ["polythick"] + [f"polythick.{m.name}"
                           for m in pkgutil.iter_modules(polythick.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate entries in __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []
    ns = {}
    exec(f"from {name} import *", ns)
    assert set(exported) <= set(ns)
