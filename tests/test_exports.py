import importlib
import pkgutil

import pytest

import dequelab

MODULES = ["dequelab"] + [f"dequelab.{info.name}" for info in pkgutil.iter_modules(dequelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
