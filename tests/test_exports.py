import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dequelab

MODULES = ["dequelab"] + [f"dequelab.{info.name}" for info in pkgutil.iter_modules(dequelab.__path__)]
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def traced_names() -> list[str]:
    """The WRAPPED list of benchmarks/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no WRAPPED list in {TRACING}")


def test_every_traced_function_resolves():
    # the benchmark refuses to run when a function it wraps is gone
    names, missing = traced_names(), []
    for dotted in names:
        module, *path = dotted.split(".")
        owner = importlib.import_module(f"dequelab.{module}")
        for attr in path:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(dotted)
    assert names and missing == []
