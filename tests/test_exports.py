import ast
import importlib
import pkgutil

import pytest

import hypack

MODULES = sorted(info.name for info in pkgutil.iter_modules(hypack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"hypack.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(open(hypack.__file__, encoding="utf-8").read())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        (module, attr)
        for module, attr in imported
        if not hasattr(importlib.import_module(module), attr) or not hasattr(hypack, attr)
    ]
    assert missing == []
