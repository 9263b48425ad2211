"""Every public name the package advertises resolves: each module's
``__all__`` and every name ``lyricmelody/__init__`` imports."""

import ast
import importlib
import pkgutil

import pytest

import lyricmelody

MODULES = sorted(info.name for info in pkgutil.iter_modules(lyricmelody.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lyricmelody.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from lyricmelody.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    with open(lyricmelody.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"lyricmelody.{module_name}")
        assert hasattr(module, name) and hasattr(lyricmelody, name), (module_name, name)
        # the package re-exports only what its module declares public
        assert name in getattr(module, "__all__", (name,)), (module_name, name)
