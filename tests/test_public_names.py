"""Every public name the package advertises resolves: each module's
``__all__`` and every name ``lyricmelody/__init__`` exports (its ``_EXPORTS``)."""

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
    imported = [(module_name, name) for module_name, names in lyricmelody._EXPORTS.items()
                for name in names]
    # every module but the command line exports its names to the package
    assert sorted(lyricmelody._EXPORTS) == [name for name in MODULES if name != "cli"]
    assert lyricmelody.__all__ == [name for _, name in imported]
    for module_name, name in imported:
        module = importlib.import_module(f"lyricmelody.{module_name}")
        assert getattr(lyricmelody, name) is getattr(module, name), (module_name, name)
        # the package re-exports only what its module declares public
        assert name in getattr(module, "__all__", (name,)), (module_name, name)
