import importlib
import pkgutil

import pytest

import rplap

MODULES = sorted(info.name for info in pkgutil.iter_modules(rplap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"rplap.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_names_resolve():
    assert [n for n in rplap.__all__ if not hasattr(rplap, n)] == []
