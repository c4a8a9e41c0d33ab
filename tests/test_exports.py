import importlib
import pkgutil

import pytest

import cptinvest

MODULES = [info.name for info in pkgutil.iter_modules(cptinvest.__path__, "cptinvest.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
