import importlib
import pkgutil
from pathlib import Path

import pytest

import cptinvest

MODULES = [info.name for info in pkgutil.iter_modules(cptinvest.__path__, "cptinvest.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_library_example(capsys):
    """The README's library example runs and prints what the README says it prints."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(example.split("```", 1)[0], namespace)
    assert capsys.readouterr().out == "theta* = +inf  (case T3.1-8b, prospect inf)\nmatch\n"
    assert namespace["report"].agreement == "match"
