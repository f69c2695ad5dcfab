"""Every name a module of the package exports exists: a deleted function
or class whose name stayed in ``__all__`` fails no import, only a star
import. So does every console script that ``pyproject.toml`` declares."""
import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import perfsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(perfsim.__path__))


def test_modules_found():
    # a path that matched nothing would leave the test below with no cases
    assert {"agents", "core", "harness", "oracle", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"perfsim.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_console_scripts_resolve():
    # only an install reads [project.scripts], and the tests run uninstalled
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
