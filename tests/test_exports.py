"""Every name a module of the package exports exists: a deleted function
or class whose name stayed in ``__all__`` fails no import, only a star
import."""
import importlib
import pkgutil

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
