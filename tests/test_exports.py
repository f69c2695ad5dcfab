"""Every console script that ``pyproject.toml`` declares resolves to a
callable."""
import importlib
import tomllib
from pathlib import Path


def test_console_scripts_resolve():
    # only an install reads [project.scripts], and the tests run uninstalled
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
