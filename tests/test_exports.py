"""Every console script that ``pyproject.toml`` declares resolves to a
callable, and the references that only tests use stay out of the package."""
import importlib
import tomllib
from pathlib import Path

import perfsim
from perfsim.agents import GaussianEnv, LogisticUtility, QuadraticUtility
from perfsim.losses import LogisticLoss, QuadraticLoss
from perfsim.solver import RunTrace


def test_console_scripts_resolve():
    # only an install reads [project.scripts], and the tests run uninstalled
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_test_references_stay_out_of_the_package():
    # no run reaches them; tests/reference.py holds them
    assert not hasattr(perfsim, "one_step_contraction_probe")
    assert not hasattr(perfsim.solver, "one_step_contraction_probe")
    assert not hasattr(perfsim.losses, "log1pexp")
    for owner, name in ((QuadraticUtility, "value"), (LogisticUtility, "value"),
                        (QuadraticLoss, "loss"), (LogisticLoss, "loss"),
                        (GaussianEnv, "stationary_variance"), (RunTrace, "__len__")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
