"""The README's examples use the public API as it is: its Python code runs and
its JSON configs are valid experiment descriptions; its schema tables list
the presets and problem fields the harness takes."""
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perfsim
from perfsim.harness import _FAMILIES, PRESETS, ExperimentSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_has_examples():
    # a pattern that matched nothing would leave the tests below with no cases
    assert len(blocks("python")) == 1 and len(blocks("json")) == 2


@pytest.mark.parametrize("code", blocks("python"), ids=lambda _: "python")
def test_python_example_runs(code):
    # run as a fresh interpreter on the package under test, as a user would,
    # with a piped stdout buffered (PYTHONUNBUFFERED left out)
    src = str(Path(perfsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("text", blocks("json"), ids=lambda _: "json")
def test_json_example_is_a_valid_config(text):
    ExperimentSpec.from_dict(json.loads(text))


def table(header):
    """The rows of the README table under ``header``, as lists of cells with
    their backticks stripped."""
    lines = README.split(header + "\n", 1)[1].splitlines()[1:]  # past the |---| row
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_presets_table_lists_every_preset():
    assert [row[0] for row in table("| preset | problem | defaults |")] == list(PRESETS)


def test_family_table_lists_every_field():
    fields, family = {}, None
    for row in table("| family | field | default | type |"):
        family = row[0] or family  # a family's first row names it, the rest leave it blank
        fields.setdefault(family, []).append(row[1])
    assert fields == {name: list(names) for name, names in _FAMILIES.items()}
