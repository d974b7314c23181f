"""The modules are the API: each module's `__all__` names only what it
defines or imports, the package's own modules import from each other
only names listed there, and README's config-key list is the config's
fields."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

import claimcheck
from claimcheck.runner import ExperimentConfig

SOURCES = sorted(p for p in Path(claimcheck.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def _module(path: Path):
    return importlib.import_module(f"claimcheck.{path.stem}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_listed_name_resolves(path):
    module = _module(path)
    assert module.__all__, f"{path.stem} lists no names"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_package_imports_name_only_listed_names(path):
    unlisted = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(
                f"claimcheck.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names
                         if a.name not in listed]
    assert unlisted == []


def test_readme_names_every_config_key_and_no_other():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"keys are the experiment fields \(([^)]*)\)\s+"
                         r"plus `providers`", readme)
    assert sentence, "README lost its config-key sentence"
    named = re.findall(r"`(\w+)`", sentence[1])
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))
