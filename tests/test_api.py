"""The modules are the API: each module's `__all__` names only what it
defines or imports, and the package's own modules import from each other
only names listed there."""

import ast
import importlib
from pathlib import Path

import pytest

import claimcheck

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
