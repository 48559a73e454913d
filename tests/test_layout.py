"""Package layout: the library modules never reach for the oracles.

Checked on the source, not on ``sys.modules``, because the package
``__init__`` and the CLI import ``ufgkit.oracles`` legitimately.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ufgkit

PACKAGE = Path(ufgkit.__file__).parent
LIBRARY = ("orders", "context", "ufg", "connectedness", "jsonio")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("name", LIBRARY)
def test_library_module_does_not_import_the_oracles(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    reached = [m for m in _imported_modules(tree) if "oracles" in m.split(".")]
    assert reached == [], f"ufgkit.{name} imports {reached}"


def test_the_check_sees_an_oracle_import():
    tree = ast.parse("from . import oracles\nfrom .oracles import psi\nimport ufgkit.oracles")
    assert [m for m in _imported_modules(tree) if "oracles" in m.split(".")] == [
        ".oracles", "oracles", "oracles.psi", "ufgkit.oracles",
    ]
