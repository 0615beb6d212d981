"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import miniwfl

SOURCES = sorted(pathlib.Path(miniwfl.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that nothing in it reads,
    except ``__future__`` imports and the names listed in ``__all__``."""
    tree = ast.parse(source)
    imported, exported, used = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "from .model import A, B as C\n"
        "__all__ = ['A']\n"
        "x: C = os.getcwd()\n") == ["json"]
