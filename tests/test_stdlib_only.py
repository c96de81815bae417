"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import archivelab

PACKAGE_DIR = Path(archivelab.__file__).parent


def _absolute_imports(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    foreign = [
        f"{path.name}:{lineno} imports {name}"
        for path in modules
        for lineno, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
