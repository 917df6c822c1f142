"""Rules about the library's source text itself."""

from __future__ import annotations

import ast
from pathlib import Path

import trainyard

SOURCES = sorted(Path(trainyard.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O drops assert statements, so a bug check written as one would vanish;
    # the library raises its domain error with "this is a bug" instead.
    assert SOURCES, "no library sources found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each name an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_library_imports_are_used_or_exported():
    # An import a rewrite left behind misleads a reader about what the module
    # depends on; the package's re-exports are the names listed in __all__.
    exported = set(trainyard.__all__)
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if name not in exported
    ]
    assert not found, f"imported names the library never uses: {found}"
