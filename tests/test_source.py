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
