"""Rules about the library's source text itself."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import trainyard
from trainyard.series import _kernel_source

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


def _private_definitions(tree: ast.Module) -> list:
    """(line, name) of each private name a module binds at its top level."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in bound if name.startswith("_") and not name.startswith("__")]


def _names_read(tree: ast.AST) -> set:
    """Every name read under tree, as a bare name or as a module attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_library_private_names_are_read():
    # A private helper, constant or class that no library code reads any more is a
    # leftover of a rewrite: the tests alone keeping it alive do not count.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    read = set().union(*map(_names_read, trees.values()))
    found = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for line, private in _private_definitions(tree)
        if private not in read
    ]
    assert not found, f"private names the library never reads: {found}"


DYNAMIC_CODE = {"exec", "eval", "compile"}


def _dynamic_code_calls(tree: ast.AST) -> set:
    """Line numbers of the calls to exec, eval or compile under tree."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in DYNAMIC_CODE
    }


def test_generated_code_runs_only_where_kernels_are_compiled():
    # Code built from text runs in one place, series._kernel, from source that
    # series._kernel_source writes from a divisor's int terms.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _dynamic_code_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    series_tree = ast.parse((Path(trainyard.__file__).parent / "series.py").read_text(encoding="utf-8"))
    compiler = next(
        node for node in ast.walk(series_tree) if isinstance(node, ast.FunctionDef) and node.name == "_kernel"
    )
    assert sorted(found) == sorted(f"series.py:{line}" for line in _dynamic_code_calls(compiler))
    assert found, "series._kernel no longer calls exec"


KERNEL_NAMES = {"out", "n", "lo", "mid", "hi", "range"}
SAMPLE_DIVISORS = [
    ((1, -1),),
    ((1, 1), (2, 1), (3, 1)),
    ((1, -1), (2, -1), (5, -1), (8, -1)),
    ((1, 3), (2, -3), (4, 2), (5, 2), (7, -1)),
    ((2, -(1 << 70)), (3, 1 << 70), (6, 5)),
    ((1, 10**5000), (8, -1)),  # hex: str() refuses this many digits
]


def _random_divisors(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        degrees = sorted(rng.sample(range(1, 9), rng.randint(1, 8)))
        yield tuple((k, rng.choice((-3, -2, -1, 1, 2, 3, 1 << 69))) for k in degrees)


def test_kernel_source_holds_only_int_literals_and_its_own_names():
    for i, terms in enumerate(SAMPLE_DIVISORS + list(_random_divisors(40, seed=19))):
        tree = ast.parse(_kernel_source(terms))
        (function,) = tree.body
        assert isinstance(function, ast.FunctionDef), i
        nodes = list(ast.walk(tree))
        constants = [node.value for node in nodes if isinstance(node, ast.Constant)]
        assert constants and all(type(value) is int for value in constants), i
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        assert names <= KERNEL_NAMES | {function.name}, i
        assert not any(isinstance(node, (ast.Attribute, ast.Import, ast.ImportFrom)) for node in nodes), i
