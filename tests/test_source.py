"""Rules about the library's source text itself."""

from __future__ import annotations

import ast
import importlib
import random
import re
import shlex
from itertools import product
from pathlib import Path

import trainyard
from trainyard import cli
from trainyard.series import _kernel_source

SOURCES = sorted(Path(trainyard.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def _bug_raises(tree: ast.Module) -> list:
    """(line, raised callable as source text) of each raise whose message says "this is a bug"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            text = "".join(
                part.value
                for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if "this is a bug" in text:
                found.append((node.lineno, ast.unparse(node.exc.func)))
    return found


def test_bug_raises_are_domain_errors():
    # A bug check raises one of the library's ValueError subclasses, so that the
    # CLI reports it as a domain error (exit 1, one error: line) and not a traceback.
    checked, found = 0, []
    for path in SOURCES:
        for line, name in _bug_raises(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            cls = importlib.import_module(f"trainyard.{path.stem}")
            for part in name.split("."):
                cls = getattr(cls, part)
            checked += 1
            if not (
                isinstance(cls, type)
                and issubclass(cls, ValueError)
                and cls.__module__.startswith("trainyard.")
            ):
                found.append(f"{path.name}:{line} {name}")
    assert checked, "no bug checks found"
    assert not found, f"bug checks that raise no library ValueError: {found}"


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
    # series._kernel_source writes from a divisor's shape.
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


KERNEL_NAMES = re.compile(r"out|n|lo|mid|hi|range|k\d+|m\d+")


def _group_counts(size: int):
    """Every run of (adding, subtracting) count pairs, one or more terms per
    magnitude, that covers ``size`` terms."""
    if size == 0:
        yield ()
        return
    for first in range(1, size + 1):
        for rest in _group_counts(size - first):
            for adds in range(first + 1):
                yield (adds, first - adds, *rest)


def _kernel_shapes(size: int):
    """Every shape of ``size`` divisor terms: the -1 and +1 counts, then the groups."""
    for units in range(size + 1):
        for adds in range(units + 1):
            for groups in _group_counts(size - units):
                yield (adds, units - adds, *groups)


def _random_shapes(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        shape = [rng.randint(0, 4), rng.randint(0, 4)]
        for _ in range(rng.randint(0, 4)):
            shape += rng.choice([(a, s) for a, s in product(range(4), repeat=2) if a + s])
        if sum(shape):
            yield tuple(shape)


def test_kernel_source_holds_no_number_and_only_its_own_names():
    shapes = [shape for size in range(1, 5) for shape in _kernel_shapes(size)]
    assert len(shapes) == len(set(shapes)) == 4 + 14 + 48 + 164
    for shape in shapes + list(_random_shapes(60, seed=22)):
        tree = ast.parse(_kernel_source(shape))
        (function,) = tree.body
        assert isinstance(function, ast.FunctionDef), shape
        groups = len(shape) // 2 - 1
        params = [arg.arg for arg in function.args.args]
        assert params == ["out", "lo", "mid", "hi", *(f"k{i}" for i in range(sum(shape)))] + [
            f"m{j}" for j in range(1, groups + 1)
        ], shape
        nodes = list(ast.walk(tree))
        assert not any(isinstance(node, ast.Constant) for node in nodes), shape
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        assert all(KERNEL_NAMES.fullmatch(name) for name in names), shape
        assert not any(isinstance(node, (ast.Attribute, ast.Import, ast.ImportFrom)) for node in nodes), shape


def _module_constants() -> set:
    """The upper-case names that some library module binds at its top level."""
    return {
        target.id
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }


def _environment_variables() -> set:
    """The environment variables that cli.py reads with os.environ.get."""
    cli_source = (Path(trainyard.__file__).parent / "cli.py").read_text(encoding="utf-8")
    return set(re.findall(r'os\.environ\.get\("([A-Z_]+)"', cli_source))


def test_readme_names_only_constants_and_variables_that_exist():
    # A constant the code dropped but the README still names describes code that is gone.
    readme = README.read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", readme))
    assert named, "README.md names no constant"
    known = _module_constants() | _environment_variables()
    assert {"TRAINYARD_FORMAT", "TRAINYARD_HORIZON"} <= known
    assert sorted(named - known) == [], "README.md names constants the library does not define"


def _readme_python_values(code: str):
    """(expression source, the value its comment says) for each expression statement of code.

    The comment follows the expression on its line or stands alone on the
    next line; prose after an em dash is not part of the value.
    """
    lines = code.splitlines()
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if not isinstance(node, ast.Expr):
            yield source, None
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip() or lines[node.end_lineno].strip()
        assert comment.startswith("#"), f"README expression {source!r} says no value"
        yield source, comment[1:].split(" — ")[0].strip()


def _readme_shell_examples(block: str):
    """(argv, environment, head count or None, expected lines) for each $ trainyard example."""
    for example in re.findall(r"^\$ (.*\n(?:.+\n)*)", block, re.M):
        command, *expected = example.splitlines()
        command, _, pipe = command.partition(" | ")
        head = int(pipe.removeprefix("head -")) if pipe else None
        words = shlex.split(command)
        env = dict(word.split("=", 1) for word in words[:words.index("trainyard")])
        yield words[words.index("trainyard") + 1:], env, head, expected


def test_readme_examples_print_what_they_say(capsys, monkeypatch):
    # An example that no longer prints what the README shows misleads every first reader.
    readme = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    values = 0
    for source, said in _readme_python_values(code):
        if said is None:
            exec(source, namespace)
        else:
            assert repr(eval(source, namespace)) == said, source
            values += 1
    (shell,) = [block for block in re.findall(r"```sh\n(.*?)```", readme, re.S) if "$ trainyard" in block]
    commands = 0
    for argv, env, head, expected in _readme_shell_examples(shell):
        monkeypatch.delenv("TRAINYARD_HORIZON", raising=False)
        monkeypatch.delenv("TRAINYARD_FORMAT", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if head is not None:
            assert len(expected) == head, argv
            out = out[:head]
        assert len(out) == len(expected), argv
        for got, want in zip(out, expected):
            cut = want.split("...")[0]
            assert got.startswith(cut) if "..." in want else got == want, argv
        commands += 1
    assert values and commands, "README.md shows no example to check"
