"""Every name a package module imports is used in that module.

Each module under src/ is parsed with ast.  A name counts as used when it
is read as a bare name (the base of an attribute included), when it appears
in a string annotation, or when the module lists it in __all__, which is how
a package re-exports what it imports.
"""

import ast
from pathlib import Path

import pytest

import g2schubert

ROOT = Path(g2schubert.__file__).resolve().parent
MODULES = sorted(path.relative_to(ROOT).as_posix() for path in ROOT.rglob("*.py"))


def _imported(tree):
    """(bound name, line) for each import binding of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    path = ROOT / module
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree)
              if name not in used]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
