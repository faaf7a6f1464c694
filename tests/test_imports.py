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


def _private_definitions(tree):
    """(name, node) for each private function, class or constant that the
    module defines at its top level; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _reads(tree, skip=None):
    """Names that tree reads, as a bare name or an attribute, outside skip."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


TREES = {module: ast.parse((ROOT / module).read_text(), module) for module in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_every_private_helper_is_read_in_the_package(module):
    # a private module-level name that only its own definition or the tests
    # read is dead code
    elsewhere = {name for other, tree in TREES.items() if other != module
                 for name in _reads(tree)}
    tree = TREES[module]
    dead = [f"{module}:{node.lineno} {name}"
            for name, node in _private_definitions(tree)
            if name not in elsewhere and name not in set(_reads(tree, node))]
    assert not dead, "private and never read in src/:\n" + "\n".join(dead)
