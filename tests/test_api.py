"""API hygiene: every name a module of the package exports resolves, and no
module-level import is left over once the code that used it is gone."""

import ast
import importlib
from pathlib import Path

import pytest

import qmock

SRC = Path(qmock.__file__).parent
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
MODULES = list(SOURCES)
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}


def _module(name):
    return importlib.import_module("qmock" if name == "__init__" else f"qmock.{name}")


def _imports(tree):
    """(bound name, line numbers of the statement) for each module-level
    import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], range(node.lineno, node.end_lineno + 1)


def _taken_from(name):
    """The names that the other modules of the package take from module
    ``name``: ``from .name import x`` and ``name.x`` after ``from . import
    name``."""
    taken = set()
    for other in MODULES:
        if other == name:
            continue
        for node in ast.walk(TREES[other]):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name:
                taken.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == name):
                taken.add(node.attr)
    return taken


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = _module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


# the package's __init__ exports what it imports
@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(name):
    tree = TREES[name]
    lines = SOURCES[name].splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | set(getattr(_module(name), "__all__", ())) | _taken_from(name)
    unused = [bound for bound, span in _imports(tree)
              if bound not in kept and not any("# noqa" in lines[i - 1] for i in span)]
    assert not unused, f"qmock.{name} imports {unused} and neither uses nor exports them"


def _private_definitions(tree):
    """(name, node) for each function, class or constant that a module
    defines at its top level under a private name (one ``_`` first, no
    dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(trees):
    """(module, name, line) for each read of a name in the trees: a bare
    name, an attribute or a name imported from a sibling module."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield module, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield module, node.attr, node.lineno
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield module, alias.name, node.lineno


def _unreferenced_private_names(trees):
    """'module.name' for each private module-level name of the trees that
    nothing reads outside its own definition."""
    read = {}
    for module, name, line in _references(trees):
        read.setdefault(name, []).append((module, line))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if not any(m != module or not node.lineno <= line <= node.end_lineno
                       for m, line in read.get(name, ()))]


def test_every_private_name_is_referenced():
    dead = _unreferenced_private_names(TREES)
    assert not dead, f"private names that nothing in qmock reads: {dead}"
