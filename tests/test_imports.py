"""Every name a statelab module imports is used by that module.

A stdlib-only stand-in for a linter's unused-import check: each
`src/statelab/*.py` is parsed with `ast`, and an imported name counts as
used when the module reads it, lists it as a string in `__all__`, or
names it inside a string annotation.

The package's `__all__` is checked against what the package binds, so
an export removed from only one of the two places fails here rather
than in `from statelab import *`.
"""

import ast
import types
from pathlib import Path

import pytest

import statelab

SOURCES = sorted((Path(__file__).parent.parent / "src" / "statelab").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside `from __future__`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _string_names(text: str) -> set:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _string_names(node.value)
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_plain_string_and_all_uses():
    source = (
        "from a import Used, InAll, InString, Unused\n"
        "import os.path\n"
        "__all__ = ['InAll']\n"
        "def f(x: 'InString') -> None:\n"
        "    return Used\n"
    )
    assert unused_imports(source) == [(1, "Unused"), (2, "os")]


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level `_name` function, class or assignment -> its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _reads(tree: ast.Module) -> set:
    """Names the module reads, bare or as an attribute (`module._name`)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of every private module-level name that no
    module among `sources` (module name -> source text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_every_private_helper_is_read_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def test_the_dead_helper_check_sees_functions_classes_and_assignments():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "__all__ = []\n"
            "class _Dead:\n"
            "    pass\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def public():\n"
            "    _local = 1\n"
            "    return _local\n"
        ),
        "b": "import a\nx = a._helper\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_UNUSED"), ("a", 4, "_Dead")]


def test_package_all_lists_each_public_name_once():
    exported = statelab.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(statelab, name)] == []
    public = {
        name for name, value in vars(statelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(exported)) == []
