"""Checks on the package's source text, read with `ast` alone."""

import ast
from pathlib import Path

import pytest

import linkanomaly

SOURCES = sorted(Path(linkanomaly.__file__).parent.glob("*.py"))
# `__init__.py` imports names to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((name, line) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom json import dumps, loads as read\n"
                     "read(np.zeros(1))\n")
    assert _unused_imports(tree) == [("dumps", 4), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _unread_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level private function, class or
    assigned name that no module reads, by name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            unread += [(module, name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_the_scan_finds_an_unread_private_name():
    trees = {"a": ast.parse("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
                            "def _used(): return _LIMIT\ndef _spare(): pass\n"
                            "class _Spare: pass\n"),
             "b": ast.parse("from a import _used\nimport a\n_used(a._SPARE)\n")}
    assert _unread_private_names(trees) == [("a", "_Spare", 6), ("a", "_spare", 5)]


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert _unread_private_names(trees) == []
