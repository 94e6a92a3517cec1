"""Checks on the package's source text, read with `ast` alone."""

import ast
from pathlib import Path

import pytest

import linkanomaly

# `__init__.py` imports names to re-export them
MODULES = sorted(p for p in Path(linkanomaly.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
