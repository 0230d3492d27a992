"""Every name imported by a module of src/bvkit is used in that module.

A static scan with the standard `ast` module: a name bound by `import` or
`from ... import` counts as used when the module reads it anywhere (a bare
name or the base of an attribute chain) or lists it in `__all__`.
`from __future__` imports are exempt.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bvkit"


def _exported(tree):
    """The string entries of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source):
    """[(line, name)] of the imported names that `source` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [(line, name) for line, name in imported if name not in read]


def test_scanner_finds_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json\n"
              "from fractions import Fraction as F\n"
              "from itertools import chain, product\n"
              "__all__ = ['product']\n"
              "def f():\n"
              "    import sys\n"
              "    return os.path.join(F(1), chain())\n")
    assert unused_imports(source) == [(3, "json"), (8, "sys")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
