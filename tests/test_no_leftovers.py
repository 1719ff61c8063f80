"""No code that a deletion leaves behind: every module-level import of a
module in ``src/ribbonorders`` (``__init__.py`` re-exports, so it is
left out) is referenced in that module, and every private (``_name``)
function, method or class of the package is referenced somewhere in
``src/``, by an ``ast.Name`` or an ``ast.Attribute``.  A helper whose
last caller was deleted, or an import whose last use was, fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "ribbonorders"


def referenced(tree):
    """Every name read as an ``ast.Name`` and every attribute name of an
    ``ast.Attribute`` in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_imports(tree):
    """(line, bound name) for each module-level import whose name the
    module never refers to; ``from __future__`` imports are directives."""
    used = referenced(tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    yield node.lineno, name


def private_definitions(tree):
    """(line, name) for each function, method or class whose name starts
    with one underscore and is not a dunder, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def unreferenced_private(trees):
    """(module, line, name) for each private definition in ``trees``
    ({module name: tree}) that no tree refers to."""
    used = set().union(*map(referenced, trees.values()))
    for module, tree in trees.items():
        for line, name in private_definitions(tree):
            if name not in used:
                yield module, line, name


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_module_level_import_is_referenced():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 10
    unused = [f"{p.name}:{line}: {name}" for p in modules for line, name in unused_imports(parse(p))]
    assert not unused, unused


def test_every_private_definition_is_referenced():
    trees = {str(p.relative_to(SRC)): parse(p) for p in sorted(SRC.rglob("*.py"))}
    assert any(private_definitions(t) for t in trees.values())
    orphans = [f"{module}:{line}: {name}" for module, line, name in unreferenced_private(trees)]
    assert not orphans, orphans


def test_the_scans_find_planted_leftovers():
    # a module with one leftover of each kind, and a use of each other name
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from typing import List, Optional\n"
        "def _kept(x: List[int]):\n"
        "    return os.sep\n"
        "def _left():\n"
        "    pass\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._used()\n"
        "    def _used(self):\n"
        "        return _kept([])\n"
        "    def _orphan(self):\n"
        "        return regex\n"
    )
    assert list(unused_imports(tree)) == [(3, "Optional")]
    assert list(unreferenced_private({"m": tree})) == [("m", 6, "_left"), ("m", 13, "_orphan")]
