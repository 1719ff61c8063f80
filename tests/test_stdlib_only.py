"""The package runs on the Python standard library alone: every absolute
import in ``src/ribbonorders`` names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ribbonorders"


def absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside
