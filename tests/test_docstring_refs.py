"""Every cross-reference in the package's docstrings names something that
exists.

A docstring names a function, method, class, attribute or module with a
Sphinx role, as in :func:`order.basis_layout` or :meth:`label`.  When a
helper is deleted or renamed, the docstrings that still name it go stale
without any other test noticing; this test resolves each reference.  A
name is looked up, in order, on the class whose docstring (or method's
docstring) holds it, on the module, on the package, and as a module of
the package followed by attributes (``order.BasisLayout.pi``).
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import ribbonorders

PACKAGE = Path(ribbonorders.__file__).resolve().parent
ROLE = re.compile(r":(func|meth|class|attr|mod):`([^`]*)`")
KIND = {
    "func": inspect.isfunction,
    "meth": inspect.isfunction,  # a method read off its class
    "class": inspect.isclass,
    "attr": lambda obj: not (inspect.isfunction(obj) or inspect.isclass(obj)),  # a property reads as itself
    "mod": inspect.ismodule,
}
MISSING = object()


def docstrings():
    """(module name, enclosing class name or None, docstring) for every
    docstring in the package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"ribbonorders.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield module, child.name, ast.get_docstring(child)
                    yield from walk(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield module, cls, ast.get_docstring(child)
                    yield from walk(child, cls)

        yield module, None, ast.get_docstring(tree)
        yield from walk(tree, None)


def lookup(root, dotted):
    """The attribute chain dotted on root ("" for root itself), or MISSING."""
    obj = root
    for part in filter(None, dotted.split(".")):
        obj = getattr(obj, part, MISSING)
        if obj is MISSING:
            break
    return obj


def resolves(role, target, module, cls):
    """Whether the first object target names, seen from a docstring in
    module (of the class cls, or None), is of the role's kind."""
    mod = importlib.import_module(module)
    target = target.removeprefix("ribbonorders.")
    candidates = [(getattr(mod, cls), target)] if cls else []
    candidates += [(mod, target), (ribbonorders, target)]
    head, _, rest = target.partition(".")
    if (PACKAGE / f"{head}.py").is_file():
        candidates.append((importlib.import_module(f"ribbonorders.{head}"), rest))
    for root, dotted in candidates:
        obj = lookup(root, dotted)
        if obj is not MISSING:
            return KIND[role](obj)
    return False


def references():
    for module, cls, doc in docstrings():
        for role, target in ROLE.findall(doc or ""):
            yield module, cls, role, target


def test_every_docstring_reference_resolves():
    refs = list(references())
    assert len(refs) >= 60
    bad = [
        f"{module}{'.' + cls if cls else ''}: :{role}:`{target}`"
        for module, cls, role, target in refs
        if not re.fullmatch(r"[A-Za-z_][\w.]*", target) or not resolves(role, target, module, cls)
    ]
    assert not bad, "stale or malformed docstring references:\n" + "\n".join(bad)


def test_a_deleted_name_is_caught():
    assert resolves("func", "socle", "ribbonorders.fdalg", None)
    assert not resolves("func", "no_such_helper", "ribbonorders.fdalg", None)
    assert not resolves("meth", "order.BasisLayout.no_such_method", "ribbonorders.fdalg", None)
    assert not resolves("class", "socle", "ribbonorders.fdalg", None)  # a function named as a class
