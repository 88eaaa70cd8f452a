"""Every function and class of the package is used by the package or the
benchmark: a definition named nowhere else in ``src/`` or ``perfbench/`` is
dead code (tests alone do not keep a definition alive)."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import densecil

PACKAGE = Path(densecil.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _names(node) -> Counter:
    """How ``node`` refers to each name, as (kind, name) counts.  Kinds:
    ``name`` an identifier, ``attr`` an attribute read, ``call`` a called
    attribute, ``str`` a string constant (``getattr`` and the benchmark's
    tracer find functions by string), ``import`` an imported name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out["attr", n.attr] += 1
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            out["call", n.func.attr] += 1
        elif isinstance(n, ast.alias):
            out["import", n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out["str", n.value] += 1
    return out


def _library_names(path, classname) -> set[str]:
    """What the bases of a package class that come from outside the package
    define: an override of one is called by that library, as argparse calls
    ``ArgumentParser.error``."""
    cls = getattr(importlib.import_module(f"densecil.{path.stem}"), classname)
    return {name for base in cls.__mro__[1:] if not base.__module__.startswith("densecil")
            for name in vars(base)}


def _definitions(path, tree):
    """Module-level functions and classes, and the methods of those classes,
    as (qualified name, node, the kinds of reference that use it).  A plain
    method is used only by a call, since field reads share method names
    (``Sample.label``); a decorated one (a property) by any attribute read.
    Dunder methods run implicitly and overrides of a library base class's
    methods are called by the library; both are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node, ("name", "attr", "import", "str")
        if isinstance(node, ast.ClassDef):
            hooks = _library_names(path, node.name)
            for item in node.body:
                if (isinstance(item, defs) and not item.name.startswith("__")
                        and item.name not in hooks):
                    read = "attr" if item.decorator_list else "call"
                    yield f"{node.name}.{item.name}", item, (read, "str")


def test_every_definition_is_referenced_outside_itself():
    trees = {path: ast.parse(path.read_text())
             for root in (PACKAGE, PERFBENCH) for path in sorted(root.rglob("*.py"))}
    uses = sum((_names(tree) for tree in trees.values()), Counter())

    def unused(node, kinds):
        own = _names(node)
        return all(uses[k, node.name] == own[k, node.name] for k in kinds)

    dead = [f"{path.stem}.{qualname}"
            for path, tree in trees.items() if path.is_relative_to(PACKAGE)
            for qualname, node, kinds in _definitions(path, tree) if unused(node, kinds)]
    assert dead == []
