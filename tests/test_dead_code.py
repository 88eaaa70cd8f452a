"""Every function, class and module-level name of the package is used by
the package or the benchmark, and every default it declares is one that
some call relies on.

A definition named nowhere else in ``src/`` or ``perfbench/`` is dead code,
and so is a module-level name that no code there reads outside its own
assignment.  Tests alone do not keep a definition alive, and neither does a
gradcheck op case or an ``__all__`` entry: ``gradcheck.op_cases`` checks an
op and ``__all__`` lists it, neither makes the op needed.

A default of a function, a method or a dataclass field is dead when some
call in ``src/`` or ``perfbench/`` names its function and every such call
passes that parameter, by position or by keyword.  Calls are matched by
name; a call of a class maps to the class's ``__init__``, or to its fields
if it is a dataclass.  A call with a ``*`` or ``**`` splat may pass
anything, so it counts as relying on every default.
"""

import ast
import importlib
import textwrap
from collections import Counter
from pathlib import Path

import densecil

PACKAGE = Path(densecil.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _trees(package: Path = PACKAGE, others=(PERFBENCH,)) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text())
            for root in (package, *others) for path in sorted(root.rglob("*.py"))}


def _names(node) -> Counter:
    """How ``node`` refers to each name, as (kind, name) counts.  Kinds:
    ``name`` an identifier read, ``attr`` an attribute read, ``call`` a called
    attribute, ``str`` a string constant (``getattr`` and the benchmark's
    tracer find functions by string), ``import`` an imported name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
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


def _definitions(path, tree, hooks):
    """Module-level functions, classes and assigned names, and the methods
    of those classes, as (qualified name, node, the kinds of reference that
    use it).  A plain method is used only by a call, since field reads share
    method names (``Sample.label``); a decorated one (a property) by any
    attribute read.  Dunder methods and names run or are read implicitly,
    and overrides of a library base class's methods (``hooks(path, class
    name)``) are called by the library; all are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    every = ("name", "attr", "import", "str")
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node, every
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node, every
        if isinstance(node, ast.ClassDef):
            library = hooks(path, node.name)
            for item in node.body:
                if (isinstance(item, defs) and not item.name.startswith("__")
                        and item.name not in library):
                    read = "attr" if item.decorator_list else "call"
                    yield f"{node.name}.{item.name}", item, (read, "str")


def _listings(path, tree):
    """The statements of a module that name definitions without using them:
    its ``__all__``, and the gradcheck module's ``op_cases``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                or path.name == "gradcheck.py" and isinstance(node, ast.FunctionDef)
                and node.name == "op_cases"):
            yield node


def dead_definitions(trees, package: Path = PACKAGE, hooks=_library_names) -> list[str]:
    """The package definitions that nothing but themselves, an ``__all__``
    and gradcheck's op cases names."""
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    for path, tree in trees.items():
        for node in _listings(path, tree):
            uses -= _names(node)

    def unused(qualname, node, kinds):
        name, own = qualname.rsplit(".", 1)[-1], _names(node)
        return all(uses[k, name] == own[k, name] for k in kinds)

    return [f"{path.stem}.{qualname}"
            for path, tree in trees.items() if path.is_relative_to(package)
            for qualname, node, kinds in _definitions(path, tree, hooks)
            if unused(qualname, node, kinds)]


# ------------------------------------------------------------------ defaults

def _is_dataclass(node: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def _field_default(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field gives a default."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _params(fn: ast.FunctionDef, bound: bool):
    """(name, position or None if keyword-only, has default) of each
    parameter of ``fn``; a bound method's first parameter is left out."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    skip = 1 if bound and positional else 0
    out = [(p.arg, i - skip, i >= first) for i, p in enumerate(positional) if i >= skip]
    return out + [(p.arg, None, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]


def _callables(tree):
    """Every named callable of a module: its qualified name, the name
    callers use, and its parameters.  A class is called through its
    ``__init__``, or through its fields if it is a dataclass; a method
    through an attribute, so its ``self`` is bound."""

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                if cls is not None and node.name == "__init__":
                    yield prefix[:-1], cls, _params(node, True)
                else:
                    bound = cls is not None and not any(
                        getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                    yield prefix + node.name, node.name, _params(node, bound)
                yield from visit(node.body, f"{prefix}{node.name}.", None)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    stmts = [s for s in node.body
                             if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    yield prefix + node.name, node.name, [
                        (s.target.id, i, _field_default(s)) for i, s in enumerate(stmts)]
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)

    yield from visit(tree.body, "", None)


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call of the given modules, by the name it calls."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                if name:
                    out.setdefault(name, []).append(n)
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return False
    return (position is not None and position < len(call.args)
            or any(k.arg == name for k in call.keywords))


def declared_defaults(trees, package: Path = PACKAGE) -> list[tuple[str, str]]:
    """(callable, parameter) of every default the package declares."""
    return [(f"{path.stem}.{qualname}", name)
            for path, tree in trees.items() if path.is_relative_to(package)
            for qualname, _, params in _callables(tree)
            for name, _, has_default in params if has_default]


def dead_defaults(trees, package: Path = PACKAGE) -> list[str]:
    """The package defaults that every call of their callable passes."""
    calls = _calls(trees)
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(package):
            continue
        for qualname, called, params in _callables(tree):
            sites = calls.get(called, [])
            for name, position, has_default in params:
                if has_default and sites and all(_passes(c, name, position) for c in sites):
                    dead.append(f"{path.stem}.{qualname}({name})")
    return dead


# ------------------------------------------------------------------ tests

def test_every_definition_is_referenced_outside_itself():
    assert dead_definitions(_trees()) == []


def test_every_default_is_relied_on_by_some_call():
    assert dead_defaults(_trees()) == []


def _planted(tmp_path, package: dict[str, str], others: dict[str, str]):
    for root, files in (("pkg", package), ("bench", others)):
        (tmp_path / root).mkdir()
        for name, text in files.items():
            (tmp_path / root / name).write_text(textwrap.dedent(text))
    return _trees(tmp_path / "pkg", (tmp_path / "bench",)), tmp_path / "pkg"


def test_an_op_that_only_an_op_case_calls_is_dead(tmp_path):
    trees, package = _planted(tmp_path, {
        "tensor.py": """
            __all__ = ["used", "checked"]

            def used(x):
                return x

            def checked(x):
                return x
            """,
        "gradcheck.py": """
            from . import tensor as T

            def op_cases():
                return {"used": lambda t: T.used(t), "checked": lambda t: T.checked(t)}

            def run_all():
                return [case(1) for case in op_cases().values()]
            """,
    }, {"bench.py": """
            from pkg import gradcheck, tensor
            gradcheck.run_all()
            tensor.used(1)
            """})
    assert dead_definitions(trees, package, hooks=lambda path, name: set()) == [
        "tensor.checked"]


def test_a_module_name_that_nothing_reads_is_dead(tmp_path):
    trees, package = _planted(tmp_path, {
        "mod.py": """
            NAMES = ("a", "b")
            ALIAS = NAMES
            LIMIT: int = 3
            _CACHE = {}
            __version__ = "0"

            def size():
                _CACHE.clear()
                return LIMIT
            """,
        "other.py": """
            from . import mod
            COPY = mod.NAMES
            """,
    }, {"bench.py": """
            from pkg import mod
            mod.size()
            """})
    assert dead_definitions(trees, package, hooks=lambda path, name: set()) == [
        "mod.ALIAS", "other.COPY"]


def test_a_default_that_every_call_passes_is_dead(tmp_path):
    trees, package = _planted(tmp_path, {"mod.py": """
        from dataclasses import dataclass, field

        def f(a, b=1, *, c=2, d=3):
            return a

        def g(a=0):
            return a

        def h(a=0):
            return a

        @dataclass
        class Config:
            size: int
            rate: float = 0.5
            tags: list = field(default_factory=list)

        class Opt:
            def __init__(self, params, lr=0.1, momentum=0.0):
                self.params = params

            def step(self, scale=1.0):
                return scale

        def main(args, kwargs):
            f(1, 2, c=3)
            f(0, c=1, b=5)
            g(*args)
            h(**kwargs)
            Config(1, 0.25)
            Config(size=2, rate=0.5)
            opt = Opt([], 0.2, momentum=0.9)
            return opt.step(2.0)

        def unused(a=1):
            return a
        """}, {"bench.py": "from pkg import mod\n"})
    assert dead_defaults(trees, package) == [
        "mod.f(b)", "mod.f(c)", "mod.Config(rate)", "mod.Opt(lr)", "mod.Opt(momentum)",
        "mod.Opt.step(scale)"]
    assert len(declared_defaults(trees, package)) == 11
