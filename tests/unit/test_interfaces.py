"""Every interface in ``repro`` is chosen between, and every public name is used.

An ``abc.ABC`` with a single concrete subclass is an indirection that nothing
chooses between: fold it into that class.  The check imports every module of
the package (its ``__main__`` entry points aside) and counts, for each class
that names ``abc.ABC`` as a base, the concrete classes of the package below it.

A public function, method or class that only tests call is surface that no
workload runs: delete it.  The second check parses ``src/``, ``benchmarks/``
and ``examples/`` and fails on every public ``def`` or ``class`` of ``repro``
that none of them names; a module-level function counts only when some code
imports it from its own module (or from the package that re-exports it),
names it as an attribute of that module, or uses it inside that module.

A counter that nothing reads is a fact counted for no one.  The third check
finds every ``+=``/``-=`` of ``self.<name>`` or ``self.<part>.<name>`` in
``src/repro`` and fails on each ``<name>`` that no code in those trees reads:
as an attribute load, or as a string constant (the layer ledger reads
counters with ``getattr`` from tuples of names).
"""

from __future__ import annotations

import abc
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "benchmarks", "examples")


def _package_classes() -> list[type]:
    classes = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue
        module = importlib.import_module(info.name)
        classes.extend(value for value in vars(module).values()
                       if inspect.isclass(value) and value.__module__ == module.__name__)
    return classes


CLASSES = _package_classes()
INTERFACES = [cls for cls in CLASSES if abc.ABC in cls.__bases__]


@pytest.mark.parametrize("interface", INTERFACES, ids=lambda cls: cls.__qualname__)
def test_an_interface_has_at_least_two_implementations(interface):
    found = [cls.__qualname__ for cls in CLASSES
             if issubclass(cls, interface) and not inspect.isabstract(cls)]
    assert len(found) >= 2, f"{interface.__qualname__} is only implemented by {found}"


def _used_names(path: Path, tree: ast.AST) -> set[str]:
    """Identifiers ``tree`` uses, leaving out ``__all__`` and package re-exports."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            skipped.update(id(child) for child in ast.walk(node.value))
        elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
            skipped.add(id(node))
    used: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
    return used


def _module_of(path: Path) -> str:
    """Dotted name of the ``src/`` module at ``path`` (a package for ``__init__.py``)."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reached(trees: dict[Path, ast.AST]) -> set[tuple[str, str]]:
    """``(module, name)`` pairs that code reaches through ``module`` itself.

    An import of ``name`` from the module (or from a package whose
    ``__init__`` re-exports it from there), ``module.name`` on a name bound to
    the module, or ``name`` used inside the module.
    """
    modules = {_module_of(path) for path in trees if path.is_relative_to(ROOT / "src")}
    reexports = {(_module_of(path), alias.name): node.module
                 for path, tree in trees.items() if path.name == "__init__.py"
                 for node in tree.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    reached: set[tuple[str, str]] = set()
    for path, tree in trees.items():
        bound: dict[str, str] = {}  # local name -> the repro module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and path.name != "__init__.py":
                for alias in node.names:
                    if f"{node.module}.{alias.name}" in modules:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        reached.add((reexports.get((node.module, alias.name), node.module),
                                     alias.name))
            elif isinstance(node, ast.Import):
                bound.update((alias.asname, alias.name) for alias in node.names
                             if alias.asname and alias.name in modules)
        reached.update((bound[node.value.id], node.attr) for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in bound)
        if path.is_relative_to(ROOT / "src"):
            module = _module_of(path)
            reached.update((module, node.id) for node in ast.walk(tree) if isinstance(node, ast.Name))
    return reached


def test_every_public_name_in_src_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for tree_root in CALLER_TREES for path in sorted((ROOT / tree_root).rglob("*.py"))}
    used: set[str] = set()
    for path, tree in trees.items():
        used |= _used_names(path, tree)
    sources = {path: tree for path, tree in trees.items() if path.is_relative_to(ROOT / "src")}
    defined = [(str(path.relative_to(ROOT)), node.name) for path, tree in sources.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert len(defined) > 500
    uncalled = [f"{path}: {name}" for path, name in defined if name not in used]
    # A module-level function is called only through its own module: a method
    # of the same name elsewhere (``sim.fresh_id``) does not count.
    reached = _reached(trees)
    uncalled += [f"{path.relative_to(ROOT)}: {node.name}" for path, tree in sources.items()
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_") and node.name in used
                 and (_module_of(path), node.name) not in reached]
    assert not uncalled, "public names that only tests call:\n" + "\n".join(uncalled)


def _counter_updates(tree: ast.AST) -> set[str]:
    """Names ``tree`` updates as ``self.<name> op= ...`` or ``self.<part>.<name> op= ...``."""
    counters = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Attribute)):
            continue
        owner = node.target.value
        if isinstance(owner, ast.Attribute):
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id == "self":
            counters.add(node.target.attr)
    return counters


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names ``tree`` loads, and its string constants."""
    return ({node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            | {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_every_counter_in_src_is_read_outside_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for tree_root in CALLER_TREES for path in sorted((ROOT / tree_root).rglob("*.py"))}
    counters = {name: path for path, tree in trees.items()
                if path.is_relative_to(ROOT / "src" / "repro")
                for name in _counter_updates(tree)}
    assert len(counters) > 20
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = sorted(f"{path.relative_to(ROOT)}: {name}" for name, path in counters.items()
                    if name not in read)
    assert not unread, "counters that only tests read:\n" + "\n".join(unread)
