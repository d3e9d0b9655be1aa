"""Every interface in ``repro`` is chosen between, and every public name is used.

An ``abc.ABC`` with a single concrete subclass is an indirection that nothing
chooses between: fold it into that class.  The check imports every module of
the package (its ``__main__`` entry points aside) and counts, for each class
that names ``abc.ABC`` as a base, the concrete classes of the package below it.

A public function, method or class that only tests call is surface that no
workload runs: delete it.  The second check parses ``src/``, ``benchmarks/``
and ``examples/`` and fails on every public ``def`` or ``class`` of ``repro``
that none of them names.
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


def test_every_public_name_in_src_has_a_caller_outside_tests():
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for tree_root in CALLER_TREES:
        for path in sorted((ROOT / tree_root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _used_names(path, tree)
            if tree_root == "src":
                defined.extend(
                    (str(path.relative_to(ROOT)), node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))
    assert len(defined) > 500
    uncalled = [f"{path}: {name}" for path, name in defined if name not in used]
    assert not uncalled, "public names that only tests call:\n" + "\n".join(uncalled)
