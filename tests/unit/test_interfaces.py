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

A package re-export that nothing imports is a second way in to a name that
already has one.  The fourth check fails on every name a
``src/repro/**/__init__.py`` imports or assigns (``__all__`` aside) that no
``from <package> import <name>`` in ``src/``, ``benchmarks/``, ``examples/``
or ``tests/`` imports through that package; importing a submodule of the
package is not a re-export.

A record field that nothing reads is a fact kept for no one.  The fifth
check fails on every field of a ``@dataclass`` in ``src/repro`` (``ClassVar``
fields aside) that no code in those trees reads, by the counters' rule.
NamedTuples are not checked: callers unpack them by position.

State that nothing reads is memory held for no one.  The sixth check fails on
every attribute a class in ``src/repro`` keeps — assigns as ``self.<name>`` —
that no code in those trees reads, by the same rule, where a load that only
grows the attribute is not a read: the receiver of an ``append``, ``add``,
``extend``, ``update``, ``setdefault`` or ``insert`` call, or the container of
an item assignment (an ``|=`` stores, it does not load).
"""

from __future__ import annotations

import abc
import ast
import functools
import importlib
import inspect
import pkgutil
import re
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


@functools.cache
def _parsed(tree_root: str) -> dict[Path, ast.AST]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted((ROOT / tree_root).rglob("*.py"))}


def _trees(*tree_roots: str) -> dict[Path, ast.AST]:
    """The parsed ``*.py`` files under ``tree_roots``, each tree parsed once per test run."""
    return {path: tree for tree_root in tree_roots for path, tree in _parsed(tree_root).items()}


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
    trees = _trees(*CALLER_TREES)
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
    trees = _trees(*CALLER_TREES)
    counters = {name: path for path, tree in trees.items()
                if path.is_relative_to(ROOT / "src" / "repro")
                for name in _counter_updates(tree)}
    assert len(counters) > 20
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = sorted(f"{path.relative_to(ROOT)}: {name}" for name, path in counters.items()
                    if name not in read)
    assert not unread, "counters that only tests read:\n" + "\n".join(unread)


def _dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """``(class, field)`` of every ``@dataclass`` in ``tree``, ``ClassVar`` fields aside."""
    def named(node: ast.expr, name: str) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        node = node.value if isinstance(node, ast.Subscript) else node
        return name in (getattr(node, "id", None), getattr(node, "attr", None))

    return [(cls.name, statement.target.id) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and any(named(decorator, "dataclass") for decorator in cls.decorator_list)
            for statement in cls.body
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            and not named(statement.annotation, "ClassVar")]


def test_every_dataclass_field_in_src_is_read_outside_tests():
    trees = _trees(*CALLER_TREES)
    fields = [(path, cls, name) for path, tree in trees.items()
              if path.is_relative_to(ROOT / "src" / "repro")
              for cls, name in _dataclass_fields(tree)]
    assert len(fields) > 200
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = [f"{path.relative_to(ROOT)}: {cls}.{name}" for path, cls, name in fields
              if name not in read]
    assert not unread, "dataclass fields that only tests read:\n" + "\n".join(unread)


#: Calls that only grow the container they are called on.
GROWERS = frozenset({"append", "add", "extend", "update", "setdefault", "insert"})


def _kept(tree: ast.AST) -> list[tuple[str, str]]:
    """``(class, name)`` of every ``self.<name>`` a method of a class in ``tree`` assigns."""
    return sorted({(cls.name, target.attr) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in ast.walk(cls) if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for root in (node.targets if isinstance(node, ast.Assign) else [node.target])
                   for target in ast.walk(root)
                   if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                   and isinstance(target.value, ast.Name) and target.value.id == "self"})


def _true_reads(tree: ast.AST) -> set[str]:
    """:func:`_reads` of ``tree`` without the loads that only grow what they load."""
    growing = {id(node.func.value) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in GROWERS}
    growing |= {id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load) and id(node) not in growing}
            | {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_every_attribute_a_src_class_keeps_is_read_outside_tests():
    trees = _trees(*CALLER_TREES)
    kept = [(path, cls, name) for path, tree in trees.items()
            if path.is_relative_to(ROOT / "src" / "repro")
            for cls, name in _kept(tree)]
    assert len(kept) > 200
    read = set().union(*(_true_reads(tree) for tree in trees.values()))
    unread = [f"{path.relative_to(ROOT)}: {cls}.{name}" for path, cls, name in kept
              if name not in read]
    assert not unread, "attributes that only tests read:\n" + "\n".join(unread)


def test_every_package_reexport_is_imported_through_the_package():
    init_paths = sorted((ROOT / "src" / "repro").rglob("__init__.py"))
    modules = {_module_of(path) for path in (ROOT / "src" / "repro").rglob("*.py")}
    reexported = set()
    for path in init_paths:
        package = _module_of(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            reexported.update((package, name) for name in names
                              if name != "__all__" and f"{package}.{name}" not in modules)
    assert len(reexported) >= 10
    # Only a file whose text imports from a package can import through one.
    packages = {_module_of(path) for path in init_paths}
    through_a_package = re.compile(r"\bfrom\s+(?:%s)\s+import\b" % "|".join(
        re.escape(package) for package in sorted(packages, key=len, reverse=True)))
    imported = set()
    for tree_root in (*CALLER_TREES, "tests"):
        for path in sorted((ROOT / tree_root).rglob("*.py")):
            text = path.read_text()
            if through_a_package.search(text):
                imported.update((node.module, alias.name) for node in ast.walk(ast.parse(text))
                                if isinstance(node, ast.ImportFrom) and node.level == 0
                                for alias in node.names)
    unused = sorted(f"{package}.{name}" for package, name in reexported - imported)
    assert not unused, "re-exports nothing imports through their package:\n" + "\n".join(unused)


#: The harness packages: they drive the system through its public surface.
HARNESS = ("scenarios", "bench")


def _foreign_private_names(path: Path, tree: ast.AST, package: str) -> list[str]:
    """``_``-prefixed names ``tree`` imports from outside ``package``, or reads as an
    attribute of anything but ``self``/``cls`` or its own package's modules."""
    own = {alias.asname or alias.name for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(package)
           for alias in node.names}
    own |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not (node.module or "").startswith(package):
            found += [f"{path.name}:{node.lineno} imports {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and not (isinstance(node.value, ast.Name) and node.value.id in {"self", "cls", *own})):
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    return found


def test_the_harness_uses_public_names_only():
    # A checker or a primer that reaches into a private name breaks silently
    # when the system renames it; the layout it needs is public.
    found = [name for package in HARNESS
             for path, tree in _trees("src").items()
             if path.is_relative_to(ROOT / "src" / "repro" / package)
             for name in _foreign_private_names(path, tree, f"repro.{package}")]
    assert not found, "private names the harness reaches:\n" + "\n".join(found)
