"""No client walks a directory tree: the replicas move and remove subtrees.

A directory's ``rename``, ``rmdir`` and ``rename_tree`` are one replicated
command each (``coordination/entries.py``): the replica finds what lies below
a directory through its sorted key index, whoever may read it.  A client that
walked the tree instead would see only what its caller may read, and would
send one command per level.  ``MetadataService.list_children`` is the one way
a client lists a directory, so these checks fail when anything but
``SCFSAgent.readdir`` calls it, and when ``TransactionManager`` names it at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _callers(name: str) -> list[str]:
    """``Class.method`` (or ``module:function``) of every call of an attribute ``name`` in ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.ClassDef):
                continue
            for method in scope.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                found += [f"{scope.name}.{method.name}" for node in ast.walk(method)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == name]
        found += [f"{path.relative_to(SRC)}:{function.name}" for function in tree.body
                  if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(function)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name]
    return found


def test_list_children_has_one_caller_and_it_is_readdir():
    assert _callers("list_children") == ["SCFSAgent.readdir"]


def test_the_transaction_manager_names_no_listing():
    tree = ast.parse((SRC / "transactions" / "manager.py").read_text())
    [manager] = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "TransactionManager"]
    named = {node.attr for node in ast.walk(manager) if isinstance(node, ast.Attribute)}
    named |= {node.value for node in ast.walk(manager)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not {"list_children", "list_entries", "list_prefix"} & named
