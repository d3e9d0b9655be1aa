"""A write-open takes its lock one way: the replicas name it from the entry.

A write-open of a shared file sends ``[LockFile, Get]`` (its look), a create
sends its ``Lock`` in the insert, and a lock held here already is a count
(``LockService.hold`` without a command).  A by-name re-read — ``[Lock, Get]``
through ``lookup_many_versioned(..., also=...)`` — would take the lock of the
file the cache names, not the one the entry names.  These checks fail when
``SCFSAgent`` passes a riding command to ``locks.hold`` anywhere but
``_create``, and when anything but ``TransactionManager`` (whose ``Unheld``
guards ride with its validation snapshot; it takes no lock) reads entries
with steps riding along.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _calls(name: str, riding) -> list[str]:
    """``Class.method`` of every call of an attribute ``name`` in ``src/repro`` that ``riding`` accepts."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.ClassDef):
                continue
            for method in scope.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += [f"{scope.name}.{method.name}" for node in ast.walk(method)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                              and node.func.attr == name and riding(node)]
    return found


def _carries(position: int, keyword: str):
    """Accept a call given an argument at ``position`` or as ``keyword``."""
    return lambda call: (len(call.args) > position
                         or any(arg.arg == keyword for arg in call.keywords))


def test_only_a_create_passes_a_riding_command_to_hold():
    riding = [caller for caller in _calls("hold", _carries(1, "send"))
              if caller.startswith("SCFSAgent.")]
    assert riding == ["SCFSAgent._create"]
    assert "SCFSAgent._lock" in _calls("hold", lambda call: True)


def test_only_the_transaction_manager_reads_entries_with_steps_riding():
    callers = _calls("lookup_many_versioned", _carries(1, "also"))
    assert callers and {caller.split(".")[0] for caller in callers} == {"TransactionManager"}
