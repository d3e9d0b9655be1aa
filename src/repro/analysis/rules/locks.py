"""LCK rules: lock acquire/release pairing and sorted multi-lock acquisition.

``LCK001`` runs the try/finally-aware structured-CFG walk of
:mod:`repro.analysis.cfg` over every function that both acquires *and*
releases on some receiver (``self.locks``, ``agent.locks``, ...): if any exit
path — fall-through, ``return`` or an uncaught ``raise`` — leaves a lock
held, the acquire is flagged.  Functions that only acquire (ownership
hand-off: ``mount()`` acquires, ``unmount()`` releases) are deliberately out
of scope; a function that releases *sometimes* but not on every path is
exactly the leak this rule exists for.

``LCK002`` enforces the global acquisition order that makes the sorted-order
strict-2PL commit deadlock-free: any loop whose body acquires locks must
iterate a ``sorted(...)`` expression (or a name assigned from one).

The lock-set calls count like their one-lock forms: ``acquire_set(locks)``
acquires (and ``LCK002`` wants ``locks`` sorted; a literal of at most one
lock is in order),
``release_set(locks)`` releases.  So do the riding forms, whose second
argument is the metadata command the ``Lock`` steps travel in:
``acquire(meta, send)`` and ``acquire_set(locks, send)`` acquire.
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import LockFlow
from repro.analysis.core import ModuleContext
from repro.analysis.findings import Finding

#: Method names treated as lock operations (on any receiver).
_ACQUIRE_SET = "acquire_set"
_ACQUIRE, _RELEASE, _RELEASE_ALL = ("acquire", _ACQUIRE_SET), ("release", "release_set"), "release_all"


def _receiver_key(func: ast.Attribute) -> str:
    """Stable textual key of a call's receiver (``self.locks`` etc.)."""
    return ast.dump(func.value)


def _classify(call: ast.Call) -> tuple[str, str] | None:
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    if attr in _ACQUIRE:
        return "acquire", _receiver_key(call.func)
    if attr in _RELEASE:
        return "release", _receiver_key(call.func)
    if attr == _RELEASE_ALL:
        return "release_all", _receiver_key(call.func)
    return None


def check(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for function in ctx.functions():
        findings.extend(_check_pairing(ctx, function))
        findings.extend(_check_sorted_loops(ctx, function))
        findings.extend(_check_sorted_sets(ctx, function))
    return findings


# -------------------------------------------------------------------- LCK001


def _lock_calls(function: ast.FunctionDef | ast.AsyncFunctionDef,
                kind: str) -> dict[str, ast.Call]:
    """First ``kind`` call, in source order, per receiver key in ``function`` (nested defs skipped)."""
    first: dict[str, ast.Call] = {}
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            effect = _classify(node)
            if effect is not None and effect[0] == kind:
                first.setdefault(effect[1], node)
        stack[:0] = ast.iter_child_nodes(node)  # pre-order: a deeper call above a shallower one is first
    return first


def _check_pairing(ctx: ModuleContext,
                   function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Finding]:
    acquires = _lock_calls(function, "acquire")
    if not acquires:
        return []
    releases = _lock_calls(function, "release")
    release_alls = _lock_calls(function, "release_all")
    # Intra-function rule: only receivers the function also releases.
    tracked = {key for key in acquires if key in releases or key in release_alls}
    if not tracked:
        return []

    exits = LockFlow(_classify).function_exits(function)
    leaked: dict[str, str] = {}
    for state in exits:
        for key in state.held:
            if key in tracked:
                leaked.setdefault(key, state.kind)

    findings: list[Finding] = []
    for key, exit_kind in sorted(leaked.items()):
        call = acquires[key]
        via = "an exception path" if exit_kind == "raise" else "a return path"
        findings.append(ctx.finding(
            "LCK001", call,
            f"lock acquired here can leave `{function.name}` still held via "
            f"{via}; release on every path (canonically: try/finally)"))
    return findings


# -------------------------------------------------------------------- LCK002


def _sorted_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names assigned (only) from ``sorted(...)`` calls."""
    from_sorted: set[str] = set()
    otherwise: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_sorted_call(node.value):
                from_sorted.add(name)
            else:
                otherwise.add(name)
    return from_sorted - otherwise


def _is_sorted_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sorted")


def _is_sorted(node: ast.expr, sorted_locals: set[str]) -> bool:
    return (_is_sorted_call(node) or (isinstance(node, ast.Name) and node.id in sorted_locals)
            or (isinstance(node, ast.List) and len(node.elts) <= 1))


def _check_sorted_sets(ctx: ModuleContext,
                       function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Finding]:
    sorted_locals = _sorted_names(function)
    return [
        ctx.finding(
            "LCK002", node,
            "lock set acquired from a sequence that is not sorted(...); "
            "a global acquisition order is required to stay deadlock-free")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == _ACQUIRE_SET
        and not (node.args and _is_sorted(node.args[0], sorted_locals))
    ]


def _check_sorted_loops(ctx: ModuleContext,
                        function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Finding]:
    findings: list[Finding] = []
    sorted_locals = _sorted_names(function)
    for node in ast.walk(function):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        body_acquires = any(
            isinstance(sub, ast.Call) and _classify(sub) is not None
            and _classify(sub)[0] == "acquire"  # type: ignore[index]
            for stmt in node.body for sub in ast.walk(stmt)
        )
        if not body_acquires:
            continue
        if _is_sorted(node.iter, sorted_locals):
            continue
        findings.append(ctx.finding(
            "LCK002", node,
            "loop acquires locks but does not iterate a sorted(...) sequence; "
            "a global acquisition order is required to stay deadlock-free"))
    return findings
