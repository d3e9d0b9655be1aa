"""DET rules: sources of run-to-run nondeterminism in sim-visible code.

Everything a simulated component observes must derive from the scenario seed:
wall-clock reads (``DET001``), ambient process-global randomness (``DET002``),
iteration order of unordered sets (``DET003``) and object-address ordering
(``DET004``) all vary between processes, so any of them feeding an event
schedule, a trace event or a stored byte silently breaks the pinned replay
fingerprints.  Simulated time comes from ``Simulation.now()``; randomness
from ``derive_rng(sim.seed, label)`` streams.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleContext
from repro.analysis.findings import Finding

#: ``time.<fn>`` calls that read the host clock.
_WALLCLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "localtime", "gmtime", "ctime",
})
#: ``datetime.<fn>`` / ``date.<fn>`` classmethods that read the host clock.
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: ``random.<fn>`` module-level draws on the shared global generator, plus the
#: entropy-backed generator class.  ``random.Random(seed)`` stays legal.
_AMBIENT_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "uniform", "triangular", "betavariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes", "seed",
    "SystemRandom",
})
#: ``uuid.<fn>`` constructors seeded from the host (uuid3/uuid5 are hashes).
_AMBIENT_UUID = frozenset({"uuid1", "uuid4"})

#: Reductions whose result does not depend on iteration order, so a
#: generator expression over a set directly inside them is legal.  ``sum``
#: is deliberately absent: float addition is order-sensitive.
_ORDER_INSENSITIVE = frozenset({"any", "all", "len", "min", "max", "set", "frozenset"})

#: Set methods returning another set (propagate set-valuedness).
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


def check(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    findings.extend(_check_ambient_calls(ctx))
    findings.extend(_check_set_iteration(ctx))
    findings.extend(_check_id_ordering(ctx))
    return findings


# ---------------------------------------------------------------- DET001/002


def _check_ambient_calls(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        verdict = _classify_call(ctx, node.func)
        if verdict is not None:
            rule, message = verdict
            findings.append(ctx.finding(rule, node, message))
    return findings


def _resolve_attribute(ctx: ModuleContext,
                       func: ast.expr) -> tuple[str, str] | None:
    """``(module, attr)`` for ``mod.attr`` / ``pkg.mod.attr`` call targets."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        module = ctx.module_aliases.get(value.id)
        if module is not None:
            return module, func.attr
        origin = ctx.from_imports.get(value.id)
        if origin is not None:  # e.g. ``from datetime import datetime``
            return f"{origin[0]}.{origin[1]}", func.attr
    elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        module = ctx.module_aliases.get(value.value.id)
        if module is not None:  # e.g. ``datetime.datetime.now``
            return f"{module}.{value.attr}", func.attr
    return None


def _classify_call(ctx: ModuleContext, func: ast.expr) -> tuple[str, str] | None:
    resolved = _resolve_attribute(ctx, func)
    if resolved is not None:
        module, attr = resolved
        if module == "time" and attr in _WALLCLOCK_TIME:
            return "DET001", (f"wall-clock read time.{attr}() in sim-visible code; "
                              "use Simulation.now()")
        if module in ("datetime.datetime", "datetime.date") \
                and attr in _WALLCLOCK_DATETIME:
            return "DET001", (f"wall-clock read {module}.{attr}() in sim-visible "
                              "code; use Simulation.now()")
        if module == "random" and attr in _AMBIENT_RANDOM:
            return "DET002", (f"ambient RNG random.{attr} in sim-visible code; "
                              "draw from a derive_rng(sim.seed, label) stream")
        if module == "os" and attr == "urandom":
            return "DET002", ("ambient entropy os.urandom in sim-visible code; "
                              "draw from a derive_rng(sim.seed, label) stream")
        if module == "uuid" and attr in _AMBIENT_UUID:
            return "DET002", (f"ambient id source uuid.{attr}() in sim-visible "
                              "code; use Simulation.fresh_id()")
        if module == "secrets":
            return "DET002", ("secrets module in sim-visible code; entropy-backed "
                              "draws are unreplayable")
    if isinstance(func, ast.Name):
        origin = ctx.from_imports.get(func.id)
        if origin is not None:
            module, attr = origin
            if module == "time" and attr in _WALLCLOCK_TIME:
                return "DET001", (f"wall-clock read {func.id}() (from time import "
                                  f"{attr}) in sim-visible code; use Simulation.now()")
            if module == "random" and attr in _AMBIENT_RANDOM:
                return "DET002", (f"ambient RNG {func.id}() (from random import "
                                  f"{attr}) in sim-visible code")
            if module == "os" and attr == "urandom":
                return "DET002", "ambient entropy urandom() in sim-visible code"
            if module == "uuid" and attr in _AMBIENT_UUID:
                return "DET002", f"ambient id source {attr}() in sim-visible code"
            if module == "secrets":
                return "DET002", "secrets draw in sim-visible code"
    return None


# -------------------------------------------------------------------- DET003


class _SetEnv:
    """Syntactic set-valuedness of local names, per function (or module) scope."""

    def __init__(self, scope: ast.AST) -> None:
        self._set_named: set[str] = set()
        self._other_named: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not scope:
                continue
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    if self._is_set_expr(value):
                        self._set_named.add(target.id)
                    else:
                        self._other_named.add(target.id)

    def is_set_valued(self, node: ast.expr) -> bool:
        return self._is_set_expr(node)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _SET_PRODUCING_METHODS \
                    and self._is_set_expr(node.func.value):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            # A name is set-valued only if every assignment to it is.
            return node.id in self._set_named and node.id not in self._other_named
        return False


def _check_set_iteration(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    _mark_reductions(ctx.tree)
    scopes: list[ast.AST] = [ctx.tree, *ctx.functions()]
    seen: set[tuple[int, int]] = set()

    for scope in scopes:
        env = _SetEnv(scope)
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not scope:
                continue  # handled as its own scope
            for iterable in _iteration_sites(node):
                anchor = (iterable.lineno, iterable.col_offset)
                if anchor in seen or not env.is_set_valued(iterable):
                    continue
                seen.add(anchor)
                findings.append(ctx.finding(
                    "DET003", iterable,
                    "iteration over an unordered set in sim-visible code; "
                    "wrap the iterable in sorted(...)"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "pop" and not node.args \
                    and env.is_set_valued(node.func.value):
                anchor = (node.lineno, node.col_offset)
                if anchor not in seen:
                    seen.add(anchor)
                    findings.append(ctx.finding(
                        "DET003",
                        node, "set.pop() removes an arbitrary element; "
                        "pop from a sorted order instead"))
    return findings


def _iteration_sites(node: ast.AST) -> list[ast.expr]:
    """Iterable expressions whose order the program observes at ``node``."""
    sites: list[ast.expr] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        sites.append(node.iter)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        if isinstance(node, (ast.SetComp, ast.GeneratorExp)) \
                and _only_feeds_order_insensitive(node):
            return []
        sites.extend(gen.iter for gen in node.generators)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("list", "tuple", "sum"):
            sites.extend(node.args[:1])
    elif isinstance(node, ast.Starred):
        sites.append(node.value)
    return sites


def _only_feeds_order_insensitive(node: ast.expr) -> bool:
    """Heuristic: genexp used as ``any(... for x in s)`` etc. is order-free.

    Without parent pointers we can't see the consumer, so this is recognized
    at the consumer instead: ``_iteration_sites`` never returns the iterables
    of a generator expression that appears as the sole argument of an
    order-insensitive reduction.  The marker below is attached by
    ``_mark_reduction_args`` before the walk.
    """
    return getattr(node, "_repro_order_free", False)


def _mark_reductions(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_INSENSITIVE and len(node.args) == 1 \
                and isinstance(node.args[0], (ast.GeneratorExp, ast.SetComp)):
            node.args[0]._repro_order_free = True  # type: ignore[attr-defined]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sorted" and node.args \
                and isinstance(node.args[0], (ast.GeneratorExp, ast.SetComp)):
            # ``sorted(x for x in s)`` re-orders anyway.
            node.args[0]._repro_order_free = True  # type: ignore[attr-defined]


# -------------------------------------------------------------------- DET004


_SORTERS = frozenset({"sorted", "min", "max", "sort"})


def _contains_id_call(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True  # ``key=id``
    return any(
        isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(node)
    )


def _check_id_ordering(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else (
                node.func.attr if isinstance(node.func, ast.Attribute) else None)
            if name in _SORTERS:
                for keyword in node.keywords:
                    if keyword.arg == "key" and _contains_id_call(keyword.value):
                        findings.append(ctx.finding(
                            "DET004", node,
                            f"{name}() keyed on id(): object addresses vary "
                            "between runs; key on a stable attribute"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                   for op in node.ops) \
                    and any(_contains_id_call(operand) for operand in operands):
                findings.append(ctx.finding(
                    "DET004", node,
                    "ordering comparison on id(): object addresses vary "
                    "between runs"))
    return findings
