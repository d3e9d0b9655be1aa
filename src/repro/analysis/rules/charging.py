"""CHG rule: one cost-charging switch.

``CHG001`` — who waits follows one rule: a layer charges its wait (remote,
or a local cache's) unless the caller runs it under ``Simulation.background()`` (as a DepSky
quorum call runs its per-cloud requests).  A per-object ``charge_latency``
flag, set at construction or flipped and put back, is the second switch
that rule replaced, so any binding of that name is flagged: a parameter, a
keyword argument, a variable or an attribute store (``__init__`` included).
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleContext
from repro.analysis.findings import Finding

FLAG = "charge_latency"


def _binds_flag(node: ast.AST) -> bool:
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg == FLAG
    if isinstance(node, ast.Attribute):
        return node.attr == FLAG and isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Name):
        return node.id == FLAG and isinstance(node.ctx, (ast.Store, ast.Del))
    return False


def check(ctx: ModuleContext) -> list[Finding]:
    return [
        ctx.finding(
            "CHG001", node,
            "`charge_latency` binds a per-object charging flag; a layer charges "
            "unless the caller runs it under `with sim.background():`")
        for node in ast.walk(ctx.tree) if _binds_flag(node)
    ]
