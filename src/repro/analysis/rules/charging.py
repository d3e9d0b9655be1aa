"""CHG rule: one cost-charging switch.

``CHG001`` — ``charge_latency`` says *who* accounts for a resource's waits
(a cloud-of-clouds store leaves it to DepSky, a checker's DepSky client to
nobody) and is fixed when the object is built.  Whether the *caller* is
foreground or background work is a property of the call, owned by
``Simulation.background()``; flipping another object's ``charge_latency`` and
putting it back is the per-layer toggle that switch replaced, so any store to
an attribute of that name outside ``__init__`` is flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleContext
from repro.analysis.findings import Finding


def check(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "charge_latency"
              and isinstance(node.ctx, (ast.Store, ast.Del)) and function != "__init__"):
            findings.append(ctx.finding(
                "CHG001", node,
                "`charge_latency` is assigned outside __init__; run background "
                "work under `with sim.background():` instead of toggling the flag"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ctx.tree, None)
    return findings
