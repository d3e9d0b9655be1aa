"""The settable configuration surface, pinned.

Every value an operator can set on an agent is a field of
:class:`~repro.core.config.SCFSConfig` or of a config dataclass nested in it.
The dotted names below are that surface: a knob added or removed shows up as a
reviewed edit of :data:`SURFACE`, the way ``BUDGETS`` pins the coordination
round trips.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.core.config import SCFSConfig

SURFACE = (
    "mode",
    "backend",
    "fault_tolerance",
    "coordination_partitions",
    "private_name_spaces",
    "encrypt_data",
    "caches.memory_bytes",
    "caches.disk_bytes",
    "caches.metadata_expiration",
    "gc.written_bytes_threshold",
    "gc.versions_to_keep",
    "gc.keep_interval_seconds",
    "gc.enabled",
    "dispatch.timeout",
    "dispatch.retries",
    "dispatch.hedge_delay",
    "dispatch.suspicion_threshold",
    "dispatch.probe_backoff",
    "dispatch.probe_backoff_factor",
    "dispatch.probe_backoff_max",
    "quorum.weights",
    "quorum.fault_budget",
    "lock_lease",
)


def _settable(config, prefix: str = "") -> list[str]:
    """Dotted names of every leaf field of ``config``, nested configs walked."""
    names = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            names.extend(_settable(value, f"{prefix}{field.name}."))
        else:
            names.append(prefix + field.name)
    return names


def test_the_settable_config_surface_is_the_pinned_one():
    assert tuple(_settable(SCFSConfig())) == SURFACE
    assert len(SURFACE) == 23


#: The knobs of the dispatch policy that only ``DispatchPolicyConfig`` may declare.
DISPATCH_KNOBS = ("timeout", "retries", "hedge_delay", "suspicion_threshold")

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def test_only_the_dispatch_policy_declares_dispatch_knobs():
    # One policy object: no mirror of the dispatch or suspicion knobs grows back.
    declared = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                        and (statement.target.id in DISPATCH_KNOBS
                             or statement.target.id.startswith("probe_backoff"))):
                    declared.append((node.name, statement.target.id))
    assert {cls for cls, _ in declared} == {"DispatchPolicyConfig"}, declared
