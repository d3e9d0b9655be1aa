"""The settable configuration surface, pinned.

Every value an operator can set on an agent is a field of
:class:`~repro.core.config.SCFSConfig` or of the one config dataclass nested in
it, the dispatch policy.
The dotted names below are that surface: a knob added or removed shows up as a
reviewed edit of :data:`SURFACE`, the way ``BUDGETS`` pins the coordination
round trips.  A scenario spec carries its agents' config and mirrors none of it.
"""

from __future__ import annotations

import ast
import dataclasses
import typing
from pathlib import Path

from repro.core.config import DispatchPolicyConfig, SCFSConfig
from repro.scenarios.spec import ScenarioSpec

SURFACE = (
    "mode",
    "backend",
    "private_name_spaces",
    "encrypt_data",
    "metadata_expiration",
    "gc_threshold",
    "dispatch.timeout",
    "dispatch.retries",
    "dispatch.hedge_delay",
    "dispatch.suspicion_threshold",
    "dispatch.probe_backoff",
    "dispatch.probe_backoff_factor",
    "dispatch.probe_backoff_max",
    "quorum_weights",
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
    assert len(SURFACE) == 15


def test_the_dispatch_policy_is_the_only_nested_config():
    # The GC policy and the quorum block were folded in: no block grows back.
    hints = typing.get_type_hints(SCFSConfig)
    assert {name: kind for name, kind in hints.items() if dataclasses.is_dataclass(kind)} == {
        "dispatch": DispatchPolicyConfig}


def test_no_scenario_field_repeats_a_config_setting():
    # A scenario carries the config its agents mount: a second copy of a
    # setting would have to be mapped back, and could drift from it.
    settings = {name.rpartition(".")[2] for name in SURFACE}
    settings |= {field.name for field in dataclasses.fields(SCFSConfig)}
    fields = {field.name: str(field.type) for field in dataclasses.fields(ScenarioSpec)}
    assert not settings & set(fields), sorted(settings & set(fields))
    assert [name for name, kind in fields.items() if "Config" in kind] == ["config"]
    assert len(fields) == 8


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
