"""The settable configuration surface, pinned.

Every value an operator can set on an agent is a field of
:class:`~repro.core.config.SCFSConfig` or of a config dataclass nested in it.
The dotted names below are that surface: a knob added or removed shows up as a
reviewed edit of :data:`SURFACE`, the way ``BUDGETS`` pins the coordination
round trips.
"""

from __future__ import annotations

import dataclasses

from repro.clouds.health import SuspicionPolicy
from repro.core.config import SCFSConfig

SURFACE = (
    "mode",
    "backend",
    "fault_tolerance",
    "coordination_kind",
    "coordination_partitions",
    "private_name_spaces",
    "encrypt_data",
    "caches.memory_bytes",
    "caches.disk_bytes",
    "caches.metadata_expiration",
    "gc.written_bytes_threshold",
    "gc.versions_to_keep",
    "gc.purge_deleted_files",
    "gc.keep_interval_seconds",
    "gc.enabled",
    "dispatch.timeout",
    "dispatch.retries",
    "dispatch.hedge_delay",
    "dispatch.suspicion_threshold",
    "dispatch.probe_backoff",
    "dispatch.probe_backoff_factor",
    "dispatch.probe_backoff_max",
    "dispatch.coalesce_instant",
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
    assert len(SURFACE) == 26


def test_the_suspicion_policy_holds_only_the_probe_knobs():
    # The straggler knobs are module constants of ``repro.clouds.health``.
    assert tuple(field.name for field in dataclasses.fields(SuspicionPolicy)) == (
        "threshold", "probe_backoff", "probe_backoff_factor", "probe_backoff_max")
