"""A name the layer benchmark's tracer still wraps: key partitioning is gone.

SCFS runs one coordination service, which holds every entry and lock.
``benchmarks/layers/tracer.py`` still lists ``PartitionedCoordination`` among
the coordination classes whose methods it wraps, so the name resolves to a
subclass of :class:`~repro.coordination.adapters.DepSpaceCoordination` that
nothing instantiates: its wrappers record no span, and each coordination call
is counted once, on the class that runs it.  Delete this module when the
tracer's table drops the name (ROADMAP item 1(m)).
"""

from __future__ import annotations

from typing import Any

from repro.coordination.adapters import DepSpaceCoordination

_UNUSED = type("PartitionedCoordination", (DepSpaceCoordination,), {})


def __getattr__(name: str) -> Any:
    if name == "PartitionedCoordination":
        return _UNUSED
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
