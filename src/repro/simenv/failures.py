"""Failure injection for simulated cloud providers and coordination replicas.

The cloud-of-clouds backend of SCFS exists precisely because individual
providers suffer outages, data corruption and even malicious (Byzantine)
behaviour.  :class:`FailureSchedule` lets tests and benchmarks declare *when*
and *how* a given provider misbehaves, keyed on simulated time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """The ways a simulated provider can misbehave."""

    #: Requests raise :class:`~repro.common.errors.CloudUnavailableError`.
    UNAVAILABLE = "unavailable"
    #: Reads return corrupted payloads (flipped bytes); writes appear to
    #: succeed but store corrupted data.
    CORRUPTION = "corruption"
    #: Reads return stale or attacker-chosen data and metadata: the provider
    #: behaves arbitrarily (Byzantine).
    BYZANTINE = "byzantine"
    #: Writes are silently dropped (acknowledged but not stored).
    DROP_WRITES = "drop_writes"
    #: The provider answers correctly but slowly: every request's latency is
    #: multiplied by the window's ``factor`` (a gray failure / straggler).
    DEGRADED = "degraded"


@dataclass(frozen=True)
class FaultWindow:
    """A single fault active on ``[start, end)`` of simulated time.

    ``factor`` is the latency multiplier of a :attr:`FaultKind.DEGRADED`
    window (ignored by the other fault kinds).
    """

    kind: FaultKind
    start: float = 0.0
    end: float = float("inf")
    factor: float = 1.0

    def active_at(self, now: float) -> bool:
        """True if this fault window covers simulated instant ``now``."""
        return self.start <= now < self.end


@dataclass
class FailureSchedule:
    """Set of fault windows affecting one component (e.g. one cloud provider)."""

    windows: list[FaultWindow] = field(default_factory=list)

    def add(self, kind: FaultKind, start: float = 0.0, end: float = math.inf,
            factor: float = 1.0) -> None:
        """Schedule ``kind`` to be active on ``[start, end)``.

        ``factor`` sets the latency multiplier of a
        :attr:`FaultKind.DEGRADED` window; other kinds ignore it.
        """
        if kind is FaultKind.DEGRADED and factor <= 0:
            raise ValueError("a DEGRADED window needs a positive latency factor")
        self.windows.append(FaultWindow(kind, start, end, factor))

    def add_outage(self, start: float, duration: float,
                   kind: FaultKind = FaultKind.UNAVAILABLE, factor: float = 1.0) -> None:
        """Schedule a bounded outage: ``kind`` active on ``[start, start+duration)``.

        Convenience for the outage schedules swept by the quorum-latency
        benchmark: a crash outage (the default) raises on every request, a
        *hang* outage (``kind=FaultKind.DEGRADED`` with a large ``factor``)
        models a provider that stops answering within any reasonable timeout.
        """
        if duration <= 0:
            raise ValueError("an outage needs a positive duration")
        self.add(kind, start=start, end=start + duration, factor=factor)

    def clear(self) -> None:
        """Remove all scheduled faults."""
        self.windows.clear()

    def is_active(self, kind: FaultKind, now: float) -> bool:
        """True if ``kind`` is active at ``now``."""
        return any(w.kind is kind and w.active_at(now) for w in self.windows)

    def next_transition(self, now: float) -> float | None:
        """Next simulated instant after ``now`` at which the active set changes.

        Returns ``None`` when no further window starts or ends (benchmarks use
        this to pace an outage sweep without hard-coding window boundaries).
        """
        times = [
            t for w in self.windows for t in (w.start, w.end)
            if t > now and t != float("inf")
        ]
        return min(times, default=None)

    def degradation(self, now: float) -> float:
        """Combined latency multiplier of the DEGRADED windows active at ``now``.

        Returns 1.0 when none is active; overlapping windows compound.
        """
        factor = 1.0
        for window in self.windows:
            if window.kind is FaultKind.DEGRADED and window.active_at(now):
                factor *= window.factor
        return factor
