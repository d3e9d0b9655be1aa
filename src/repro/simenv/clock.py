"""Simulated monotonic clock.

All components of the reproduction share a single :class:`SimClock`.  Remote
operations advance it by their modelled latency; local operations advance it
by (much smaller) local latencies.  Benchmarks read elapsed simulated time via
:meth:`SimClock.now`.
"""

from __future__ import annotations

from typing import Callable


class SimClock:
    """A monotonically increasing simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)
        self._observers: list[Callable[[float, float], None]] = []

    def now(self) -> float:
        """Current simulated time in seconds since the simulation epoch."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (which must be non-negative).

        Returns the new time.  Registered observers are notified with the old
        and new time, which the non-blocking SCFS mode uses to complete
        background uploads whose finish time has been reached.
        """
        if seconds < 0:
            raise ValueError(f"cannot move simulated time backwards ({seconds})")
        if seconds == 0:
            return self._now
        old = self._now
        self._now = old + seconds
        for observer in list(self._observers):
            observer(old, self._now)
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance the clock to ``deadline``.

        ``deadline == now`` is a no-op; a deadline in the past raises
        :class:`ValueError` — simulated time is monotonic, and a backwards
        deadline always indicates a scheduling bug in the caller (it used to
        be silently ignored, which hid exactly those bugs).
        """
        if deadline < self._now:
            raise ValueError(
                f"cannot move simulated time backwards (now={self._now}, deadline={deadline})"
            )
        if deadline > self._now:
            self.advance(deadline - self._now)
        return self._now

    def subscribe(self, observer: Callable[[float, float], None]) -> None:
        """Register a callback invoked as ``observer(old_time, new_time)``."""
        self._observers.append(observer)
