"""The :class:`Simulation` container shared by every simulated component.

A ``Simulation`` owns the simulated clock, a seeded random generator and a
queue of *deferred tasks*.  Deferred tasks model the background activity that
the real SCFS performs in separate threads: background uploads in the
non-blocking mode and the garbage-collector thread.  A task scheduled for
simulated time *t* runs as soon as the clock reaches or passes *t* (either via
an explicit :meth:`Simulation.run_until` or as a side effect of another
operation advancing the clock).
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


def derive_rng(seed: int, label: str) -> random.Random:
    """Derive an independent, reproducible RNG stream from ``(seed, label)``.

    Forked streams decouple unrelated consumers of randomness: workload
    generation, fault-schedule generation and latency jitter each get their own
    stream, so adding a draw to one never perturbs the others — the property
    the scenario engine's seed-replay guarantee rests on.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(order=True)
class _ScheduledTask:
    when: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class TaskHandle:
    """Handle returned by :meth:`Simulation.schedule`; allows cancellation."""

    def __init__(self, task: _ScheduledTask):
        self._task = task

    @property
    def when(self) -> float:
        """Simulated time at which the task is due."""
        return self._task.when

    @property
    def name(self) -> str:
        """Human-readable task name (used in debugging and tests)."""
        return self._task.name

    def cancel(self) -> None:
        """Prevent the task from running if it has not run yet."""
        self._task.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._task.cancelled


class Simulation:
    """Deterministic simulation environment; the one holder of the simulated clock.

    Parameters
    ----------
    seed:
        Seed for the random generator used for latency jitter and workload
        generation.  Two simulations created with the same seed and subjected
        to the same operations produce identical traces.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        self._queue: list[_ScheduledTask] = []
        self._seq = itertools.count()
        self._id_counter = itertools.count()
        self._draining = False
        self._background = 0

    # -- determinism helpers -------------------------------------------------

    def fresh_id(self, prefix: str = "obj") -> str:
        """Return an identifier unique within this simulation.

        The counter restarts with every :class:`Simulation`, so two same-seed
        runs in one process mint identical ids — a prerequisite for
        byte-identical scenario traces (file ids end up in cloud keys and trace
        events).
        """
        return f"{prefix}-{next(self._id_counter):08d}"

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in seconds since the simulation epoch."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance simulated time by ``seconds`` (non-negative), running any
        deferred task that becomes due; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot move simulated time backwards ({seconds})")
        if seconds == 0:
            return self._now
        self._now = self._now + seconds
        self._run_due_tasks()
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance simulated time to ``deadline`` (``now`` is a no-op); a past
        deadline raises :class:`ValueError`, as it means a scheduling bug."""
        if deadline < self._now:
            raise ValueError(
                f"cannot move simulated time backwards (now={self._now}, deadline={deadline})"
            )
        if deadline > self._now:
            self.advance(deadline - self._now)
        return self._now

    # -- background work ---------------------------------------------------

    @property
    def in_background(self) -> bool:
        """True inside a :meth:`background` block (see there)."""
        return self._background > 0

    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Run the enclosed calls as background work.

        Who waits follows one rule: a cloud store, a DepSky client and a
        replicated coordination command charge their remote wait unless
        :attr:`in_background`.  The agent's close-time work, garbage collection
        and heartbeats (separate threads in the real agent) run in here, and
        so do a DepSky quorum call's per-cloud requests: the call waits for
        them in parallel and charges that one wait itself.  The block changes
        no RNG draw: a store and a DepSky client sample every request's latency
        and discard it, a coordination command does not sample at all.
        Re-entrant.  A deferred task that comes due inside the block is
        somebody else's work and runs in the foreground.
        """
        self._background += 1
        try:
            yield
        finally:
            self._background -= 1

    # -- deferred tasks -----------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], Any], name: str = "") -> TaskHandle:
        """Schedule ``callback`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule a task in the past")
        task = _ScheduledTask(self._now + delay, next(self._seq), callback, name)
        heapq.heappush(self._queue, task)
        return TaskHandle(task)

    def run_until(self, deadline: float) -> None:
        """Advance the clock to ``deadline``, executing all tasks due on the way.

        The clock stops at each pending task's own deadline in turn (so every
        task observes *its* scheduled time, not ``deadline``), then settles at
        ``deadline``.  A deadline in the past raises :class:`ValueError` (it
        used to be silently skipped, together with any task due before it).
        """
        if deadline < self._now:
            raise ValueError(
                f"cannot run_until a past deadline (now={self._now}, "
                f"deadline={deadline})"
            )
        guard = 0
        while True:
            self._run_due_tasks()
            head = self._next_live_task()
            if head is None or head.when > deadline:
                break
            self.advance_to(head.when)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - requires a task storm
                raise RuntimeError("run_until did not converge (task storm?)")
        self.advance_to(deadline)

    def step(self) -> bool:
        """Advance to the next pending event and run everything due there.

        The heap-scheduler primitive: pops the earliest live task (deterministic
        ``(when, seq)`` order), advances the clock *exactly* to its deadline and
        executes every task due at that instant — tasks observe their own
        scheduled time.  Returns ``False`` when no live task remains.
        """
        self._run_due_tasks()
        head = self._next_live_task()
        if head is None:
            return False
        self.advance_to(head.when)
        self._run_due_tasks()
        return True

    def run_all(self, max_events: int | None = None) -> int:
        """Step through pending events until the queue is empty.

        Unlike :meth:`drain` — which jumps the clock to the *last* deadline in
        one coarse advance — ``run_all`` visits each event time in order.  A
        task that moves the clock runs to its end first: the tasks it passes
        run late, at the advanced time.  Returns the number of steps taken;
        ``max_events`` bounds runaway loops.
        """
        steps = 0
        while self.step():
            steps += 1
            if max_events is not None and steps >= max_events:
                raise RuntimeError(
                    f"run_all exceeded {max_events} events (task storm?)"
                )
        return steps

    def _next_live_task(self) -> _ScheduledTask | None:
        """Peek the earliest non-cancelled task (discarding cancelled heads)."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def drain(self, extra: float = 0.0) -> None:
        """Run every pending task by advancing time past the last deadline.

        ``extra`` additional seconds are added at the end, which benchmarks use
        to model an idle tail (e.g. waiting for background uploads to settle).
        """
        guard = 0
        while True:
            self._run_due_tasks()
            pending = [t for t in self._queue if not t.cancelled]
            if not pending:
                break
            last = max(t.when for t in pending)
            self.advance_to(last)
            guard += 1
            if guard > 10_000:
                raise RuntimeError("simulation drain did not converge (task storm?)")
        if extra:
            self.advance(extra)

    def _run_due_tasks(self) -> None:
        """Run tasks whose deadline is not in the future (without moving the clock)."""
        if self._draining:
            return
        self._draining = True
        # A due task is not part of whatever background block made it due.
        background, self._background = self._background, 0
        try:
            while self._queue and self._queue[0].when <= self._now:
                task = heapq.heappop(self._queue)
                if not task.cancelled:
                    task.callback()
        finally:
            self._background = background
            self._draining = False
