"""Lock recipes built on top of a coordination service.

SCFS's lock service "is basically a wrapper for implementing coordination
recipes for locking using the coordination service of choice" (§2.5.1).  The
only strict requirement is that lock entries are *ephemeral*: a crashed client
must not hold its locks forever.  Both concrete services satisfy this —
DepSpace through timed tuples, ZooKeeper through ephemeral znodes — so the
recipe here only adds retry/timeout policy and bookkeeping on top of
:meth:`~repro.coordination.base.CoordinationService.try_lock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.errors import LockHeldError, NotLockOwnerError
from repro.coordination.base import CoordinationService, Lock, Op, Session, Unlock
from repro.simenv.environment import Simulation

#: The command lock steps ride in: called once with the steps (possibly none),
#: it sends them inside its own ``multi`` and raises iff that command was refused.
Carrier = Callable[[Sequence[Op]], object]


@dataclass
class LockManager:
    """Acquire/release named locks for one client session.

    Parameters
    ----------
    sim:
        Simulation environment (used to wait between retries).
    service:
        The coordination service holding the ephemeral lock entries.
    session:
        The client session on whose behalf locks are taken.
    retry_interval:
        Simulated seconds to wait between acquisition attempts.
    max_retries:
        Number of retries after the first failed attempt before giving up.
    """

    sim: Simulation
    service: CoordinationService
    session: Session
    retry_interval: float = 0.2
    max_retries: int = 0
    #: Lock name -> number of outstanding acquisitions by this session.  The
    #: count makes re-entrant acquisition symmetric with release: the lock is
    #: only returned to the coordination service when every acquisition has
    #: been released.  (A flat set would release on the *first* release, which
    #: let another client grab the lock while e.g. a second open of the same
    #: file — or a pending non-blocking commit — was still writing.)
    held: dict[str, int] = field(default_factory=dict)

    def try_acquire(self, name: str) -> bool:
        """Single non-blocking acquisition attempt (re-entrant for this session)."""
        try:
            self.acquire_set([name])
        except LockHeldError:
            return False
        return True

    def acquire(self, name: str) -> None:
        """Acquire ``name``, retrying up to ``max_retries`` times.

        Raises :class:`LockHeldError` if the lock stays unavailable, which the
        file system surfaces as an open-for-writing error (§2.5.2).
        """
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            if self.try_acquire(name):
                return
            if attempt != attempts - 1:
                self.sim.advance(self.retry_interval)
        raise LockHeldError(f"lock {name!r} is held by another client")

    def release(self, name: str) -> bool:
        """Release one acquisition of ``name``.

        Returns True when this was the last outstanding acquisition (the lock
        was actually returned to the coordination service), False when the
        lock stays held by a remaining re-entrant acquisition.
        """
        if name not in self.held:
            raise NotLockOwnerError(f"this session does not hold lock {name!r}")
        return bool(self.release_set([name]))

    def acquire_set(self, names: Sequence[str], send: Carrier | None = None) -> list[str]:
        """Acquire every name or none, in one coordination command.

        Names this session already holds gain a re-entrant count without a
        step; the rest are taken together.  The command is ``send``'s when
        given — the lock rides in the command it guards: ``send`` is called
        once with the ``Lock`` steps to put in its own ``multi`` (none when
        every name is re-entrant) and must raise iff that command was refused.
        Returns the names actually taken from the service.  Counts settle
        only after the command succeeded: a refusal
        (:class:`LockHeldError`, its ``lock`` naming the contended one, or
        whatever ``send`` raises) leaves no name taken and no count changed.
        """
        wanted = list(dict.fromkeys(names))
        fresh = [name for name in wanted if name not in self.held]
        steps = [Lock(name) for name in fresh]
        if send is not None:
            send(steps)
        elif steps:
            self.service.multi(steps, self.session)
        for name in wanted:
            self.held[name] = self.held.get(name, 0) + 1
        return fresh

    def release_set(self, names: Sequence[str]) -> list[str]:
        """Release one acquisition of each held name in ``names``, in one command.

        Returns the names whose last acquisition this was: those are handed
        back to the coordination service together.  When that command fails
        every count stays as it was.
        """
        mine = [name for name in dict.fromkeys(names) if name in self.held]
        returned = [name for name in mine if self.held[name] == 1]
        if returned:
            self.service.multi([Unlock(name) for name in returned], self.session)
        for name in mine:
            self.held[name] -= 1
            if self.held[name] == 0:
                del self.held[name]
        return returned

    def release_all(self) -> None:
        """Release every lock held by this manager (used on unmount/crash cleanup).

        Collapses any re-entrant counts: unmount means the client is done with
        all of its files, so each lock is returned in one step.
        """
        for name in list(self.held):
            self.held[name] = 1
            self.release(name)

    def holds(self, name: str) -> bool:
        """True if this manager currently believes it holds ``name``."""
        return name in self.held

    def still_held(self, name: str) -> bool:
        """True when the coordination service still shows this session as holder.

        Both concrete services time lock leases from the *acquisition*: a
        holder that stays busy past ``lease_seconds`` loses the lock silently
        while :meth:`holds` keeps returning True.  Commit paths re-check here
        before irreversible steps, turning a stolen lock into a clean abort
        instead of a version fork.
        """
        if name not in self.held:
            return False
        return self.service.lock_holder(name) == self.session.session_id

    def hold_count(self, name: str) -> int:
        """Number of outstanding acquisitions of ``name`` by this session."""
        return self.held.get(name, 0)
