"""The DepSpace replica: locks live for a lease counted from their take.

DepSpace [Bessani et al., EuroSys'08] is the Byzantine fault-tolerant
coordination service of the paper's prototype, replicated over 3f+1 replicas
(:class:`~repro.coordination.replication.ReplicatedStateMachine`).  SCFS keeps
its metadata entries there and represents each lock as a *timed tuple* that
disappears once its lease elapses, so that a crashed client's locks are
released without it (§2.5.1).  The trigger the paper added to DepSpace for an
efficient ``rename`` (§3.2) is the ``Move`` step of ``entry_multi`` here.

Entries, ACLs, versions and lock sets are
:class:`~repro.coordination.entries.EntryCommands`; this class only says how
long a lock lives and how a session's locks are returned.
"""

from __future__ import annotations

from repro.coordination.entries import EntryCommands


class DepSpace(EntryCommands):
    """Deterministic DepSpace state machine: one lease per lock, no session state."""

    COMMANDS = EntryCommands.COMMANDS | {"close_session"}

    def _expire(self, now: float) -> None:
        for name in [name for name, held in self._locks.items() if now >= held.deadline]:
            del self._locks[name]

    def close_session(self, session_id: str, user: str, now: float) -> None:
        """Return every lock ``user``'s session ``session_id`` holds, in one command.

        DepSpace keeps no session: closing one is the client's last release,
        of whatever its locks are by now.
        """
        self._expire(now)
        self._locks = {name: held for name, held in self._locks.items()
                       if held.session != (user, session_id)}
