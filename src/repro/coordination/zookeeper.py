"""The ZooKeeper replica: locks live as long as the session that took them.

The SCFS prototype also runs over Apache ZooKeeper (§3.2), which replicates
with a crash-fault-tolerant protocol (``FaultModel.CRASH``, 2f+1 replicas).
A ZooKeeper lock is an *ephemeral* node: it belongs to a client session and
goes when the session expires — ``lease_seconds`` after the last command the
session sent — or is closed.  Every command is the session's heartbeat: each
``entry_multi`` the replica applies moves the session's deadline to the one
its holder carries.  The replica knows a session as the pair of its principal
and its id, so no principal can keep alive, or close, another's.

Entries, ACLs, versions and lock sets are
:class:`~repro.coordination.entries.EntryCommands`; this class only keeps the
session deadlines and says when a session, and with it every lock it holds,
is gone.
"""

from __future__ import annotations

from typing import Sequence

from repro.coordination.base import Entry, Op
from repro.coordination.entries import EntryCommands, Holder


class ZooKeeperLike(EntryCommands):
    """Deterministic ZooKeeper state machine: locks bound to session deadlines."""

    COMMANDS = EntryCommands.COMMANDS | {"close_session"}

    def __init__(self) -> None:
        super().__init__()
        #: (principal, session id) -> the instant it expires unless it sends a command first.
        self._session_expiry: dict[tuple[str, str], float] = {}

    def entry_multi(self, ops: Sequence[Op], user: str, now: float,
                    holder: Holder) -> list[Entry | None]:
        """:meth:`EntryCommands.entry_multi`, then the session lives until ``holder.deadline``.

        A session that expired before ``now`` lost its locks for good; its next
        command starts it afresh.  A refused command changes nothing.
        """
        results = super().entry_multi(ops, user, now, holder)
        self._session_expiry[user, holder.session_id] = holder.deadline
        return results

    def _expire(self, now: float) -> None:
        expired = [session for session, deadline in self._session_expiry.items()
                   if now >= deadline]
        if not expired:
            return
        for session in expired:
            del self._session_expiry[session]
        self._locks = {name: held for name, held in self._locks.items()
                       if held.session not in expired}

    def close_session(self, session_id: str, user: str, now: float) -> None:
        """End ``user``'s session ``session_id`` now, releasing every lock it holds."""
        self._session_expiry[user, session_id] = now
        self._expire(now)
