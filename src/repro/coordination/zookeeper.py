"""The ZooKeeper replica: locks live as long as the session that took them.

The SCFS prototype also runs over Apache ZooKeeper (§3.2), which replicates
with a crash-fault-tolerant protocol (``FaultModel.CRASH``, 2f+1 replicas).
A ZooKeeper lock is an *ephemeral* node: it belongs to a client session and
goes when the session expires — ``lease_seconds`` after the session's last
heartbeat — or is closed.  The replica knows a session as the pair of its
principal and its id, so no principal can keep alive, or close, another's.

Entries, ACLs, versions and lock sets are
:class:`~repro.coordination.entries.EntryCommands`; this class only keeps the
session deadlines and says when a session, and with it every lock it holds,
is gone.
"""

from __future__ import annotations

from repro.coordination.entries import EntryCommands, Holder


class ZooKeeperLike(EntryCommands):
    """Deterministic ZooKeeper state machine: locks bound to session deadlines."""

    COMMANDS = EntryCommands.COMMANDS | {"close_session", "register_session"}

    def __init__(self) -> None:
        super().__init__()
        #: (principal, session id) -> the instant it expires unless a heartbeat comes first.
        self._session_expiry: dict[tuple[str, str], float] = {}

    def _take(self, name: str, holder: Holder, now: float) -> None:
        # The take is also the session's heartbeat: the replica learns of a
        # session with its first lock.
        self._session_expiry[holder.session] = holder.deadline
        self._locks[name] = holder

    def _expire(self, now: float) -> None:
        expired = [session for session, deadline in self._session_expiry.items()
                   if now >= deadline]
        if not expired:
            return
        for session in expired:
            del self._session_expiry[session]
        self._locks = {name: held for name, held in self._locks.items()
                       if held.session not in expired}

    def register_session(self, session_id: str, deadline: float, user: str, now: float) -> None:
        """Heartbeat: ``user``'s session ``session_id`` lives until ``deadline``.

        A session that expired before ``now`` lost its locks for good; the
        heartbeat starts it afresh, holding nothing.
        """
        self._expire(now)
        self._session_expiry[user, session_id] = deadline

    def close_session(self, session_id: str, user: str, now: float) -> None:
        """End ``user``'s session ``session_id`` now, releasing every lock it holds."""
        self._session_expiry[user, session_id] = now
        self._expire(now)
