"""The coordination-service interface the SCFS Agent programs against.

The agent needs surprisingly little from the coordination service (§2.3):

* linearizable storage of *small* entries (metadata tuples of ~1 KB);
* versioned conditional updates (to detect concurrent metadata changes);
* ephemeral entries bound to a client session (for locks that disappear if
  the client crashes);
* per-entry access control (the agent is untrusted, §2.6).

Concrete services (the DepSpace-like tuple space and the ZooKeeper-like znode
tree) are adapted to this interface by :mod:`repro.coordination.adapters`;
SCFS code never depends on a specific service, which is exactly the paper's
*modular coordination* principle.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

from repro.common.errors import LockHeldError
from repro.common.types import Permission, Principal


@dataclass(frozen=True)
class Entry:
    """A small, versioned entry stored in the coordination service."""

    key: str
    value: bytes
    version: int
    owner: str


@dataclass
class Session:
    """A client session; ephemeral entries vanish when the session expires."""

    session_id: str
    principal: Principal
    lease_seconds: float
    last_renewal: float


@dataclass
class EntryACL:
    """Access-control list of one coordination-service entry."""

    owner: str
    grants: dict[str, Permission] = field(default_factory=dict)

    def allows(self, user: str, permission: Permission) -> bool:
        """True if ``user`` may perform ``permission`` on the entry.

        The pseudo-user ``"*"`` stands for "any authenticated user"; it is used
        for entries that must be world-readable inside the file system, such as
        the per-user canonical-identifier tuples (§2.6).
        """
        if user == self.owner:
            return True
        granted = self.grants.get(user, Permission.NONE) | self.grants.get("*", Permission.NONE)
        return (granted & permission) == permission


class Lock(NamedTuple):
    """Multi-command step: take the ephemeral lock ``name`` for the session."""

    name: str


class Unlock(NamedTuple):
    """Multi-command step: return ``name`` if the session holds it (else nothing)."""

    name: str


class Get(NamedTuple):
    """Multi-command step: read the entry under ``key`` (``None`` when absent)."""

    key: str


class Put(NamedTuple):
    """Multi-command step: create or update ``key`` (``expected_version`` as in ``put``)."""

    key: str
    value: bytes
    expected_version: int | None = None


#: One step of :meth:`CoordinationService.multi`.  The first field of every
#: step is the lock name or entry key it is routed by.
Op = Union[Lock, Unlock, Get, Put]


class CoordinationService(abc.ABC):
    """Linearizable storage of small entries plus session-bound locks."""

    # -- sessions -----------------------------------------------------------

    @abc.abstractmethod
    def open_session(self, principal: Principal, lease_seconds: float = 30.0) -> Session:
        """Open a session for ``principal``; ephemeral state binds to it."""

    @abc.abstractmethod
    def renew_session(self, session: Session) -> None:
        """Extend the session lease (heartbeat)."""

    @abc.abstractmethod
    def close_session(self, session: Session) -> None:
        """Close the session, releasing its ephemeral entries and locks."""

    # -- entries ------------------------------------------------------------

    @abc.abstractmethod
    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None) -> Entry:
        """Create or update the entry under ``key`` (one replicated command).

        When ``expected_version`` is given the update only succeeds if the
        current version matches (compare-and-swap) — ``0`` meaning "the entry
        must not exist" (insert-if-absent);
        :class:`~repro.common.errors.ConflictError` is raised otherwise, and
        when the entry's ACL denies the session's principal WRITE.  A refused
        version check carries what it met: ``ConflictError.found`` is the
        entry under ``key`` when the principal may READ it, else ``None`` — the
        refusal answers the read a caller would otherwise send next.
        """

    @abc.abstractmethod
    def get(self, key: str, session: Session) -> Entry:
        """Return the entry under ``key`` or raise ``TupleNotFoundError``."""

    @abc.abstractmethod
    def delete(self, key: str, session: Session) -> None:
        """Remove the entry under ``key`` (idempotent)."""

    @abc.abstractmethod
    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        """Entries under ``prefix`` the session principal may read, whole, sorted by key."""

    def list_prefix(self, prefix: str, session: Session) -> list[str]:
        """List keys starting with ``prefix`` readable by the session principal."""
        return [entry.key for entry in self.list_entries(prefix, session)]

    @abc.abstractmethod
    def move(self, key: str, new_key: str, value: bytes, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        """Move the entry under ``key`` to ``new_key``, storing ``value`` there.

        One replicated command when one service holds both keys; owner and ACL
        travel with the entry.  ``expected_version`` guards the source,
        ``target_version`` says what ``new_key`` must hold (0: nothing).  Raises
        ``TupleNotFoundError`` without a source, ``ConflictError`` on a version
        mismatch or when WRITE is denied on either key.
        """

    @abc.abstractmethod
    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        """Grant ``permission`` on ``key`` to ``user`` (owner only)."""

    # -- several steps, one round trip -----------------------------------------

    @abc.abstractmethod
    def multi(self, ops: Sequence[Op], session: Session) -> list[Entry | None]:
        """Apply ``ops`` all or nothing, as one replicated command.

        Every step is checked before any is applied: a :class:`Lock` whose name
        is held raises :class:`~repro.common.errors.LockHeldError` (its
        ``lock`` attribute names it), a :class:`Put` whose ``expected_version``
        mismatches or whose entry denies WRITE raises ``ConflictError``, a
        :class:`Get` that is denied READ raises ``ConflictError`` — and then
        nothing has changed.  A refused version check carries ``found`` as in
        :meth:`put`.  Returns one result per step: the entry for a
        ``Get`` (``None`` when absent) and for a ``Put``, ``None`` for lock
        steps.  A command may change each key and each lock at most once.
        """

    def colocated(self, *names: str) -> bool:
        """True when a :meth:`multi` whose steps are routed by ``names`` is one command.

        Always, on one service; a partitioned one says whether the lock names
        and entry keys fall on one partition.
        """
        return True

    # -- locking ------------------------------------------------------------

    def try_lock(self, name: str, session: Session) -> bool:
        """Attempt to acquire the ephemeral lock ``name``; False if already held.

        The one-step case of :meth:`multi`.
        """
        try:
            self.multi([Lock(name)], session)
        except LockHeldError:
            return False
        return True

    def unlock(self, name: str, session: Session) -> None:
        """Release the lock ``name`` if this session holds it (one-step :meth:`multi`).

        A lock that expired or that someone else holds by now is left alone:
        both are benign for an unlock.
        """
        self.multi([Unlock(name)], session)

    @abc.abstractmethod
    def lock_holder(self, name: str) -> str | None:
        """Session id currently holding ``name`` (None when free); test helper."""

    # -- introspection -------------------------------------------------------

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of entries currently stored (capacity planning, Figure 11a)."""

    @abc.abstractmethod
    def stored_bytes(self) -> int:
        """Approximate memory footprint of the stored entries in bytes."""
