"""The coordination-service interface the SCFS Agent programs against.

The agent needs surprisingly little from the coordination service (§2.3):

* linearizable storage of *small* entries (metadata tuples of ~1 KB);
* versioned conditional updates (to detect concurrent metadata changes);
* ephemeral entries bound to a client session (for locks that disappear if
  the client crashes);
* per-entry access control (the agent is untrusted, §2.6).

A replicated DepSpace is adapted to this interface by
:mod:`repro.coordination.adapters`, and a namespace partitioned over several
of them by :mod:`repro.coordination.partitioned`; SCFS code never depends on a
specific service, which is exactly the paper's *modular coordination*
principle.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence, Union

from repro.common.errors import LockHeldError, TupleNotFoundError
from repro.common.types import ACL, Permission, Principal


#: Default lease of ephemeral state (locks, sessions): long enough for any one
#: file-system operation, short enough that a crashed client's locks lapse soon.
DEFAULT_LEASE = 30.0


@dataclass(frozen=True)
class Entry:
    """A small, versioned entry stored in the coordination service."""

    key: str
    value: bytes
    version: int
    #: Who may read and change the entry; its owner is the principal that created it.
    acl: ACL


@dataclass(frozen=True)
class Session:
    """A client session: the one id an agent's locks carry on every partition.

    A lock the session takes lapses ``lease_seconds`` after the command that
    took it, and no later command extends it, so a crashed agent's locks are
    released without it.
    """

    session_id: str
    principal: Principal
    lease_seconds: float


#: Prefix of the lock that guards one file for writing.
FILE_LOCK_PREFIX = "filelock:"


def file_lock(file_id: str) -> str:
    """Name of the write lock of the file ``file_id``: the one rule, for clients and replicas."""
    return FILE_LOCK_PREFIX + file_id


def lock_home_of(name: str) -> str:
    """The home a lock name ends with, ``@<partition>`` (empty: none; see ``lock_home``)."""
    _, at, home = name.rpartition("@")
    return at + home if at and home.isdigit() else ""


class Lock(NamedTuple):
    """Multi-command step: take the ephemeral lock ``name`` for the session."""

    name: str


class LockFile(NamedTuple):
    """Multi-command step: take the lock of the file the entry under ``key`` names.

    The replica reads the name off the stored entry, :func:`file_lock` of its
    ``file_id``, and takes it when the entry is a live file the caller may
    WRITE and the name's home (:func:`lock_home_of`) is ``home``, where the
    caller's service holds it (:meth:`CoordinationService.lock_home`; empty:
    any); anything else takes nothing.
    """

    key: str
    home: str = ""


class Unlock(NamedTuple):
    """Multi-command step: return ``name`` if the session holds it (else nothing)."""

    name: str


class Get(NamedTuple):
    """Multi-command step: read the entry under ``key`` (``None`` when absent)."""

    key: str


class List(NamedTuple):
    """Multi-command step: every entry under ``prefix`` the caller may READ, sorted by key."""

    prefix: str


class Put(NamedTuple):
    """Multi-command step: create or update ``key`` (``expected_version`` and ``grants`` as in ``put``)."""

    key: str
    value: bytes
    expected_version: int | None = None
    grants: Mapping[str, Permission] | None = None


class Update(NamedTuple):
    """Multi-command step: set ``fields`` in the JSON object under ``key`` while it names ``file_id``."""

    key: str
    file_id: str
    fields: Mapping[str, Any]
    expected_version: int | None = None


class Delete(NamedTuple):
    """Multi-command step: remove ``key`` (nothing when absent; WRITE needed when present)."""

    key: str


class Grant(NamedTuple):
    """Multi-command step: set ``user``'s grant on ``key`` (``Permission.NONE``: revoke); owner only."""

    key: str
    user: str
    permission: Permission


class Move(NamedTuple):
    """Multi-command step: move ``key`` to ``new_key``, setting ``fields`` (arguments as in ``move``)."""

    key: str
    new_key: str
    fields: Mapping[str, Any] | None = None
    expected_version: int | None = None
    target_version: int = 0


#: One step of :meth:`CoordinationService.multi`.  The first field of every
#: step is the lock name, entry key or key prefix it is routed by.
Op = Union[Lock, LockFile, Unlock, Get, List, Put, Update, Delete, Grant, Move]


class CoordinationService(abc.ABC):
    """Linearizable storage of small entries plus session-bound locks."""

    # -- sessions -----------------------------------------------------------

    @abc.abstractmethod
    def open_session(self, principal: Principal, lease_seconds: float = DEFAULT_LEASE) -> Session:
        """Open a session for ``principal``; ephemeral state binds to it."""

    @abc.abstractmethod
    def renew_session(self, session: Session) -> None:
        """Heartbeat: one empty command per service, background work (any command renews)."""

    @abc.abstractmethod
    def close_session(self, session: Session) -> None:
        """Close the session, releasing its ephemeral entries and locks."""

    # -- entries: one-step commands ---------------------------------------------

    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None,
            grants: Mapping[str, Permission] | None = None) -> Entry:
        """Create or update the entry under ``key`` (one replicated command).

        When ``expected_version`` is given the update only succeeds if the
        current version matches (compare-and-swap) — ``0`` meaning "the entry
        must not exist" (insert-if-absent);
        :class:`~repro.common.errors.ConflictError` is raised otherwise, and
        when the entry's ACL denies the session's principal WRITE.  A refused
        version check carries what it met: ``ConflictError.found`` is the
        entry under ``key`` when the principal may READ it, else ``None`` — the
        refusal answers the read a caller would otherwise send next.

        An entry this put creates starts with ``grants`` on its ACL (as
        :meth:`set_entry_acl` would set them, in the same command); an update
        keeps the ACL the entry has.  A put over a file's tombstone (a JSON
        value whose ``deleted`` is true) creates the entry anew: the caller
        owns it, with ``grants``, and the version keeps growing.
        """
        return self._one(Put(key, value, expected_version, grants), session)

    def get(self, key: str, session: Session) -> Entry:
        """Return the entry under ``key`` or raise ``TupleNotFoundError``."""
        return self._one(Get(key), session)

    def delete(self, key: str, session: Session) -> None:
        """Remove the entry under ``key`` (idempotent)."""
        self.multi([Delete(key)], session)

    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        """Entries under ``prefix`` the session principal may read, whole, sorted by key."""
        return self.multi([List(prefix)], session)[0]

    def list_prefix(self, prefix: str, session: Session) -> list[str]:
        """List keys starting with ``prefix`` readable by the session principal."""
        return [entry.key for entry in self.list_entries(prefix, session)]

    def move(self, key: str, new_key: str, fields: Mapping[str, Any] | None, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        """Move the entry under ``key`` to ``new_key``, setting ``fields`` in its JSON object.

        One replicated command when one service holds both keys; owner and ACL
        travel with the entry, and ``fields`` (None: none) merge into the
        stored value as an ``Update``'s do.  ``expected_version`` guards the
        source, ``target_version`` says what ``new_key`` must hold (0:
        nothing).  Raises ``TupleNotFoundError`` without a source (a file's
        tombstone is none unless ``expected_version`` names it),
        ``ConflictError`` on a version mismatch or on fields for a value that
        is no JSON object, and :class:`~repro.common.errors.EntryDeniedError`
        when WRITE is denied on either key.
        """
        return self._one(Move(key, new_key, fields, expected_version, target_version), session)

    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        """Grant ``permission`` on ``key`` to ``user`` (owner only)."""
        self.multi([Grant(key, user, permission)], session)

    def _one(self, op: Get | Put | Move, session: Session) -> Entry:
        """The entry the one-step :meth:`multi` of ``op`` answers (``TupleNotFoundError``: none)."""
        entry = self.multi([op], session)[0]
        if entry is None:
            raise TupleNotFoundError(f"no entry under key {op[0]!r}")
        return entry

    # -- several steps, one round trip -----------------------------------------

    @abc.abstractmethod
    def multi(self, ops: Sequence[Op], session: Session) -> list[Any]:
        """Apply ``ops`` all or nothing, as one replicated command.

        Every step is checked before any is applied: a :class:`Lock` whose name
        is held raises :class:`~repro.common.errors.LockHeldError` (its
        ``lock`` attribute names it), as does a :class:`LockFile` whose file's
        lock another session holds; a :class:`Put` whose ``expected_version``
        mismatches or whose entry denies WRITE — or an :class:`Update` whose
        entry also is gone or names another file — raises ``ConflictError``, a
        :class:`Get` that is denied READ raises ``ConflictError``, and a
        :class:`Delete`, :class:`Grant` or :class:`Move` is checked as
        :meth:`delete`, :meth:`set_entry_acl` or :meth:`move` is — and then
        nothing has changed.  A refused version check or ``Update`` carries
        ``found`` as in :meth:`put`; a denied access is an
        :class:`~repro.common.errors.EntryDeniedError`.  Returns one result
        per step: the entry for a ``Get`` (``None`` when absent), ``Put``,
        ``Update`` and ``Move`` (the moved entry), the entries of a ``List``,
        the name a ``LockFile`` took (``None``: none), ``None`` for the
        others.  A command may change each key and each lock at most once; a
        ``Move`` changes both its keys.
        """

    def lock_home(self, key: str) -> str:
        """Suffix of an id whose lock names should live with the entry ``key``.

        A lock name ending with it is held where ``key`` is, so a ``Lock`` (or
        a :class:`LockFile` of ``key``) riding with a step on ``key`` is one
        command.  Empty on one service,
        which holds every lock and entry; a partitioned one names the
        partition of ``key``.
        """
        return ""

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

    # -- introspection -------------------------------------------------------

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of entries currently stored (capacity planning, Figure 11a)."""
