"""The state machine of a DepSpace coordination replica.

DepSpace [Bessani et al., EuroSys'08] is the Byzantine fault-tolerant
coordination service of the paper's prototype, replicated over 3f+1 replicas
(:class:`~repro.coordination.replication.ReplicatedStateMachine`).  The SCFS
Agent is untrusted (§2.6), so everything that decides whether an entry may
change — create-vs-update, the ACL check, the ``expected_version``
comparison, the version bump — runs *inside* the replicated state machine, as
one command per intent.  :class:`EntryCommands` holds those commands and the
state they act on: one map of entries with a sorted key index (a prefix
listing visits only the keys under its prefix) and one lock table.  Each lock
is a *timed tuple* that lapses a lease after the command that took it, so a
crashed client's locks are released without it (§2.5.1).  The trigger the
paper added to DepSpace for an efficient ``rename`` (§3.2) is the ``Move``
step of ``entry_multi``.

A replica answers two commands: ``close_session`` and ``entry_multi``, whose
steps (:data:`~repro.coordination.base.Op`) read or list, create, replace,
update, delete, move or re-grant entries and take or return locks — all or
nothing, in one command whatever its size.  What a client would otherwise
fetch first, the replica works out from the stored entry: a ``Move`` merges
its fields into the value it moves, and a ``LockFile`` takes the lock of the
file the entry names.  Every check precedes every mutation, so a command that
raises leaves the replica untouched and all correct replicas stay identical.

A session is the pair of the principal that sent the command (``user``) and
the session id it names: a lock, an unlock or a close acts on the caller's
own sessions only, whatever id it names.
"""

from __future__ import annotations

import functools
import json
from typing import Any, ClassVar, Mapping, NamedTuple, Sequence

from repro.common.errors import (
    ConflictError, EntryDeniedError, LockHeldError, TupleNotFoundError)
from repro.common.sortedkeys import SortedKeys
from repro.common.types import ACL, Permission
from repro.coordination.base import (
    Delete,
    Entry,
    Get,
    Grant,
    List,
    Lock,
    LockFile,
    Move,
    Op,
    Put,
    Unlock,
    Update,
    file_lock,
)


class Stored(NamedTuple):
    """One entry as a replica keeps it."""

    version: int
    value: bytes
    acl: ACL


class Holder(NamedTuple):
    """The session on whose behalf a multi-command takes and returns locks.

    ``deadline`` is the command's time plus the session's lease: a lock taken
    by the command lapses then.  The lock table keeps the holder of every lock,
    with ``principal`` set by the replica to the command's ``user`` (never
    taken from the client).
    """

    session_id: str
    deadline: float
    principal: str = ""

    @property
    def session(self) -> tuple[str, str]:
        """The session as a replica knows it: ``(principal, session id)``."""
        return self.principal, self.session_id


def _entry(key: str, stored: Stored) -> Entry:
    return Entry(key=key, value=stored.value, version=stored.version, acl=stored.acl)


@functools.lru_cache(maxsize=1024)
def _merged(value: bytes, fields: str) -> tuple[Any, bytes | None]:
    """``(file id, value with the JSON fields set)``; ``(None, None)`` for no JSON object.

    Cached, as every replica merges alike.
    """
    try:
        current = json.loads(value)
        merged = json.dumps({**current, **json.loads(fields)}, sort_keys=True).encode()
    except (ValueError, TypeError):
        return None, None
    return current.get("file_id"), merged


def with_fields(value: bytes, fields: Mapping[str, Any]) -> bytes | None:
    """``value`` with ``fields`` set in its JSON object (None: no JSON object): how steps merge."""
    return _merged(value, json.dumps(fields, sort_keys=True))[1]


@functools.lru_cache(maxsize=1024)
def _live_file(value: bytes) -> str | None:
    """The file id a live file's entry value names (None: no file, or its tombstone)."""
    try:
        current = json.loads(value)
        live = current.get("type") == "file" and current.get("deleted") is not True
    except (ValueError, AttributeError):
        return None
    return (current.get("file_id") or None) if live else None


@functools.lru_cache(maxsize=1024)
def is_tombstone(value: bytes) -> bool:
    """True when ``value`` is a JSON object marked ``deleted``; cached, as every replica asks alike."""
    try:
        return json.loads(value).get("deleted") is True
    except (ValueError, AttributeError):
        return False


def _refusal(key: str, stored: Stored | None, user: str, reason: str,
             kind: type[ConflictError] = ConflictError) -> ConflictError:
    """A refused change of ``key``, carrying the entry it met when ``user`` may read it."""
    return kind(reason, found=_entry(key, stored) if stored is not None
                and stored.acl.allows(user, Permission.READ) else None)


class EntryCommands:
    """The commands and state of a coordination replica.

    ``user`` is the authenticated principal of the calling session and ``now``
    the time of the request (only lock lifetimes read it).  Entry versions
    start at 1 and grow by one per change for as long as the key lives.
    """

    #: The replicated commands :meth:`apply` dispatches.
    COMMANDS: ClassVar[frozenset[str]] = frozenset({"entry_multi", "close_session"})

    def __init__(self) -> None:
        self._entries: dict[str, Stored] = {}
        self._keys = SortedKeys()
        #: Lock name -> its holder, in take order.
        self._locks: dict[str, Holder] = {}

    # -- lock lifetime ----------------------------------------------------------

    def _expire(self, now: float) -> None:
        """Drop every lock whose lease ended at or before ``now``."""
        for name in [name for name, held in self._locks.items() if now >= held.deadline]:
            del self._locks[name]

    # -- storage --------------------------------------------------------------

    def install(self, key: str, stored: Stored) -> None:
        """Store ``stored`` under ``key`` (a command's write, after its checks)."""
        self._entries[key] = stored
        self._keys.add(key)

    def _entry_erase(self, key: str) -> None:
        del self._entries[key]
        self._keys.discard(key)

    # -- commands -------------------------------------------------------------

    def _writable(self, key: str, user: str, expected_version: int | None) -> Stored | None:
        """The record under ``key`` once ``user`` may replace it (None: absent).

        A refused version check hands back the entry it met (``ConflictError.found``)
        when ``user`` may read it, so the refusal costs the caller no second read.
        """
        stored = self._entries.get(key)
        found = stored.version if stored is not None else 0
        if expected_version is not None and found != expected_version:
            raise _refusal(key, stored, user,
                           f"version mismatch on {key!r}: expected {expected_version}, "
                           f"found {found}")
        if stored is not None and not stored.acl.allows(user, Permission.WRITE):
            raise EntryDeniedError(f"{user} may not change entry {key!r}")
        return stored

    def _updated(self, op: Update, user: str) -> Stored:
        """The record ``op`` would leave (checked, not written); a refusal carries what it met."""
        stored = self._entries.get(op.key)
        file_id, value = (None, b"") if stored is None else _merged(
            stored.value, json.dumps(op.fields, sort_keys=True))
        if stored is None or value is None or file_id != op.file_id:
            reason = f"{op.key!r} does not hold file {op.file_id!r}"
        elif op.expected_version is not None and stored.version != op.expected_version:
            reason = (f"version mismatch on {op.key!r}: expected {op.expected_version}, "
                      f"found {stored.version}")
        elif not stored.acl.allows(user, Permission.WRITE):
            raise _refusal(op.key, stored, user, f"{user} may not change entry {op.key!r}",
                           EntryDeniedError)
        else:
            return stored._replace(version=stored.version + 1, value=value)
        raise _refusal(op.key, stored, user, reason)

    def _successor(self, key: str, value: bytes, user: str, expected_version: int | None,
                   grants: Mapping[str, Permission] | None) -> Stored:
        """The record a put of ``value`` would leave under ``key`` (checked, not written).

        An update keeps the entry's ACL.  A put that creates the entry — over
        nothing, or over a file's tombstone — makes ``user`` its owner with
        ``grants`` on its ACL; the version keeps growing across the tombstone.
        """
        stored = self._writable(key, user, expected_version)
        if stored is None or is_tombstone(stored.value):
            version = 0 if stored is None else stored.version
            return Stored(version + 1, value, ACL(user, dict(grants or {})))
        return stored._replace(version=stored.version + 1, value=value)

    def _readable(self, key: str, user: str) -> Stored | None:
        """The record under ``key`` once ``user`` may read it (None: absent)."""
        stored = self._entries.get(key)
        if stored is not None and not stored.acl.allows(user, Permission.READ):
            raise EntryDeniedError(f"{user} may not read entry {key!r}")
        return stored

    def _step(self, op: Get | List | Put | Update | Delete | Grant | Move,
              user: str) -> tuple[Any, list[tuple[str, Stored | None]]]:
        """``(result, records it leaves)`` of the entry step ``op``, checked, not applied (None: erased)."""
        if isinstance(op, Get):
            found = self._readable(op.key, user)
            return (None if found is None else _entry(op.key, found)), []
        if isinstance(op, List):
            entries = self._entries
            return [_entry(key, stored) for key in self._keys.prefixed(op.prefix)
                    if (stored := entries[key]).acl.allows(user, Permission.READ)], []
        if isinstance(op, Delete):
            return None, [] if self._writable(op.key, user, None) is None else [(op.key, None)]
        if isinstance(op, Grant):
            stored = self._entries.get(op.key)
            if stored is None:
                raise TupleNotFoundError(f"no entry under key {op.key!r}")
            if user != stored.acl.owner:
                raise EntryDeniedError(f"only the owner may change the ACL of {op.key!r}")
            acl = stored.acl.with_grant(op.user, op.permission)
            return None, [(op.key, stored._replace(version=stored.version + 1, acl=acl))]
        if isinstance(op, Move):
            stored = self._entries.get(op.key)
            if stored is None or op.expected_version is None and is_tombstone(stored.value):
                raise TupleNotFoundError(f"no entry under key {op.key!r}")
            self._writable(op.key, user, op.expected_version)
            self._writable(op.new_key, user, op.target_version)
            value = stored.value if op.fields is None else with_fields(stored.value, op.fields)
            if value is None:
                raise ConflictError(f"{op.key!r} holds no JSON object to set fields in")
            # Owner and ACL travel; the version passes both keys' histories, so
            # no version token seen under either key can match again.
            moved = stored._replace(version=max(stored.version, op.target_version) + 1,
                                    value=value)
            return _entry(op.new_key, moved), [(op.key, None), (op.new_key, moved)]
        stored = self._updated(op, user) if isinstance(op, Update) else self._successor(
            op.key, op.value, user, op.expected_version, op.grants)
        return _entry(op.key, stored), [(op.key, stored)]

    def entry_multi(self, ops: Sequence[Op], user: str, now: float,
                    holder: Holder) -> list[Any]:
        """Apply ``ops`` all or nothing; one result per step (see ``DepSpaceCoordination.multi``).

        ``holder`` names the session of ``user`` that lock steps act for.  A
        :class:`Lock` on a name anyone holds refuses the whole command with
        ``LockHeldError``, and so does a :class:`LockFile` whose file's lock
        another session holds (of one this session holds it takes nothing);
        an :class:`Unlock` of a name that session does not hold (expired,
        taken over, another principal's) changes nothing, which is benign for
        a release.
        """
        # Checks run against the state before the command, so a second change
        # of one key (or one lock) would pass a check the first invalidates.
        changed = [(isinstance(op, (Lock, Unlock)), key) for op in ops
                   if not isinstance(op, (Get, List, LockFile))
                   for key in (op[:2] if isinstance(op, Move) else op[:1])]
        if len(set(changed)) != len(changed):
            raise ConflictError("a multi-command may change each key and each lock only once")
        self._expire(now)
        holder = holder._replace(principal=user)
        results: list[Any] = []
        writes: list[tuple[str, Stored | None]] = []
        names = [key for is_lock, key in changed if is_lock]
        takes: list[str] = []
        drops: list[str] = []
        for op in ops:
            if isinstance(op, LockFile):
                name = self._file_lock(op, user)
                held = None if name is None else self._locks.get(name)
                if held is not None and held.session != holder.session:
                    raise LockHeldError(f"lock {name!r} is held by another client", lock=name)
                taken = name if name is not None and held is None else None
                if taken is not None:
                    names.append(taken)
                    takes.append(taken)
                results.append(taken)
            elif not isinstance(op, (Lock, Unlock)):
                result, records = self._step(op, user)
                results.append(result)
                writes += records
            else:
                held = self._locks.get(op.name)
                if isinstance(op, Lock):
                    if held is not None:
                        raise LockHeldError(f"lock {op.name!r} is held by another client",
                                            lock=op.name)
                    takes.append(op.name)
                elif held is not None and held.session == holder.session:
                    drops.append(op.name)
                results.append(None)
        if len(set(names)) != len(names):  # a LockFile's lock, named by its entry
            raise ConflictError("a multi-command may change each key and each lock only once")
        for key, stored in writes:
            if stored is None:
                self._entry_erase(key)
            else:
                self.install(key, stored)
        for name in takes:
            self._locks[name] = holder
        for name in drops:
            del self._locks[name]
        return results

    def _file_lock(self, op: LockFile, user: str) -> str | None:
        """The lock ``op`` asks for: that of the live file its entry names.

        None when the entry is absent, a tombstone or no file, or denies
        ``user`` WRITE.
        """
        stored = self._entries.get(op.key)
        if stored is None or not stored.acl.allows(user, Permission.WRITE):
            return None
        file_id = _live_file(stored.value)
        if file_id is None:
            return None
        return file_lock(file_id)

    def close_session(self, session_id: str, user: str, now: float) -> None:
        """Return every lock ``user``'s session ``session_id`` holds, in one command.

        A replica keeps no session: closing one is the client's last release,
        of whatever its locks are by now.
        """
        self._expire(now)
        self._locks = {name: held for name, held in self._locks.items()
                       if held.session != (user, session_id)}

    # -- introspection and dispatch -------------------------------------------

    def entry_count(self) -> int:
        """Number of stored entries (introspection, not a replicated command)."""
        return len(self._entries)

    def apply(self, command: tuple[str, tuple[Any, ...], dict[str, Any]]) -> Any:
        """Dispatch a replicated command (see :class:`ReplicatedStateMachine`): one of :attr:`COMMANDS`."""
        operation, args, kwargs = command
        if operation not in self.COMMANDS:
            raise ConflictError(f"unknown {type(self).__name__} operation {operation!r}")
        return getattr(self, operation)(*args, **kwargs)
