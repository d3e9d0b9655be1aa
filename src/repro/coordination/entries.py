"""Replica-side semantics of coordination entries, written once for both services.

The SCFS Agent is untrusted (§2.6), so everything that decides whether an
entry may change — create-vs-update, the ACL check, the ``expected_version``
comparison, the version bump — runs *inside* the replicated state machine, as
one command per intent.  :class:`EntryCommands` holds those commands; the
DepSpace-like tuple space and the ZooKeeper-like znode tree mix it in and only
supply the storage primitives that say where a record lives
(``_entry_read`` / ``_entry_write`` / ``_entry_erase`` / ``_entry_scan``) and
where an ephemeral lock lives (``_lock_read`` / ``_lock_write`` /
``_lock_erase``).

An intent may span several entries and locks: ``entry_multi`` takes a lock
set, reads a set of entries, conditionally replaces a set of entries or returns
a lock set — all or nothing, in one command whatever the size of the set.

Every check precedes every mutation, so a command that raises leaves the
replica untouched and all correct replicas stay identical.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, NamedTuple, Sequence

from repro.common.errors import ConflictError, LockHeldError, TupleNotFoundError
from repro.common.types import Permission
from repro.coordination.base import Entry, EntryACL, Get, Lock, Op, Put


class Stored(NamedTuple):
    """One entry as a replica keeps it (``acl`` is :func:`dump_acl` JSON)."""

    owner: str
    version: int
    value: bytes
    acl: str


class Holder(NamedTuple):
    """The session on whose behalf a multi-command takes and returns locks.

    The tuple space times each lock tuple ``lease_seconds`` from the take; the
    znode tree expires the session, and with it every lock it holds, at
    ``deadline`` (its last heartbeat plus the lease).
    """

    session_id: str
    lease_seconds: float
    deadline: float


def dump_acl(acl: EntryACL) -> str:
    """Canonical JSON form of an entry ACL."""
    return json.dumps(
        {"owner": acl.owner, "grants": {u: p.value for u, p in acl.grants.items()}},
        sort_keys=True,
    )


def load_acl(blob: str) -> EntryACL:
    """Inverse of :func:`dump_acl`."""
    raw = json.loads(blob)
    return EntryACL(
        owner=raw["owner"],
        grants={u: Permission(v) for u, v in raw.get("grants", {}).items()},
    )


@functools.lru_cache(maxsize=4096)
def _granted(acl: str, user: str, permission: Permission) -> bool:
    """ACL verdict for a non-owner.  Cached: every replica checks every command
    it applies, against the same few ACL strings."""
    return load_acl(acl).allows(user, permission)


def _allows(stored: Stored, user: str, permission: Permission) -> bool:
    return user == stored.owner or _granted(stored.acl, user, permission)


def _entry(key: str, stored: Stored) -> Entry:
    return Entry(key=key, value=stored.value, version=stored.version, owner=stored.owner)


class EntryCommands:
    """The entry commands of a coordination replica (mixin for state machines).

    ``user`` is the authenticated principal of the calling session.  Entry
    versions start at 1 and grow by one per change for as long as the key lives.
    """

    # -- storage primitives supplied by the concrete state machine ------------

    def _entry_read(self, key: str, now: float) -> Stored | None:
        raise NotImplementedError

    def _entry_write(self, key: str, stored: Stored, now: float) -> None:
        raise NotImplementedError

    def _entry_erase(self, key: str) -> None:
        raise NotImplementedError

    def _entry_scan(self, prefix: str, now: float) -> Iterable[tuple[str, Stored]]:
        raise NotImplementedError

    def _lock_read(self, name: str, now: float) -> str | None:
        """Session id holding the unexpired lock ``name`` (None: free)."""
        raise NotImplementedError

    def _lock_write(self, name: str, holder: Holder, user: str, now: float) -> None:
        raise NotImplementedError

    def _lock_erase(self, name: str) -> None:
        raise NotImplementedError

    # -- commands -------------------------------------------------------------

    def _writable(self, key: str, user: str, now: float,
                  expected_version: int | None) -> Stored | None:
        """The record under ``key`` once ``user`` may replace it (None: absent).

        A refused version check hands back the entry it met (``ConflictError.found``)
        when ``user`` may read it, so the refusal costs the caller no second read.
        """
        stored = self._entry_read(key, now)
        found = stored.version if stored is not None else 0
        if expected_version is not None and found != expected_version:
            raise ConflictError(
                f"version mismatch on {key!r}: expected {expected_version}, found {found}",
                found=_entry(key, stored)
                if stored is not None and _allows(stored, user, Permission.READ) else None)
        if stored is not None and not _allows(stored, user, Permission.WRITE):
            raise ConflictError(f"{user} may not change entry {key!r}")
        return stored

    def _successor(self, key: str, value: bytes, user: str, now: float,
                   expected_version: int | None) -> Stored:
        """The record a put of ``value`` would leave under ``key`` (checked, not written)."""
        stored = self._writable(key, user, now, expected_version)
        if stored is None:
            stored = Stored(user, 0, value, dump_acl(EntryACL(owner=user)))
        return stored._replace(version=stored.version + 1, value=value)

    def _readable(self, key: str, user: str, now: float) -> Stored | None:
        """The record under ``key`` once ``user`` may read it (None: absent)."""
        stored = self._entry_read(key, now)
        if stored is not None and not _allows(stored, user, Permission.READ):
            raise ConflictError(f"{user} may not read entry {key!r}")
        return stored

    def entry_put(self, key: str, value: bytes, user: str, now: float,
                  expected_version: int | None = None) -> Entry:
        """Create or update ``key``; ``expected_version`` 0 means "must be absent"."""
        stored = self._successor(key, value, user, now, expected_version)
        self._entry_write(key, stored, now)
        return _entry(key, stored)

    def entry_get(self, key: str, user: str, now: float) -> Entry:
        """Read ``key`` (``TupleNotFoundError`` when absent, READ permission required)."""
        stored = self._readable(key, user, now)
        if stored is None:
            raise TupleNotFoundError(f"no entry under key {key!r}")
        return _entry(key, stored)

    def entry_multi(self, ops: Sequence[Op], user: str, now: float,
                    holder: Holder) -> list[Entry | None]:
        """Apply ``ops`` all or nothing; one result per step (see ``CoordinationService.multi``).

        ``holder`` is the session lock steps act for.  A :class:`Lock` on a
        name anyone holds refuses the whole command with ``LockHeldError``; an
        :class:`Unlock` of a name the session does not hold (expired, taken
        over) changes nothing, which is benign for a release.
        """
        # Checks run against the state before the command, so a second change
        # of one key (or one lock) would pass a check the first invalidates.
        changed = [(isinstance(op, Put), op[0]) for op in ops if not isinstance(op, Get)]
        if len(set(changed)) != len(changed):
            raise ConflictError("a multi-command may change each key and each lock only once")
        results: list[Entry | None] = []
        writes: list[tuple[str, Stored]] = []
        takes: list[str] = []
        drops: list[str] = []
        for op in ops:
            if isinstance(op, Get):
                found = self._readable(op.key, user, now)
                results.append(None if found is None else _entry(op.key, found))
                continue
            if isinstance(op, Put):
                stored = self._successor(op.key, op.value, user, now, op.expected_version)
                writes.append((op.key, stored))
                results.append(_entry(op.key, stored))
                continue
            held_by = self._lock_read(op.name, now)
            if isinstance(op, Lock):
                if held_by is not None:
                    raise LockHeldError(f"lock {op.name!r} is held by another client",
                                        lock=op.name)
                takes.append(op.name)
            elif held_by == holder.session_id:
                drops.append(op.name)
            results.append(None)
        for key, stored in writes:
            self._entry_write(key, stored, now)
        for name in takes:
            self._lock_write(name, holder, user, now)
        for name in drops:
            self._lock_erase(name)
        return results

    def entry_delete(self, key: str, user: str, now: float) -> None:
        """Remove ``key`` (idempotent; WRITE permission required)."""
        if self._writable(key, user, now, None) is not None:
            self._entry_erase(key)

    def entry_list(self, prefix: str, user: str, now: float) -> list[Entry]:
        """Every entry under ``prefix`` that ``user`` may read, sorted by key."""
        return sorted(
            (_entry(key, s)
             for key, s in self._entry_scan(prefix, now) if _allows(s, user, Permission.READ)),
            key=lambda entry: entry.key)

    def entry_set_acl(self, key: str, user: str, grantee: str, permission: Permission,
                      now: float) -> None:
        """Set (``Permission.NONE``: revoke) ``grantee``'s grant on ``key``; owner only."""
        stored = self._entry_read(key, now)
        if stored is None:
            raise TupleNotFoundError(f"no entry under key {key!r}")
        if user != stored.owner:
            raise ConflictError(f"only the owner may change the ACL of {key!r}")
        acl = load_acl(stored.acl)
        if permission is Permission.NONE:
            acl.grants.pop(grantee, None)
        else:
            acl.grants[grantee] = permission
        self._entry_write(
            key, stored._replace(version=stored.version + 1, acl=dump_acl(acl)), now)

    def entry_move(self, key: str, new_key: str, value: bytes, user: str, now: float,
                   expected_version: int | None = None, target_version: int = 0) -> Entry:
        """Move ``key`` to ``new_key`` with a new ``value``, keeping owner and ACL.

        ``expected_version`` guards the source; ``target_version`` is what must
        be under ``new_key`` (0: nothing) and needs WRITE permission when it is
        an entry.  The moved record's version exceeds both, so no version token
        seen under either key can match again.
        """
        stored = self._writable(key, user, now, expected_version)
        if stored is None:
            raise TupleNotFoundError(f"no entry under key {key!r}")
        self._writable(new_key, user, now, target_version)
        version = max(stored.version, target_version) + 1
        moved = stored._replace(version=version, value=value)
        self._entry_erase(key)
        self._entry_write(new_key, moved, now)
        return _entry(new_key, moved)

    def entry_count(self, now: float) -> int:
        """Number of stored entries (introspection, not a replicated command)."""
        return sum(1 for _ in self._entry_scan("", now))
