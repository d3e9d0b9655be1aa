"""Namespace-partitioned coordination (the scalability extension of §5).

The paper notes that "simple extensions would allow SCFS to use multiple
coordination services, each one dealing with a subtree of the namespace
(improving its scalability)", the same approach Farsite takes.  This module
implements that extension: a :class:`PartitionedCoordination` exposes the
standard :class:`~repro.coordination.base.CoordinationService` interface while
routing every entry and lock to one of ``n`` underlying coordination services
chosen by a deterministic partitioning function over the key.

Because the SCFS Agent's metadata keys embed the file path, partitioning by
the top-level directory (the default) spreads different users' or projects'
subtrees across independent replicated services, multiplying the metadata
capacity and halving (or better) the load per service.  Operations that span
partitions (``list_entries`` with a short prefix) simply fan out.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro.common.errors import ConflictError, ReproError
from repro.common.types import Permission, Principal
from repro.coordination.base import CoordinationService, Entry, Lock, Op, Session, Unlock


def partition_by_top_level_directory(key: str, partitions: int) -> int:
    """Default partitioning function: hash the first path component of the key.

    Metadata keys look like ``meta:/a/b/c`` and lock names like
    ``filelock:file-000123``; taking the first component after the prefix keeps
    all entries of one top-level subtree in the same partition, so rename and
    readdir of a subtree stay single-partition.
    """
    payload = key.split(":", 1)[-1]
    top_level = payload.strip("/").split("/", 1)[0] if payload.strip("/") else ""
    digest = hashlib.sha256(top_level.encode()).digest()
    return digest[0] % partitions


class PartitionedCoordination(CoordinationService):
    """Route coordination operations across several underlying services."""

    def __init__(
        self,
        services: Sequence[CoordinationService],
        partition_function: Callable[[str, int], int] = partition_by_top_level_directory,
    ):
        if not services:
            raise ValueError("at least one underlying coordination service is required")
        self.services = list(services)
        self.partition_function = partition_function
        #: Per-partition session id -> id of the façade session it belongs to.
        self._facade_ids: dict[str, str] = {}

    # -- routing ----------------------------------------------------------------

    def _service_for(self, key: str) -> CoordinationService:
        index = self.partition_function(key, len(self.services))
        return self.services[index % len(self.services)]

    def partition_of(self, key: str) -> int:
        """Index of the partition responsible for ``key`` (observability/tests)."""
        return self.partition_function(key, len(self.services)) % len(self.services)

    def colocated(self, *names: str) -> bool:
        return len({self.partition_of(name) for name in names}) <= 1

    # -- sessions ----------------------------------------------------------------
    #
    # A client session must exist on every partition, because a single file
    # system operation may touch entries routed to different services.

    def open_session(self, principal: Principal, lease_seconds: float = 30.0) -> Session:
        sub_sessions = [s.open_session(principal, lease_seconds) for s in self.services]
        session = Session(
            session_id=sub_sessions[0].session_id,
            principal=principal,
            lease_seconds=lease_seconds,
            last_renewal=sub_sessions[0].last_renewal,
        )
        # Stash the per-partition sessions on the façade session object.
        session.partitions = sub_sessions  # type: ignore[attr-defined]
        for sub in sub_sessions:
            self._facade_ids[sub.session_id] = session.session_id
        return session

    def _sub_session(self, session: Session, service: CoordinationService) -> Session:
        sub_sessions = getattr(session, "partitions", None)
        if not sub_sessions:
            return session
        return sub_sessions[self.services.index(service)]

    def renew_session(self, session: Session) -> None:
        for service, sub in zip(self.services, getattr(session, "partitions", []), strict=False):
            service.renew_session(sub)
        session.last_renewal = max((s.last_renewal for s in getattr(session, "partitions", [session])),
                                   default=session.last_renewal)

    def close_session(self, session: Session) -> None:
        for service, sub in zip(self.services, getattr(session, "partitions", []), strict=False):
            service.close_session(sub)
            self._facade_ids.pop(sub.session_id, None)

    # -- entries ------------------------------------------------------------------

    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None) -> Entry:
        service = self._service_for(key)
        return service.put(key, value, self._sub_session(session, service), expected_version)

    def get(self, key: str, session: Session) -> Entry:
        service = self._service_for(key)
        return service.get(key, self._sub_session(session, service))

    def delete(self, key: str, session: Session) -> None:
        service = self._service_for(key)
        service.delete(key, self._sub_session(session, service))

    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        entries: list[Entry] = []
        for service in self.services:
            entries += service.list_entries(prefix, self._sub_session(session, service))
        return sorted(entries, key=lambda entry: entry.key)

    def move(self, key: str, new_key: str, value: bytes, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        source, target = self._service_for(key), self._service_for(new_key)
        if source is target:
            return source.move(key, new_key, value, self._sub_session(session, source),
                               expected_version, target_version)
        # No atomicity across partitions: write the new entry, then drop the old
        # one (a crash in between leaves both; never neither).  The new entry
        # belongs to the mover and starts with an empty ACL.
        if expected_version is not None:
            found = source.get(key, self._sub_session(session, source)).version
            if found != expected_version:
                raise ConflictError(
                    f"version mismatch on {key!r}: expected {expected_version}, found {found}")
        moved = target.put(new_key, value, self._sub_session(session, target), target_version)
        source.delete(key, self._sub_session(session, source))
        return moved

    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        service = self._service_for(key)
        service.set_entry_acl(key, user, permission, self._sub_session(session, service))

    def multi(self, ops: Sequence[Op], session: Session) -> list[Entry | None]:
        """One command per partition and phase touched: locks, then entries, then unlocks.

        Atomic per partition only (the caveat ``move`` has): when a later
        command is refused, entries an earlier partition already replaced stay
        replaced.  Locks are handed back — a refused command leaves none of
        its locks held on any partition.

        A ``Get`` or ``Put`` never executes before every ``Lock`` of ``ops`` is
        granted, nor after any of its ``Unlock`` steps is applied, wherever
        the names and keys fall.  A partition's steps of two adjacent phases
        share one command when no other partition has to go between them: the
        lock phase ends, and the unlock phase starts, on an entry partition
        where it can — lock and entry on one partition cost one command.

        Among the entry steps the partition of the *last* goes after every
        other, so a caller that ends them with the step recording the outcome
        (the transaction commit ends its first command with the ``pending``
        intent and its commit point with the intent's flip to ``committed``)
        knows that step applied only once every other partition accepted.
        """
        locks: dict[int, list[int]] = {}
        entries: dict[int, list[int]] = {}
        unlocks: dict[int, list[int]] = {}
        final = None
        for position, op in enumerate(ops):
            index = self.partition_of(op[0])
            if isinstance(op, (Lock, Unlock)):
                phase = locks if isinstance(op, Lock) else unlocks
            else:
                phase, final = entries, index
            phase.setdefault(index, []).append(position)
        middle = sorted(entries, key=lambda index: (index == final, index))
        segments = [
            *((i, locks[i]) for i in sorted(locks, key=lambda i: (i in middle[:1], i))),
            *((i, entries[i]) for i in middle),
            *((i, unlocks[i]) for i in sorted(unlocks, key=lambda i: (i not in middle[-1:], i)))]
        commands: list[tuple[int, list[int]]] = []
        for index, positions in segments:
            if commands and commands[-1][0] == index:
                commands[-1][1].extend(positions)
            else:
                commands.append((index, positions))
        results: list[Entry | None] = [None] * len(ops)
        granted: list[tuple[CoordinationService, Session, list[Op]]] = []
        for index, positions in commands:
            service = self.services[index]
            sub = self._sub_session(session, service)
            steps = [ops[position] for position in positions]
            try:
                answers = service.multi(steps, sub)
            except ReproError:
                for earlier, earlier_session, handed_back in granted:
                    earlier.multi(handed_back, earlier_session)
                raise
            for position, answer in zip(positions, answers, strict=True):
                results[position] = answer
            taken: list[Op] = [Unlock(op.name) for op in steps if isinstance(op, Lock)]
            if taken:
                granted.append((service, sub, taken))
        return results

    # -- locking --------------------------------------------------------------------

    def lock_holder(self, name: str) -> str | None:
        # Callers compare against the façade session they were given.
        holder = self._service_for(name).lock_holder(name)
        return self._facade_ids.get(holder, holder)

    # -- introspection ----------------------------------------------------------------

    def entry_count(self) -> int:
        return sum(service.entry_count() for service in self.services)

    def stored_bytes(self) -> int:
        return sum(service.stored_bytes() for service in self.services)

    def per_partition_entries(self) -> list[int]:
        """Entry count of each partition (used to observe load spreading)."""
        return [service.entry_count() for service in self.services]
