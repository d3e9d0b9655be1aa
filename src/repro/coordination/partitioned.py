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
partitions — a ``list_entries`` with a short prefix, closing or renewing a
session, returning locks that live on several partitions — send their
per-partition commands together
(:func:`~repro.coordination.replication.invoke_together`): they cost the
client one round trip, the slowest partition's, not one per partition.

A lock name may carry a *home*: a trailing ``@<partition>`` (the file ids the
agent mints end with :meth:`PartitionedCoordination.lock_home` of the entry
they are created under).  Such a lock lives on that partition, so it rides in
one command with its entry; a rename to another partition leaves it at home.
Lock names without a home, and entry keys always, go by the partitioning
function.  Both are pure functions of the name: every client routes alike.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro.common.errors import ConflictError, ReproError
from repro.common.types import Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import CoordinationService, Entry, Lock, Move, Op, Session, Unlock
from repro.coordination.replication import invoke_together


def partition_by_top_level_directory(key: str, partitions: int) -> int:
    """Default partitioning function: hash the first path component of the key.

    Metadata keys look like ``meta:/a/b/c`` and lock names without a home like
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
        services: Sequence[DepSpaceCoordination],
        partition_function: Callable[[str, int], int] = partition_by_top_level_directory,
    ):
        if not services:
            raise ValueError("at least one underlying coordination service is required")
        self.services = list(services)
        self.partition_function = partition_function

    # -- routing ----------------------------------------------------------------

    def partition_of(self, key: str) -> int:
        """Index of the partition responsible for the entry ``key``."""
        return self.partition_function(key, len(self.services)) % len(self.services)

    def lock_partition(self, name: str) -> int:
        """Index of the partition holding the lock ``name``: the home its ``@<p>`` names, if any."""
        _, at, home = name.rpartition("@")
        if at and home.isdigit():
            return int(home) % len(self.services)
        return self.partition_of(name)

    def lock_home(self, key: str) -> str:
        return f"@{self.partition_of(key)}"

    # -- sessions ----------------------------------------------------------------
    #
    # A session is a client-side record: the one the caller holds goes to
    # every partition, so a lock carries the same holder id wherever it lives.

    def open_session(self, principal: Principal, lease_seconds: float = 30.0) -> Session:
        return self.services[0].open_session(principal, lease_seconds)

    def renew_session(self, session: Session) -> None:
        # Heartbeats are background work, sent to every partition at once.
        with self.services[0].sim.background():
            invoke_together([service.multi_command((), session) for service in self.services])

    def close_session(self, session: Session) -> None:
        invoke_together([service.close_command(session) for service in self.services])

    # -- entries ------------------------------------------------------------------

    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        listings = invoke_together([service.list_command(prefix, session)
                                    for service in self.services])
        return sorted((entry for listing in listings for entry in listing),
                      key=lambda entry: entry.key)

    def move(self, key: str, new_key: str, value: bytes, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        if self.partition_of(key) == self.partition_of(new_key):
            return super().move(key, new_key, value, session, expected_version, target_version)
        # No atomicity across partitions: read the source (none raises, as on
        # one service), write the new entry, then drop the old one (a crash in
        # between leaves both; never neither).  The new entry belongs to the
        # mover and starts with an empty ACL.
        found = self.get(key, session).version
        if expected_version is not None and found != expected_version:
            raise ConflictError(
                f"version mismatch on {key!r}: expected {expected_version}, found {found}")
        moved = self.put(new_key, value, session, target_version)
        self.delete(key, session)
        return moved

    def multi(self, ops: Sequence[Op], session: Session) -> list[Entry | None]:
        """One command per partition and phase touched: locks, then entries, then unlocks.

        Atomic per partition only (the caveat ``move`` has): when a later
        command is refused, entries an earlier partition already replaced stay
        replaced.  Locks are handed back — a refused command leaves none of
        its locks held on any partition.  A ``Move`` keeps to one partition
        (``ValueError`` otherwise; :meth:`move` crosses them).

        An entry step (any but ``Lock`` and ``Unlock``) never executes before every
        ``Lock`` of ``ops`` is granted, nor after any of its ``Unlock`` steps is
        applied, wherever the names and keys fall.  A partition's steps of two
        adjacent phases share one command when no other partition has to go
        between them: the lock phase ends, and the unlock phase starts, on an
        entry partition where it can — lock and entry on one partition cost one
        command.

        Among the entry steps the partition of the *last* goes after every
        other, so a caller that ends them with the step recording the outcome
        (the transaction commit ends its first command with the ``pending``
        intent and its commit point with the intent's flip to ``committed``)
        knows that step applied only once every other partition accepted.

        Commands that need not wait for one another go out together and cost
        one round trip: the unlock-only commands that end the sequence, and
        the hand-back of the locks a refused command leaves granted.
        """
        locks: dict[int, list[int]] = {}
        entries: dict[int, list[int]] = {}
        unlocks: dict[int, list[int]] = {}
        final = None
        for position, op in enumerate(ops):
            if isinstance(op, (Lock, Unlock)):
                index = self.lock_partition(op.name)
                phase = locks if isinstance(op, Lock) else unlocks
            else:
                index = self.partition_of(op.key)
                if isinstance(op, Move) and self.partition_of(op.new_key) != index:
                    raise ValueError(f"a Move from {op.key!r} to {op.new_key!r} spans partitions")
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
        # The unlock-only commands after the last entry command follow every
        # other and precede none: they go out together.
        together = len(commands)
        while together and all(isinstance(ops[p], Unlock) for p in commands[together - 1][1]):
            together -= 1
        sends = [(self.services[index], [ops[position] for position in positions])
                 for index, positions in commands]
        answers: list[list[Entry | None]] = []
        granted: list[tuple[DepSpaceCoordination, list[Op]]] = []
        try:
            for service, steps in sends[:together]:
                answers.append(service.multi(steps, session))
                taken: list[Op] = [Unlock(op.name) for op in steps if isinstance(op, Lock)]
                if taken:
                    granted.append((service, taken))
            answers += invoke_together([service.multi_command(steps, session)
                                        for service, steps in sends[together:]])
        except ReproError:
            invoke_together([service.multi_command(handed_back, session)
                             for service, handed_back in granted])
            raise
        results: list[Entry | None] = [None] * len(ops)
        for (_, positions), replies in zip(commands, answers, strict=True):
            for position, answer in zip(positions, replies, strict=True):
                results[position] = answer
        return results

    # -- locking --------------------------------------------------------------------

    def lock_holder(self, name: str) -> str | None:
        return self.services[self.lock_partition(name)].lock_holder(name)

    # -- introspection ----------------------------------------------------------------

    def entry_count(self) -> int:
        return sum(service.entry_count() for service in self.services)
