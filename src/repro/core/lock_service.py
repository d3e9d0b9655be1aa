"""The SCFS Agent's lock service (§2.5.1).

Locks avoid write-write conflicts: a file opened for writing is locked in the
coordination service, and the lock is released when the file's updates have
reached the cloud (on ``close`` in the blocking mode, after the background
upload completes in the non-blocking mode).  Opening a file for reading never
locks it — read-write conflicts are handled by the consistency anchor instead.

The lock service "is basically a wrapper for implementing coordination
recipes for locking using the coordination service of choice" (§2.5.1).  The
only strict requirement is that lock entries are *ephemeral*: if a client
crashes while holding a lock, the lease expires and the file unlocks
automatically.  DepSpace satisfies this with a lease per lock, so the recipe
here only adds re-entrant bookkeeping on top of the service's ``Lock``,
``LockFile`` and ``Unlock`` steps.  A write-open's lock is a :class:`FileLock`
its handle owns, and the handle's ``close`` releases it.
In the non-sharing mode there is no coordination service and therefore no
locking (a single user by definition cannot conflict with itself across agents
sharing nothing).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, cast

from repro.common.errors import LockHeldError
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Lock, LockFile, Op, Session, Unlock, file_lock
from repro.core.metadata import FileMetadata
from repro.simenv.environment import Simulation

#: The command lock steps ride in: called once with the steps (possibly none),
#: it sends them inside its own ``multi`` and raises iff that command was refused.
Carrier = Callable[[Sequence[Op]], object]


class FileLock(NamedTuple):
    """One acquisition of a file's write lock, released by whoever holds the object."""

    locks: LockService
    metadata: FileMetadata

    def release(self) -> None:
        """Give this acquisition back (:meth:`LockService.release`)."""
        self.locks.release(self.metadata)


class LockService:
    """Per-agent lock recipe over the coordination service's ``Lock``/``Unlock`` steps."""

    def __init__(
        self,
        sim: Simulation,
        coordination: DepSpaceCoordination | None,
        session: Session | None,
    ):
        self.sim = sim
        self.coordination = coordination
        #: The agent's session: there is one exactly when there is a coordination service.
        self.session = cast(Session, session)
        #: Optional observer of *actual* lock transitions, called as
        #: ``on_transition(kind, lock_name)`` with kind ``"lock"`` when the
        #: session first acquires a lock and ``"unlock"`` when the last
        #: re-entrant acquisition is released.  The scenario engine's trace
        #: recorder hooks in here.
        self.on_transition: Callable[[str, str], None] | None = None
        #: Lock name -> number of outstanding acquisitions by this session.  The
        #: count makes re-entrant acquisition symmetric with release: the lock is
        #: only returned to the coordination service when every acquisition has
        #: been released.  (A flat set would release on the *first* release, which
        #: let another client grab the lock while e.g. a second open of the same
        #: file — or a pending non-blocking commit — was still writing.)
        self.held: dict[str, int] = {}
        #: Lock name -> when this agent's take of it lapses: the time of the
        #: command that took it plus the session's lease, the deadline that
        #: command stamps on its holder.  A re-entrant take keeps the first.
        self.lapses: dict[str, float] = {}

    @staticmethod
    def lock_name(metadata: FileMetadata) -> str:
        """Name of the lock protecting one file (keyed by its storage id, which renames keep)."""
        return file_lock(metadata.file_id or metadata.path)

    @property
    def enabled(self) -> bool:
        """False in the non-sharing mode (no coordination service)."""
        return self.coordination is not None

    def acquire(self, metadata: FileMetadata, send: Carrier | None = None) -> bool:
        """Lock ``metadata`` for writing: the one-file case of :meth:`acquire_set`.

        A lock another client holds refuses it at once with
        :class:`LockHeldError`, which the file system surfaces as an
        open-for-writing error (§2.5.2); nothing waits or retries.
        """
        return self.acquire_set([metadata], send)

    def release(self, metadata: FileMetadata) -> None:
        """Release the write lock on ``metadata``: the one-file case of :meth:`release_set`."""
        self.release_set([metadata])

    def hold(self, metadata: FileMetadata, send: Carrier | None = None) -> FileLock:
        """:meth:`acquire` ``metadata``'s lock, handed out as the :class:`FileLock` its owner releases."""
        self.acquire(metadata, send)
        return FileLock(self, metadata)

    def acquire_file(self, key: str, send: Callable[[LockFile], str | None]) -> str | None:
        """Lock the file the entry under ``key`` names, its name read off the entry by the replica.

        ``send`` is called once with the :class:`LockFile` step, sends it in
        its own ``multi`` and returns the step's answer: the name the
        replica took, or None when it took nothing — no live file the
        principal may write is there, or this session holds it already.  A
        name taken is counted as :meth:`acquire_set` counts one, and
        returned.  A lock another session holds refuses the command with
        :class:`LockHeldError`.
        """
        lapse = self.sim.now() + self.session.lease_seconds
        try:
            name = send(LockFile(key))
        except LockHeldError as exc:
            raise LockHeldError(f"{key} is locked for writing by another client",
                                lock=exc.lock) from exc
        if name is not None:
            self._taken([name], lapse)
        return name

    def _taken(self, names: Sequence[str], lapse: float) -> None:
        """Count one acquisition of each of ``names``, which the service just granted.

        A name held here already (its lease lapsed at the replicas, which
        granted it again) keeps its first lapse and fires no transition.
        """
        fresh = [name for name in names if name not in self.held]
        for name in names:
            self.held[name] = self.held.get(name, 0) + 1
            self.lapses.setdefault(name, lapse)
        self._transitions("lock", fresh)

    def acquire_set(self, metadatas: Sequence[FileMetadata],
                    send: Carrier | None = None) -> bool:
        """Lock every file of ``metadatas`` or none, in one coordination command.

        The transactional commit takes its whole (sorted) lock set this way.
        The lock rides in the command it guards: ``send``, when given, is the
        metadata command to run under the locks — it is called once with the
        ``Lock`` steps to put in its own ``multi`` (none when every lock is
        re-entrant) and must raise iff that command was refused; without it
        the steps go alone.  A disabled lock service sends no step and returns
        False (callers need no special-casing of the non-sharing mode).

        A re-entrant name is counted *before* the command: nothing can refuse
        it, and ``send`` advances the clock, so a background commit of this
        agent may release one acquisition of it meanwhile — counted after,
        that release would hand back a lock this call then claims to hold.
        The names taken from the service are counted once the command
        succeeded, with the lapse of a lease counted from the call (no later
        than the replicas' own), and one ``lock`` transition fires per name
        taken.  A refusal takes no name and fires no ``lock`` transition; it
        rolls each re-entrant count back through :meth:`_release`, which
        returns (and fires ``unlock`` for) a lock whose other acquisition was
        released meanwhile, and a :class:`LockHeldError` names the contended
        file.
        """
        if self.coordination is None:
            if send is not None:
                send(())
            return False
        # Two paths of a set may share a lock (the names survive renames):
        # the set takes, and :meth:`release_set` returns, that lock once.
        paths = {self.lock_name(metadata): metadata.path for metadata in metadatas}
        fresh = [name for name in sorted(paths) if name not in self.held]
        reentrant = [name for name in sorted(paths) if name in self.held]
        for name in reentrant:
            self.held[name] += 1
        steps = [Lock(name) for name in fresh]
        lapse = self.sim.now() + self.session.lease_seconds
        try:
            if send is not None:
                send(steps)
            elif steps:
                self.coordination.multi(steps, self.session)
        except BaseException as exc:
            self._release(reentrant)
            if isinstance(exc, LockHeldError):
                raise LockHeldError(
                    f"{paths.get(exc.lock, exc.lock)} is locked for writing by another client",
                    lock=exc.lock) from exc
            raise
        self._taken(fresh, lapse)
        return True

    def release_set(self, metadatas: Sequence[FileMetadata]) -> None:
        """Release what :meth:`acquire_set` of the same files took, in one command.

        Names not held are skipped.
        """
        self._release(sorted({self.lock_name(m) for m in metadatas}))

    def release_all(self) -> None:
        """Release every lock held by this agent (unmount path).

        Collapses any re-entrant counts: unmount means the client is done with
        all of its files, so every lock is returned, in one command.
        """
        for name in self.held:
            self.held[name] = 1
        self._release(list(self.held))

    def _release(self, names: Sequence[str]) -> None:
        """Release one acquisition of each held name in ``names``, in one command.

        The names whose last acquisition this was are handed back to the
        coordination service together, and an ``unlock`` transition fires for
        each.  When that command fails every count stays as it was.
        """
        mine = [name for name in dict.fromkeys(names) if name in self.held]
        returned = [name for name in mine if self.held[name] == 1]
        if returned and self.coordination is not None:
            self.coordination.multi([Unlock(name) for name in returned], self.session)
        for name in mine:
            self.held[name] -= 1
            if self.held[name] == 0:
                del self.held[name]
                del self.lapses[name]
        self._transitions("unlock", returned)

    def _transitions(self, kind: str, names: Sequence[str]) -> None:
        if self.on_transition is not None:
            for name in names:
                self.on_transition(kind, name)

    def still_held(self, metadata: FileMetadata) -> bool:
        """True while this agent holds the lock on ``metadata`` and its lease has not lapsed.

        DepSpace times a lock's lease from its take: a holder that stays busy
        past ``lease_seconds`` loses the lock silently while its own ``held``
        count still names it.  The lapse is the one this agent counted at the
        take, no later than the replicas' own, so the check sends nothing.
        Commit paths re-check here before irreversible steps, turning a stolen
        lock into a clean abort instead of a version fork.  Always True with
        locking disabled (nothing can be stolen without a lock service).
        """
        if self.coordination is None:
            return True
        lapse = self.lapses.get(self.lock_name(metadata))
        return lapse is not None and self.sim.now() < lapse
