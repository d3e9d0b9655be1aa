"""The SCFS Agent's lock service (§2.5.1).

Locks avoid write-write conflicts: a file opened for writing is locked in the
coordination service, and the lock is released when the file's updates have
reached the cloud (on ``close`` in the blocking mode, after the background
upload completes in the non-blocking mode).  Opening a file for reading never
locks it — read-write conflicts are handled by the consistency anchor instead.

Lock entries are ephemeral: if a client crashes while holding a lock, the
lease expires and the file unlocks automatically.  In the non-sharing mode
there is no coordination service and therefore no locking (a single user by
definition cannot conflict with itself across agents sharing nothing).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.errors import LockHeldError
from repro.coordination.base import CoordinationService, Session
from repro.coordination.locks import Carrier, LockManager
from repro.core.metadata import FileMetadata
from repro.simenv.environment import Simulation


class LockService:
    """Per-agent façade over the coordination service's lock recipe."""

    def __init__(
        self,
        sim: Simulation,
        coordination: CoordinationService | None,
        session: Session | None,
        retry_interval: float = 0.2,
        max_retries: int = 0,
    ):
        self.sim = sim
        self.coordination = coordination
        #: Optional observer of *actual* lock transitions, called as
        #: ``on_transition(kind, lock_name)`` with kind ``"lock"`` when the
        #: session first acquires a lock and ``"unlock"`` when the last
        #: re-entrant acquisition is released.  The scenario engine's trace
        #: recorder hooks in here.
        self.on_transition: Callable[[str, str], None] | None = None
        self._manager: LockManager | None = None
        if coordination is not None and session is not None:
            self._manager = LockManager(
                sim=sim,
                service=coordination,
                session=session,
                retry_interval=retry_interval,
                max_retries=max_retries,
            )

    @staticmethod
    def lock_name(metadata: FileMetadata) -> str:
        """Name of the lock protecting one file (keyed by its storage id)."""
        return f"filelock:{metadata.file_id or metadata.path}"

    @property
    def enabled(self) -> bool:
        """False in the non-sharing mode (no coordination service)."""
        return self._manager is not None

    def acquire(self, metadata: FileMetadata, send: Carrier | None = None) -> bool:
        """Lock ``metadata`` for writing: the one-file case of :meth:`acquire_set`."""
        return self.acquire_set([metadata], send)

    def release(self, metadata: FileMetadata) -> None:
        """Release the write lock on ``metadata``: the one-file case of :meth:`release_set`."""
        self.release_set([metadata])

    def acquire_set(self, metadatas: Sequence[FileMetadata],
                    send: Carrier | None = None) -> bool:
        """Lock every file of ``metadatas`` or none, in one coordination command.

        The transactional commit takes its whole (sorted) lock set this way.
        The lock rides in the command it guards: ``send``, when given, is the
        metadata command to run under the locks — it is called once with the
        ``Lock`` steps to put in its own ``multi``; without it they go alone.
        A re-entrant hold sends no step, and neither does a disabled lock
        service, which returns False (callers need no special-casing of the
        non-sharing mode).  On a refused command nothing stays held, no
        transition fires and :class:`LockHeldError` names the contended file;
        otherwise one ``lock`` transition fires per name actually taken
        (re-entrant names only gain a count).
        """
        if self._manager is None:
            if send is not None:
                send(())
            return False
        # Two paths of a set may share a lock (the names survive renames):
        # the set takes, and :meth:`release_set` returns, that lock once.
        paths = {self.lock_name(metadata): metadata.path for metadata in metadatas}
        try:
            taken = self._manager.acquire_set(sorted(paths), send)
        except LockHeldError as exc:
            raise LockHeldError(
                f"{paths.get(exc.lock, exc.lock)} is locked for writing by another client",
                lock=exc.lock) from exc
        self._transitions("lock", taken)
        return True

    def release_set(self, metadatas: Sequence[FileMetadata]) -> None:
        """Release what :meth:`acquire_set` of the same files took, in one command.

        Names not held are skipped.
        """
        if self._manager is None:
            return
        self._transitions("unlock", self._manager.release_set(
            sorted({self.lock_name(m) for m in metadatas})))

    def _transitions(self, kind: str, names: Sequence[str]) -> None:
        if self.on_transition is not None:
            for name in names:
                self.on_transition(kind, name)

    def release_all(self) -> None:
        """Release every lock held by this agent (unmount path)."""
        if self._manager is None:
            return
        names = list(self._manager.held)
        self._manager.release_all()
        self._transitions("unlock", names)

    def holds(self, metadata: FileMetadata) -> bool:
        """True if this agent currently holds the write lock of ``metadata``."""
        return self._manager is not None and self._manager.holds(self.lock_name(metadata))

    def still_held(self, metadata: FileMetadata) -> bool:
        """True when the coordination service still shows this agent as holder.

        Unlike :meth:`holds` (local bookkeeping), this asks the service — a
        lease may have expired under a long-running holder.  Always True with
        locking disabled (nothing can be stolen without a lock service).
        """
        if self._manager is None:
            return True
        return self._manager.still_held(self.lock_name(metadata))
