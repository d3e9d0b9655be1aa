"""The SCFS Agent (§2.5): the client-side component implementing the file system.

The agent glues together the three local services (metadata, storage, locking),
the local caches, the Private Name Space, the garbage collector and the
storage backend, implementing the call flows of Figure 4:

* ``open``  — read the metadata (cache → PNS → coordination; a creating open
  sends the insert-if-absent *first* where it can tell locally that nothing
  else would be sent, and a refusal says what is there), optionally lock
  the file when opening for writing — the lock rides in the command that
  reads the entry under it, and the replicas name it from that entry — then
  bring the file data into the local caches (from the cloud only when the
  locally cached copy does not match the anchored hash);
* ``write``/``read`` — operate purely on the main-memory copy of the open file
  (durability level 0);
* ``fsync`` — flush the open file to the local disk cache (level 1);
* ``close`` — synchronise data and metadata: keep the new version in the
  local caches, push it to the cloud(s), anchor it with an ``Update`` of the
  tuple's data fields in the coordination service (or the PNS) — others'
  grants and tombstones stay, and a path that no longer holds the file
  refuses — and release the write lock.  In the *blocking* mode all of this
  happens before ``close`` returns, the disk copy beside the upload; in the
  *non-blocking* mode ``close`` waits for the disk copy only and the other
  three steps happen in the background, in that order, so mutual exclusion
  and consistency-on-close are preserved; in the *non-sharing* mode there is
  no coordination service at all and both data and PNS updates are pushed in
  the background.

The agent is the mount: a :class:`~repro.core.filesystem.FileSystem`, which
applications, workloads and the scenario engine call directly.

The agent charges a small FUSE-crossing overhead per call plus the latency of
whatever storage layers the call actually waits for, so that simulated
latencies reproduce the shape of the paper's measurements.  A local cache
write waits only where it is the call's durability point (``fsync``, a
non-blocking close); a cloud read's cache fill and the disk copy of a
blocking close or a transaction commit run beside the transfer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.errors import (
    ConflictError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    FileSystemError,
    IsADirectoryErrorFS,
    LockHeldError,
    NotADirectoryErrorFS,
    ObjectNotFoundError,
    PermissionDeniedError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Op
from repro.core.backend import StorageBackend
from repro.core.cache import DISK_CACHE_BYTES, MEMORY_CACHE_BYTES, MetadataCache, make_disk_cache, make_memory_cache
from repro.core.config import SCFSConfig
from repro.core.filesystem import FileSystem, HandleTable, OpenFile, OpenFlags
from repro.core.gc import GarbageCollector
from repro.core.lock_service import FileLock, LockService
from repro.core.metadata import DATA_FIELDS, FileMetadata, FileType, normalize_path, parent_path
from repro.core.metadata_service import MetadataService
from repro.core.modes import OperationMode
from repro.core.pns import PrivateNameSpace
from repro.core.storage_service import StorageService
from repro.core.users import UserRegistry
from repro.crypto.hashing import content_digest
from repro.simenv.environment import Simulation, TaskHandle
from repro.simenv.latency import FUSE_OVERHEAD
from repro.transactions.manager import Transaction, TransactionManager


@dataclass(kw_only=True)
class AgentOpenFile(OpenFile):
    """An SCFS handle: the open file plus what its close needs.

    A background close keeps the record until its commit lands; its buffer is
    then the immutable snapshot the close uploads.
    """

    metadata: FileMetadata
    #: The write lock this handle owns; its close releases it.
    lock: FileLock | None = None
    fsynced_digest: str = ""
    #: The backend's number for the version this close uploads, taken from
    #: the anchor before the close replaced its locator.
    cloud_version: int = 0
    #: A background close's landing instant and the task scheduled to land it.
    lands_at: float = 0.0
    landing: TaskHandle | None = None


@dataclass
class AgentStatistics:
    """The agent's counters that the layer ledger reads by name."""

    syscalls: int = 0
    lock_conflicts: int = 0
    consistency_retries: int = 0


#: Signature of the agent's optional event sink: ``sink(kind, **fields)``.
#: The agent stamps every event with ``agent`` (principal name) and ``time``
#: (simulated seconds); the remaining fields are event-specific scalars.  The
#: scenario engine's :class:`~repro.scenarios.trace.TraceRecorder` is the main
#: consumer, but any callable works (hooks cost nothing when unset).
EventSink = Callable[..., Any]


class SCFSAgent(FileSystem):
    """The user-space file-system client mounted at one user's machine: the mount itself."""

    def __init__(
        self,
        sim: Simulation,
        config: SCFSConfig,
        principal: Principal,
        backend: StorageBackend,
        coordination: DepSpaceCoordination | None = None,
        events: EventSink | None = None,
    ):
        config.validate()
        if config.mode.uses_coordination and coordination is None:
            raise FileSystemError(
                f"the {config.mode.value} mode requires a coordination service"
            )
        self.sim = sim
        self.config = config
        self.principal = principal
        self.backend = backend
        self.coordination = coordination if config.mode.uses_coordination else None
        self.events = events
        self.stats = AgentStatistics()
        self._handles: HandleTable[AgentOpenFile] = HandleTable()
        #: In-flight background closes (non-blocking and non-sharing modes) by
        #: handle, in the order they were made.  :meth:`flush_pending` lands
        #: them early, :meth:`crash` cancels them without releasing anything.
        self._pending_commits: dict[int, AgentOpenFile] = {}
        #: (file, user) pairs whose cloud-side ACL this agent already re-applied.
        self._acl_propagated: set[str] = set()

        # -- the session and registries ---------------------------------------
        # A session exists exactly when a coordination service does.
        self.session = None if self.coordination is None else self.coordination.open_session(
            principal, config.lock_lease)
        self.users = UserRegistry(self.coordination, self.session)
        self.users.register(principal)

        # -- local caches ------------------------------------------------------
        self.memory_cache = make_memory_cache(MEMORY_CACHE_BYTES, sim)
        self.disk_cache = make_disk_cache(DISK_CACHE_BYTES, sim)
        self.metadata_cache = MetadataCache(sim, config.metadata_expiration)

        # -- private name space ------------------------------------------------
        self.pns: PrivateNameSpace | None = None
        if config.private_name_spaces:
            self.pns = PrivateNameSpace(
                principal.name, backend, coordination=self.coordination, session=self.session,
            )

        # -- the three local services ------------------------------------------
        self.metadata = MetadataService(
            sim, principal, self.metadata_cache,
            coordination=self.coordination, session=self.session, pns=self.pns,
        )
        self.storage = StorageService(sim, backend, self.memory_cache, self.disk_cache)
        self.storage.on_poll = self._count_poll
        self.locks = LockService(sim, self.coordination, self.session)
        self.locks.on_transition = self._lock_transition
        self.gc = GarbageCollector(sim, config.gc_threshold, self.metadata, self.storage, backend)

        # -- transactional commit layer (needs the consistency anchor) ---------
        self.transactions: TransactionManager | None = (
            TransactionManager(self) if self.coordination is not None else None
        )

        # -- mount: load the user's PNS, locked against concurrent mounts (§2.7)
        if self.pns is not None:
            if self.coordination is not None:
                # Lock the PNS to avoid inconsistencies caused by two clients
                # logged in as the same user.
                self.locks.acquire(FileMetadata(
                    path=f"/.pns-{principal.name}", file_type=FileType.FILE,
                    owner=principal.name, file_id=self.pns.unit_id,
                ))
            try:
                self.pns.load()
            except (FileNotFoundErrorFS, ObjectNotFoundError):
                pass

    @property
    def agent(self) -> SCFSAgent:
        """The agent itself: what the layer benchmark's ledger reads (ROADMAP item 1)."""
        return self

    # ------------------------------------------------------------------ events

    def _emit(self, kind: str, **fields) -> None:
        """Send one event to the attached sink (no-op without one)."""
        if self.events is not None:
            self.events(kind, agent=self.principal.name, time=self.sim.now(), **fields)

    def _count_poll(self) -> None:
        self.stats.consistency_retries += 1

    def _lock_transition(self, kind: str, lock_name: str) -> None:
        if kind == "lock":
            self._emit("lock", lock=lock_name)
        else:
            self._emit("unlock", lock=lock_name)

    # ------------------------------------------------------------------ mount

    def unmount(self) -> None:
        """Close every open file, land every in-flight close, persist the PNS, release all locks.

        In that order: a close in flight holds its file's lock until its
        version is anchored, so giving the locks back (or ending the session
        that holds them) first would let another writer fork the version.
        """
        for handle in list(self._handles):
            self.close(handle)
        self.flush_pending("/")
        if self.pns is not None and self.pns.dirty:
            if self.config.mode.blocks_on_close:
                self.pns.save()
            else:
                # The whole flush — upload *and* anchor put — is background
                # work, as it is when a background commit saves the PNS.
                with self.sim.background():
                    self.pns.save()
        self.locks.release_all()
        if self.coordination is not None:
            self.coordination.close_session(self.session)

    # ------------------------------------------------------------------ helpers

    def _syscall(self) -> None:
        """Charge the FUSE user-space crossing overhead of one system call."""
        self.stats.syscalls += 1
        self.sim.advance(FUSE_OVERHEAD.sample(0, self.sim.rng))

    def _check_parent(self, path: str, remote: bool = True) -> bool:
        """Require a live directory above ``path`` (ENOENT, ENOTDIR).

        With ``remote`` off nothing is asked of the coordination service and
        nothing raised: False when what this agent holds cannot tell.
        """
        parent = self.metadata.lookup(parent_path(path), remote=remote)
        if parent is not None and not parent.deleted and parent.is_directory:
            return True
        if not remote:
            return False
        if parent is None or parent.deleted:
            raise FileNotFoundErrorFS(f"parent directory does not exist: {parent_path(path)}")
        raise NotADirectoryErrorFS(f"not a directory: {parent_path(path)}")

    def _new_file(self, path: str) -> FileMetadata:
        """A new file at ``path``, under a fresh id that names its lock for life."""
        now = self.sim.now()
        return FileMetadata(
            path=path, file_type=FileType.FILE, owner=self.principal.name,
            created_at=now, modified_at=now, file_id=self.sim.fresh_id("file"),
        )

    # ------------------------------------------------------------------- open

    def open(self, path: str, mode: str = "r", shared: bool = False) -> int:
        """Open (optionally creating) a file with a mode of :attr:`OPEN_MODES`; returns a handle.

        Look, create (``O_CREAT`` of an absent file), lock and revalidate (a
        write-open of a shared file), load.  ``shared`` forces a newly created
        file's metadata into the coordination service even when PNSs are
        enabled (used to model externally-shared directories and by the
        Figure 10(b) sweep).
        """
        flags = self.open_flags(mode)
        self._syscall()
        path = normalize_path(path)
        wants_write = bool(flags & (OpenFlags.WRITE | OpenFlags.TRUNCATE))
        began = self.sim.now()

        # This agent's in-flight close of the file, taken before anything is
        # sent: a close landing during the open's command cannot hide it.
        pending = self._pending_commit_for(path)
        meta, fresh, lock = self._look(path, flags, shared, wants_write, pending)
        try:
            created = meta is None or meta.deleted
            if created:
                if not flags & OpenFlags.CREATE:
                    raise FileNotFoundErrorFS(f"no such file: {path}")
                meta, created, lock = self._create(path, shared, fresh, wants_write)
            private = (self.metadata.creates_privately(meta, shared) if created
                       else self.metadata.is_private(meta))
            self._refuse_open(path, meta, wants_write)
            # Lock shared files opened for writing; failure surfaces as an error
            # (write-write conflicts are prevented rather than merged, §2.5.1).
            if wants_write and not private and self.locks.enabled and lock is None:
                meta, lock = self._lock(path, meta)
            buffer, dirty, served = self._load(meta, flags, created)
        except Exception:
            # The handle never materialises, so no close() could ever release
            # the lock: give it back before surfacing the error (a leak here
            # would block every other writer until this agent unmounts).
            if lock is not None:
                lock.release()
            raise

        handle = self._handles.add(AgentOpenFile(
            path=path, flags=flags, buffer=buffer, dirty=dirty, metadata=meta, lock=lock))
        # ``served`` marks opens whose buffer was loaded from the anchored
        # version (the digest below) — the events the consistency-on-close
        # invariant checker inspects.  Truncating/creating opens serve nothing.
        # ``began`` is when the metadata snapshot deciding the served version
        # was taken: the event itself is emitted only after the (possibly
        # multi-second) data fetch, and freshness must be judged against the
        # snapshot, not the fetch completion.
        self._emit("open", path=path, file_id=meta.file_id, digest=meta.digest,
                   version=meta.data_version, served=served, write=wants_write,
                   created=created, locked=lock is not None, handle=handle, began=began)
        return handle

    def _refuse_open(self, path: str, meta: FileMetadata | None, wants_write: bool) -> None:
        """Raise what an open of ``path`` holding ``meta`` meets: ENOENT, EISDIR or EACCES."""
        if meta is None or meta.deleted:
            raise FileNotFoundErrorFS(f"no such file: {path}")
        if meta.is_directory:
            raise IsADirectoryErrorFS(f"is a directory: {path}")
        needed = Permission.WRITE if wants_write else Permission.READ
        if not meta.allows(self.principal.name, needed):
            raise PermissionDeniedError(f"{self.principal.name} lacks {needed} permission on {path}")

    def _look(self, path: str, flags: OpenFlags, shared: bool, wants_write: bool,
              pending: AgentOpenFile | None
              ) -> tuple[FileMetadata | None, FileMetadata | None, FileLock | None]:
        """The open's first look: ``(what is known of path, the file a create would make, its lock)``.

        When this agent has a close of ``path`` in flight (``pending``) and
        the look finds its file, the close's metadata is the answer: its
        version is newer than anything the anchor knows yet, so the open reads
        its own writes and bases a new version on it, and the close holds the
        file's lock, which the open then takes re-entrantly.

        Otherwise the cache is fine for this look: it only decides existence,
        permissions and the lock name.  Writers must base the new version on
        the *latest anchored* metadata — the cache may lag a concurrent close
        by up to its expiration and the write lock alone does not refresh it —
        but that authoritative read rides with the lock, so it is not paid
        twice.  A write-open that may meet a shared file sends its look with
        its lock, ``[LockFile, Get]``: the replicas take the lock of the file
        the entry names, whatever the cache said, and none this session holds.

        The new file is made here when nothing held here says the file exists
        and its parent is known *here* to be a live directory (asking for it
        would cost an existing file, or a caller who may not read the
        directory, a read it never paid).  If its entry goes to the
        coordination service nothing is looked up remotely: the create sends
        its insert first (:meth:`_inserts_first`), "absent" is an answer the
        insert-if-absent gives by itself, and a refusal says what is there.
        """
        meta = self.metadata.lookup(path, remote=False)
        if pending is not None:
            if meta is None:
                meta = self.metadata.lookup(path, use_cache=False)
            if meta is not None and not meta.deleted and meta.file_id == pending.metadata.file_id:
                meta = pending.metadata.copy()
            return meta, None, None
        fresh: FileMetadata | None = None
        if ((meta is None or meta.deleted) and flags & OpenFlags.CREATE
                and self._check_parent(path, remote=False)):
            fresh = self._new_file(path)
        if self._inserts_first(fresh, shared):
            return meta, fresh, None
        if wants_write and self.locks.enabled and (
                self.metadata.may_be_shared(path) if meta is None else self._lockable(meta)):
            meta, lock = self._lock_with_look(path)
            return meta, fresh, lock
        if meta is None:
            meta = self.metadata.lookup(path, use_cache=False)
        return meta, fresh, None

    def _inserts_first(self, fresh: FileMetadata | None, shared: bool) -> bool:
        """True when creating ``fresh`` sends its insert before anything else.

        Its entry goes to the coordination service, and entry and lock
        travel in one command.
        """
        return fresh is not None and not self.metadata.creates_privately(fresh, shared)

    def _create(self, path: str, shared: bool, fresh: FileMetadata | None,
                wants_write: bool) -> tuple[FileMetadata, bool, FileLock | None]:
        """Create ``path`` for an ``O_CREAT`` open: ``(its metadata, whether this open created it, its lock)``.

        The lock of a file created for writing rides in the command that
        inserts its entry: one coordination round trip, not two.  A live
        object met by the insert (sent first, or a concurrent creator won) is
        what the open opens instead, not locked yet.
        """
        if not self._inserts_first(fresh, shared):
            self._check_parent(path)
        meta = fresh or self._new_file(path)
        insert = functools.partial(self.metadata.create, meta, shared)
        try:
            if wants_write and not self.metadata.creates_privately(meta, shared) \
                    and self.locks.enabled:
                return meta, True, self.locks.hold(meta, insert)
            insert()
        except FileExistsErrorFS as exc:
            if exc.found is None:
                raise
            return exc.found, False, None
        return meta, True, None

    def _lock_with_look(self, path: str) -> tuple[FileMetadata | None, FileLock | None]:
        """``[LockFile, Get]`` of ``path``, one command: what its entry holds, and the lock taken.

        The replicas take the lock of the live file the entry names, so a
        write-open racing an unlink and re-create locks the file it reads.
        They take nothing for an absent, deleted or directory path, nor for
        one the caller may not write: the open then raises with no lock held.
        A live file the caller may write whose lock they did not take is one
        this session holds: its hold is a count (:meth:`LockService.hold`).
        """
        found: list[FileMetadata | None] = []

        def look(step: Op) -> str | None:
            meta, answer = self.metadata.lookup_locking(path, step)
            found.append(meta)
            return answer

        try:
            name = self.locks.acquire_file(self.metadata.entry_key(path), look)
        except LockHeldError:
            self.stats.lock_conflicts += 1
            raise
        [meta] = found
        if name is not None:
            return meta, FileLock(self.locks, meta)
        if meta is None or not self._lockable(meta):
            return meta, None
        return meta, self.locks.hold(meta)

    def _lockable(self, meta: FileMetadata) -> bool:
        """True when ``meta`` is a live shared file the caller may open for writing."""
        return (not meta.deleted and meta.is_file and not self.metadata.is_private(meta)
                and meta.allows(self.principal.name, Permission.WRITE))

    def _lock(self, path: str, meta: FileMetadata) -> tuple[FileMetadata, FileLock]:
        """Write-lock the shared file ``meta`` at ``path``: ``(what the open writes on, the lock)``.

        A lock held here already (this agent's in-flight close's, say) is
        re-entered with a count and no command, and ``meta`` stays.
        Otherwise the lock rides with the look that re-reads the entry.
        """
        if self.locks.lock_name(meta) in self.locks.held:
            return meta, self.locks.hold(meta)
        current, lock = self._lock_with_look(path)
        if lock is None:
            self._refuse_open(path, current, wants_write=True)
            raise FileNotFoundErrorFS(f"{path} changed while it was being opened")
        return current, lock

    def _load(self, meta: FileMetadata, flags: OpenFlags,
              created: bool) -> tuple[bytes, bool, bool]:
        """The open file's bytes, the cached version itself: ``(data, dirty, served from the anchored version)``."""
        if flags & OpenFlags.TRUNCATE or (created and not meta.digest):
            return b"", bool(flags & OpenFlags.TRUNCATE) and bool(meta.digest), False
        return self.storage.read_version(meta.file_id, meta.digest, meta.locator), False, True

    # -------------------------------------------------------------- read/write

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        """Read from the in-memory copy of an open file (durability level 0)."""
        self._syscall()
        of = self._handles[handle]
        data = of.read(size, offset)
        # A handle's buffer is in the memory cache once a write stored it
        # there; charge one memory access for the copy then.  A clean handle
        # is not looked up: it could only miss.
        key = self._memory_key(of)
        if self.memory_cache.contains(key):
            self.memory_cache.get(key)
        self._emit("read", path=of.path, handle=handle, offset=offset, size=len(data))
        return data

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        """Write into the in-memory copy of an open file (durability level 0)."""
        self._syscall()
        of = self._handles[handle]
        offset = of.write(data, offset)
        # Update the memory cache and the cached metadata (size/mtime), as in
        # Figure 4's write flow.  The entry is the buffer itself, not a copy.
        self.memory_cache.put(self._memory_key(of), of.buffer)
        of.metadata.touch(self.sim.now(), size=len(of.buffer))
        self._cache_metadata(of)
        self._emit("write", path=of.path, handle=handle, offset=offset,
                   size=len(data))
        return len(data)

    def truncate(self, handle: int, length: int = 0) -> None:
        """Truncate (or extend with zeros) the in-memory copy of an open file."""
        self._syscall()
        of = self._handles[handle]
        of.truncate(length)
        # Re-put the buffer, as ``write`` does: the cache records an entry's
        # size at ``put``, and the buffer's size just changed.
        self.memory_cache.put(self._memory_key(of), of.buffer)
        of.metadata.touch(self.sim.now(), size=len(of.buffer))
        self._cache_metadata(of)

    def _cache_metadata(self, of: AgentOpenFile) -> None:
        """Cache a handle's metadata under its path, unless its file was unlinked.

        The unlink cached the file's tombstone, and the path may hold a new
        file since: an unlinked handle's write or close must hide neither.
        """
        if not of.metadata.deleted:
            self.metadata_cache.put(of.metadata.path, of.metadata.copy())

    def _memory_key(self, of: AgentOpenFile) -> str:
        """The memory-cache key of a handle's buffer: one entry per handle."""
        return f"{of.handle}#open"

    def _pending_commit_for(self, path: str) -> AgentOpenFile | None:
        """The newest in-flight background commit of the file at ``path``, if any.

        An unlinked file's close is not: the path names no file, or a new one.
        """
        return next((of for of in reversed(self._pending_commits.values())
                     if of.metadata.path == path and not of.metadata.deleted), None)

    # ------------------------------------------------------------------- fsync

    def fsync(self, handle: int) -> None:
        """Flush an open file to the local disk (durability level 1, Table 1)."""
        self._syscall()
        of = self._handles[handle]
        if not of.dirty:
            return
        data = bytes(of.buffer)
        digest = content_digest(data)
        if digest != of.fsynced_digest:
            self.storage.flush_to_disk(of.metadata.file_id, digest, data)
            of.fsynced_digest = digest
            self._emit("fsync", path=of.metadata.path, handle=handle, digest=digest,
                       size=len(data))

    # ------------------------------------------------------------------- close

    def close(self, handle: int) -> None:
        """Close a file, synchronising data and metadata per the current mode."""
        self._syscall()
        of = self._handles.close(handle)
        self.memory_cache.remove(self._memory_key(of))
        if not of.dirty or not of.writable:
            self._emit("close", path=of.metadata.path, file_id=of.metadata.file_id,
                       handle=handle, dirty=False, digest=of.metadata.digest,
                       version=of.metadata.data_version)
            if of.lock is not None:
                of.lock.release()
            return

        data = of.snapshot()
        digest = content_digest(data)
        meta = of.metadata
        # Numbered by the anchor: the version after the one it names, so the
        # upload asks no cloud for the latest version first.
        of.cloud_version = self.backend.version_after(meta.locator, meta.data_version)
        # The new version has no locator until its upload mints one.
        meta.point_at(digest, len(data))
        meta.modified_at = self.sim.now()
        meta.data_version += 1
        self._emit("close", path=meta.path, file_id=meta.file_id, handle=handle,
                   dirty=True, digest=digest, version=meta.data_version,
                   size=len(data), blocking=self.config.mode.blocks_on_close)

        # Step 1 (all modes): the updated data is copied to the local disk and
        # kept in the memory cache under its new version key.  The disk copy
        # is a non-blocking close's durability point (level 1), so it waits
        # for it; a blocking close promises the clouds (level 3) and writes
        # the copy beside its upload, returning when both are done.
        if self.config.mode is OperationMode.BLOCKING:
            with self.sim.background():
                kept_at = self.sim.now() + self.storage.keep_written(meta.file_id, digest, data)
            self._commit(of, background=False)
            self.sim.advance_to(max(self.sim.now(), kept_at))
        else:
            self.storage.keep_written(meta.file_id, digest, data)
            self._commit_background(of)
        self.gc.maybe_schedule()

    def _commit(self, of: AgentOpenFile, background: bool) -> None:
        """Steps 2-4 of a close: publish the snapshot the close took, unlock.

        The one commit path of every mode.  A background commit is this same
        call made later, under :meth:`Simulation.background`; ``background``
        only labels the events.  A path that no longer holds this file
        refuses the anchor: the version is an orphan for the collector, and
        the handle's file counts as deleted.
        """
        meta = of.metadata
        try:
            self._publish([(meta, of.buffer, of.cloud_version, None)], background=background)
        except ConflictError:
            meta.deleted = True
        finally:
            # Also when the upload or the update raised: the handle is gone, so
            # a lock kept here would block every other writer until unmount.
            if of.lock is not None:
                of.lock.release()

    def _publish(self, writes: Sequence[tuple[FileMetadata, bytes, int, int | None]],
                 also: Sequence[Op] = (), **tags: Any) -> None:
        """Upload each write's version, then anchor them all (Figure 3, steps w2-w3).

        Each write is ``(metadata, data, cloud version, entry version)``: the
        cloud version is :meth:`StorageBackend.version_after` of the anchor,
        the entry version what its ``Update`` must find (None: any).  One
        command updates the data fields of every entry — a grant or a
        tombstone set since stays — behind a transaction's guard steps
        ``also`` (``ValueError`` for a close's write).  A refused anchor raises ``ConflictError`` (``LockHeldError``:
        a guard) and commits none of the versions.  ``tags`` label the ``upload`` and
        ``commit`` events.  A transaction's write set (tagged ``txn``) moves
        through the batch calls at its entry versions; a close's one write
        takes the one-version calls, the names the layer tracer wraps (ROADMAP
        1(j)), and a private file's anchor is the PNS.
        """
        transaction = "txn" in tags
        if also and not transaction:
            raise ValueError("guard steps ride only in a transaction's anchor")
        items = [(meta.file_id, data, version) for meta, data, version, _entry in writes]
        refs = (self.storage.push_many_to_cloud(items) if transaction
                else [self.storage.push_to_cloud(*item) for item in items])
        for (meta, _data, _version, _entry), ref in zip(writes, refs, strict=True):
            meta.point_at(ref.digest, ref.size, ref.locator)
            self._emit("upload", path=meta.path, file_id=meta.file_id, digest=ref.digest,
                       version=meta.data_version, **tags)
            self._propagate_cloud_acls(meta)
        if transaction:
            self.metadata.update_many(
                [(meta, entry) for meta, _data, _version, entry in writes], DATA_FIELDS, also)
        else:
            [(meta, _data, _version, _entry)] = writes
            self.metadata.update(meta, DATA_FIELDS)
            if self.metadata.is_private(meta):  # the file's placement now, not the open's
                self.pns.save()
        for meta, _data, _version, _entry in writes:
            self._emit("commit", path=meta.path, file_id=meta.file_id, digest=meta.digest,
                       version=meta.data_version, **tags, locator=meta.locator)

    def _propagate_cloud_acls(self, meta: FileMetadata) -> None:
        """Make a version written by a *grantee* readable by the owner and peers.

        New cloud objects belong to whoever uploaded them.  When that is not
        the file's owner (a user with a write grant updated the file), the
        other parties would be unable to download the new version, so the
        writer re-applies the file's ACL to the storage prefix.  Done at most
        once per (file, party) pair per agent.
        """
        if meta.owner == self.principal.name:
            return
        parties = {meta.owner: Permission.READ_WRITE}
        for user, permission in meta.grants.items():
            # "*" is a pseudo-user (world grant, covered by bucket policies on
            # the clouds) — there is no registry entry to look up for it.
            if user != self.principal.name and user != "*":
                parties[user] = permission
        for user, permission in parties.items():
            marker = f"aclprop:{meta.file_id}:{user}"
            if marker in self._acl_propagated:
                continue
            try:
                grantee = self.users.lookup(user)
            except FileNotFoundErrorFS:
                continue
            self.backend.set_acl(meta.file_id, grantee, permission)
            self._acl_propagated.add(marker)

    def _commit_background(self, of: AgentOpenFile) -> None:
        """Non-blocking / non-sharing close: upload and metadata update in background.

        The close lands after the backend's estimate of its upload, and no
        earlier than the latest in-flight close of the same file: a smaller
        later version must not overtake an earlier bigger one and then be
        clobbered by its anchor.
        """
        meta = of.metadata
        of.lands_at = max([self.sim.now() + self.backend.estimate_write_latency(len(of.buffer))]
                          + [pending.lands_at for pending in self._pending_commits.values()
                             if pending.metadata.file_id == meta.file_id])
        # The local caches already hold the new version, so the *local* user
        # immediately observes its own update; remote visibility (metadata in
        # the coordination service) only happens when the upload completes.
        self._cache_metadata(of)
        of.landing = self.sim.schedule(of.lands_at - self.sim.now(),
                                       functools.partial(self._land, of),
                                       name=f"upload:{meta.path}")
        self._pending_commits[of.handle] = of

    def _land(self, of: AgentOpenFile) -> None:
        """Land an in-flight close (at its instant, or at a flush): its commit, as background work."""
        del self._pending_commits[of.handle]
        with self.sim.background():
            self._commit(of, background=True)

    # ------------------------------------------------------------ transactions

    def flush_pending(self, path: str) -> None:
        """Run the in-flight background commits of ``path`` and below it to completion now.

        The transactional layer calls this before touching a file: a pending
        non-blocking close would otherwise anchor its version *after* the
        transaction's CAS with an unconditional update, clobbering it.
        :meth:`rename` calls it before it moves anything, :meth:`unmount` (on
        ``/``) before it gives the locks back.  The caller waits for each
        upload: the clock moves to the close's landing instant, where its
        scheduled landing runs (or, when the caller is itself a task running,
        which runs no other, the landing is run there).
        """
        path = normalize_path(path)
        prefix = path.rstrip("/") + "/"
        for of in [of for of in self._pending_commits.values()
                   if of.metadata.path == path or of.metadata.path.startswith(prefix)]:
            # One landing may move the clock past another's own instant.
            if of.handle in self._pending_commits:
                self.sim.advance_to(max(self.sim.now(), of.lands_at))
            if of.handle in self._pending_commits:
                of.landing.cancel()
                self._land(of)

    def run_transaction(self, body: Callable[[Transaction], Any]) -> Any:
        """Run ``body(txn)`` with commit-conflict retries (bounded backoff)."""
        if self.transactions is None:
            raise FileSystemError("transactions require a coordination service")
        return self.transactions.run(body)

    def rename_tree(self, old_path: str, new_path: str) -> None:
        """Atomically rename a file or a whole directory tree.

        With a coordination service the move is refused while another
        session holds the write lock of a file in the tree (see
        :meth:`TransactionManager.rename_tree`); without one (non-sharing
        mode) the plain single-agent rename is already atomic.
        """
        if self.transactions is None:
            self.rename(old_path, new_path)
            return
        self.transactions.rename_tree(*self._moving(old_path, new_path))

    # ------------------------------------------------------------------- crash

    def crash(self) -> None:
        """Simulate a hard process crash of this agent.

        All volatile state is dropped: open handles disappear, scheduled
        background commits never run, and — critically — no lock is released
        and the coordination session is *not* closed.  Locks held at crash
        time expire on their own when their lease runs out, which is exactly
        the takeover window the crash/restart scenarios exercise.
        """
        for of in self._pending_commits.values():
            of.landing.cancel()
        self._pending_commits.clear()
        self._handles.clear()

    # -------------------------------------------------------------- namespace

    def mkdir(self, path: str, shared: bool = False) -> None:
        """Create a directory."""
        self._syscall()
        path = normalize_path(path)
        self._check_parent(path)
        now = self.sim.now()
        meta = FileMetadata(path=path, file_type=FileType.DIRECTORY, owner=self.principal.name,
                            created_at=now, modified_at=now)
        self.metadata.create(meta, shared=shared)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory: one command for a shared one, whose checks are the replicas'."""
        self._syscall()
        self.metadata.remove(path, directory=True)

    def readdir(self, path: str) -> list[str]:
        """List the names of the entries of a directory (its check rides with the listing)."""
        self._syscall()
        return [m.name for m in self.metadata.list_children(path)]

    def stat(self, path: str) -> FileMetadata:
        """Return the metadata of a path (the equivalent of ``stat(2)``)."""
        self._syscall()
        return self.metadata.get(path)

    def exists(self, path: str) -> bool:
        """True when ``path`` exists and is not deleted."""
        self._syscall()
        return self.metadata.exists(path)

    def unlink(self, path: str) -> None:
        """Remove a file (marked deleted; storage reclaimed later by the GC)."""
        self._syscall()
        meta = self.metadata.get(path)
        if meta.is_directory:
            raise IsADirectoryErrorFS(f"is a directory: {path}")
        if not meta.allows(self.principal.name, Permission.WRITE):
            raise PermissionDeniedError(f"cannot remove {path}")
        try:
            self.metadata.mark_deleted(meta)
        except ConflictError as exc:
            raise FileNotFoundErrorFS(f"{path} no longer holds this file") from exc
        # POSIX unlink-while-open: the name goes now, and a handle open on the
        # file keeps its bytes.  The handle caches nothing under the path
        # since, and its close carries the tombstone, so neither brings the
        # name back or hides a file re-created there.
        for of in self._handles.values():
            if of.metadata.file_id == meta.file_id:
                of.metadata.deleted = True
        self._emit("unlink", path=path, file_id=meta.file_id)

    def rename(self, old_path: str, new_path: str) -> None:
        """Rename a file or directory."""
        self.metadata.rename(*self._moving(old_path, new_path))

    def _moving(self, old_path: str, new_path: str) -> tuple[str, str]:
        """Start a rename: the normalised paths, once the target's parent is checked."""
        self._syscall()
        old_path, new_path = normalize_path(old_path), normalize_path(new_path)
        if parent_path(new_path) != parent_path(old_path):
            # Within one directory the source's own existence (checked by the
            # metadata service) already proves the parent exists.
            self._check_parent(new_path)
        # This agent's in-flight commits at and below ``old_path`` land first:
        # one landing after the move would resurrect the old path.
        self.flush_pending(old_path)
        return old_path, new_path

    # -------------------------------------------------------------------- ACLs

    def setfacl(self, path: str, username: str, permission: Permission) -> None:
        """Grant ``permission`` on ``path`` to ``username`` (§2.6).

        Updates, in order: the cloud-side ACLs of the objects storing the file
        data (so the grantee's *cloud accounts* can fetch them), the metadata
        tuple's grants, and the entry ACL in the coordination service.  A
        private file becomes shared and its metadata moves out of the PNS.
        """
        self._syscall()
        meta = self.metadata.get(path)
        if meta.owner != self.principal.name:
            raise PermissionDeniedError(f"only the owner may change permissions of {path}")
        if self.coordination is None:
            raise PermissionDeniedError("sharing requires a coordination service "
                                        "(not available in the non-sharing mode)")
        grantee = self.users.lookup(username)
        was_private = self.metadata.is_private(meta)
        if meta.is_file and meta.file_id:
            self.backend.set_acl(meta.file_id, grantee, permission)
        meta.grant(username, permission)
        if was_private and meta.is_shared:
            self.metadata.promote_to_shared(meta)
        elif not meta.is_shared and not was_private and self.pns is not None:
            # The last grant was revoked: the file is private again (§2.7).
            self.metadata.demote_to_private(meta)
        else:
            # The grants alone: the data fields are the anchor's, not a cached snapshot's.
            try:
                self.metadata.update(meta, ("grants",))
            except ConflictError as exc:
                raise FileNotFoundErrorFS(f"{path} no longer holds this file") from exc
        self.metadata.set_entry_grant(meta, username, permission)

    def getfacl(self, path: str) -> dict[str, Permission]:
        """Return the grants of ``path`` (owner excluded, as in POSIX ACLs)."""
        self._syscall()
        meta = self.metadata.get(path)
        if not meta.allows(self.principal.name, Permission.READ):
            raise PermissionDeniedError(f"cannot read permissions of {path}")
        return dict(meta.grants)

    # ------------------------------------------------------------------- misc

    def collect_garbage(self) -> object:
        """Run the garbage collector synchronously (returns its report)."""
        return self.gc.run()
