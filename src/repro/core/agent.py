"""The SCFS Agent (§2.5): the client-side component implementing the file system.

The agent glues together the three local services (metadata, storage, locking),
the local caches, the Private Name Space, the garbage collector and the
storage backend, implementing the call flows of Figure 4:

* ``open``  — read the metadata (cache → PNS → coordination; a creating open
  sends the insert-if-absent *first* where it can tell locally that nothing
  else would be sent, and a refusal says what is there), optionally lock
  the file when opening for writing, then bring the file data into the local
  caches (from the cloud only when the locally cached copy does not match the
  anchored hash);
* ``write``/``read`` — operate purely on the main-memory copy of the open file
  (durability level 0);
* ``fsync`` — flush the open file to the local disk cache (level 1);
* ``close`` — synchronise data and metadata: push the new version to the
  cloud(s), update the metadata tuple in the coordination service (or the
  PNS), and release the write lock.  In the *blocking* mode all of this
  happens before ``close`` returns; in the *non-blocking* mode the upload, the
  metadata update and the unlock happen in the background, in that order, so
  mutual exclusion and consistency-on-close are preserved; in the
  *non-sharing* mode there is no coordination service at all and both data and
  PNS updates are pushed in the background.

The agent charges a small FUSE-crossing overhead per call plus the latency of
whatever storage layers the call actually touches, so that simulated latencies
reproduce the shape of the paper's measurements.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import (
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    FileSystemError,
    InvalidHandleError,
    IsADirectoryErrorFS,
    LockHeldError,
    NotADirectoryErrorFS,
    DirectoryNotEmptyError,
    ObjectNotFoundError,
    PermissionDeniedError,
)
from repro.common.types import ObjectRef, Permission, Principal
from repro.coordination.base import CoordinationService
from repro.core.backend import StorageBackend
from repro.core.cache import MetadataCache, make_disk_cache, make_memory_cache
from repro.core.config import SCFSConfig
from repro.core.gc import GarbageCollector
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType, normalize_path, parent_path
from repro.core.metadata_service import MetadataService
from repro.core.modes import OperationMode
from repro.core.pns import PrivateNameSpace
from repro.core.storage_service import StorageService
from repro.core.users import UserRegistry
from repro.crypto.hashing import content_digest
from repro.simenv.environment import Simulation, TaskHandle
from repro.simenv.latency import FUSE_OVERHEAD
from repro.transactions.manager import Transaction, TransactionManager


class OpenFlags(enum.Flag):
    """Subset of POSIX open(2) flags relevant to SCFS."""

    READ = enum.auto()
    WRITE = enum.auto()
    CREATE = enum.auto()
    TRUNCATE = enum.auto()
    READ_WRITE = READ | WRITE


@dataclass
class OpenFile:
    """State of one open file handle (kept in the agent's open-file table)."""

    handle: int
    metadata: FileMetadata
    flags: OpenFlags
    buffer: bytearray
    dirty: bool = False
    locked: bool = False
    private: bool = False
    fsynced_digest: str = ""

    @property
    def writable(self) -> bool:
        return bool(self.flags & OpenFlags.WRITE)


@dataclass
class AgentStatistics:
    """Counters exposed for tests, reports and the benchmark harness."""

    syscalls: int = 0
    opens: int = 0
    closes: int = 0
    reads: int = 0
    writes: int = 0
    background_uploads: int = 0
    pending_uploads: int = 0
    lock_conflicts: int = 0
    consistency_retries: int = 0
    extra: dict[str, int] = field(default_factory=dict)


#: Signature of the agent's optional event sink: ``sink(kind, **fields)``.
#: The agent stamps every event with ``agent`` (principal name) and ``time``
#: (simulated seconds); the remaining fields are event-specific scalars.  The
#: scenario engine's :class:`~repro.scenarios.trace.TraceRecorder` is the main
#: consumer, but any callable works (hooks cost nothing when unset).
EventSink = Callable[..., Any]


class SCFSAgent:
    """The user-space file-system client mounted at one user's machine."""

    def __init__(
        self,
        sim: Simulation,
        config: SCFSConfig,
        principal: Principal,
        backend: StorageBackend,
        coordination: CoordinationService | None = None,
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
        self._handles: dict[int, OpenFile] = {}
        self._next_handle = itertools.count(3)  # 0-2 "taken" by stdio, as in POSIX
        #: Files whose upload/metadata commit is still pending in the background
        #: (non-blocking and non-sharing modes); rename must redirect them.
        self._pending_commits: list[OpenFile] = []
        #: Per-file completion time of the latest scheduled background upload:
        #: uploads of the same file complete in submission order (a smaller
        #: later version must not overtake and then be clobbered by an earlier
        #: bigger one committing its metadata last).
        self._upload_fronts: dict[str, float] = {}
        #: Scheduled completion of each in-flight background commit, keyed by
        #: the open-file handle: :meth:`flush_pending` runs them early and
        #: :meth:`crash` cancels them without releasing anything.
        self._pending_tasks: dict[int, tuple[TaskHandle, Callable[[], None]]] = {}
        #: (file, user) pairs whose cloud-side ACL this agent already re-applied.
        self._acl_propagated: set[str] = set()
        self._mounted = False
        self._crashed = False

        # -- sessions and registries ----------------------------------------
        self.session = None
        if self.coordination is not None:
            self.session = self.coordination.open_session(principal, config.lock_lease)
        self.users = UserRegistry(self.coordination, self.session)
        self.users.register(principal)

        # -- local caches ------------------------------------------------------
        self.memory_cache = make_memory_cache(config.caches.memory_bytes, sim.clock)
        self.disk_cache = make_disk_cache(config.caches.disk_bytes, sim.clock)
        self.metadata_cache = MetadataCache(sim.clock, config.caches.metadata_expiration)

        # -- private name space ------------------------------------------------
        self.pns: PrivateNameSpace | None = None
        if config.private_name_spaces:
            self.pns = PrivateNameSpace(
                principal.name, backend, coordination=self.coordination, session=self.session,
                read_retry_interval=config.read_retry_interval,
                read_retry_limit=config.read_retry_limit,
            )

        # -- the three local services ------------------------------------------
        self.metadata = MetadataService(
            sim, principal, self.metadata_cache,
            coordination=self.coordination, session=self.session, pns=self.pns,
        )
        self.storage = StorageService(
            sim, backend, self.memory_cache, self.disk_cache,
            read_retry_interval=config.read_retry_interval,
            read_retry_limit=config.read_retry_limit,
        )
        self.locks = LockService(sim, self.coordination, self.session)
        self.locks.on_transition = self._lock_transition
        self.gc = GarbageCollector(sim, config.gc, self.metadata, self.storage, backend)

        # -- transactional commit layer (needs the consistency anchor) ---------
        self.transactions: TransactionManager | None = (
            TransactionManager(self) if self.coordination is not None else None
        )

        self.mount()

    # ------------------------------------------------------------------ events

    def _emit(self, kind: str, **fields) -> None:
        """Send one event to the attached sink (no-op without one)."""
        if self.events is not None:
            self.events(kind, agent=self.principal.name, time=self.sim.now(), **fields)

    def _lock_transition(self, kind: str, lock_name: str) -> None:
        # repro: allow[TRC001] -- LockService forwards kind="lock"|"unlock" only; both are declared in TRACE_SCHEMA
        self._emit(kind, lock=lock_name)

    # ------------------------------------------------------------------ mount

    def mount(self) -> None:
        """Load the user's PNS and lock it against concurrent mounts (§2.7)."""
        if self._mounted:
            return
        if self.pns is not None:
            if self.coordination is not None:
                # Lock the PNS to avoid inconsistencies caused by two clients
                # logged in as the same user.
                self.locks.acquire(FileMetadata(
                    path=f"/.pns-{self.principal.name}", file_type=FileType.FILE,
                    owner=self.principal.name, file_id=self.pns.unit_id,
                ))
            try:
                self.pns.load()
            except (FileNotFoundErrorFS, ObjectNotFoundError):
                pass
        self._mounted = True

    def unmount(self) -> None:
        """Flush every open file, persist the PNS and release all locks."""
        for handle in list(self._handles):
            self.close(handle)
        if self.pns is not None and self.pns.dirty:
            if self.config.mode.blocks_on_close:
                self.pns.save()
            else:
                # The whole flush — upload *and* anchor put — is background
                # work, as it is when a background commit saves the PNS.
                with self.sim.background():
                    self.pns.save()
        self.locks.release_all()
        if self.coordination is not None and self.session is not None:
            self.coordination.close_session(self.session)
        self._mounted = False

    # ------------------------------------------------------------------ helpers

    def _syscall(self) -> None:
        """Charge the FUSE user-space crossing overhead of one system call."""
        self.stats.syscalls += 1
        self.sim.advance(FUSE_OVERHEAD.sample(0, self.sim.rng))

    def _handle(self, handle: int) -> OpenFile:
        try:
            return self._handles[handle]
        except KeyError:
            raise InvalidHandleError(f"unknown or closed file handle {handle}") from None

    def _require_directory(self, path: str) -> FileMetadata:
        meta = self.metadata.get(path)
        if not meta.is_directory:
            raise NotADirectoryErrorFS(f"not a directory: {path}")
        return meta

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
        now = self.sim.now()
        return FileMetadata(
            path=path, file_type=FileType.FILE, owner=self.principal.name,
            created_at=now, modified_at=now, file_id=self.sim.fresh_id("file"),
        )

    # ------------------------------------------------------------------- open

    def open(self, path: str, flags: OpenFlags = OpenFlags.READ, shared: bool = False) -> int:
        """Open (optionally creating) a file and return a handle.

        ``shared`` forces a newly created file's metadata into the coordination
        service even when PNSs are enabled (used to model externally-shared
        directories and by the Figure 10(b) sweep).
        """
        self._syscall()
        self.stats.opens += 1
        path = normalize_path(path)
        user = self.principal.name
        wants_write = bool(flags & (OpenFlags.WRITE | OpenFlags.TRUNCATE))
        began = self.sim.now()

        # The cache is fine for this first look: it only decides existence,
        # permissions and the lock name.  Writers must base the new version on
        # the *latest anchored* metadata — the cache may lag a concurrent
        # close by up to its expiration and the write lock alone does not
        # refresh it — but that authoritative read happens *after* the lock is
        # held (below), so it is not paid twice here.
        meta = self.metadata.lookup(path, remote=False)
        # Insert first: "absent" is an answer the insert-if-absent gives by
        # itself, and a refusal says what is there.  Only where the insert is
        # all a create would send anyway — nothing held here says the file
        # exists, its parent is known *here* to be a live directory (asking
        # for it would cost an existing file, or a caller who may not read the
        # directory, a read it never paid), the entry goes to the coordination
        # service, and entry and lock travel in one command.
        fresh: FileMetadata | None = None
        if ((meta is None or meta.deleted) and flags & OpenFlags.CREATE
                and self._pending_commit_for(path) is None
                and self._check_parent(path, remote=False)):
            fresh = self._new_file(path)
        insert_first = (
            fresh is not None and not self.metadata.creates_privately(fresh, shared)
            and self.coordination.colocated(self.metadata.entry_key(path),
                                            self.locks.lock_name(fresh)))
        if meta is None and not insert_first:
            meta = self.metadata.lookup(path, use_cache=False)
        created = meta is None or meta.deleted
        if created:
            if not flags & OpenFlags.CREATE:
                raise FileNotFoundErrorFS(f"no such file: {path}")
            if not insert_first:
                self._check_parent(path)
            meta = fresh or self._new_file(path)
            private = self.metadata.creates_privately(meta, shared)
            # The lock of a file created here rides in the command that inserts
            # its entry: one coordination round trip, not two.
            insert = functools.partial(self.metadata.create, meta, shared)
            try:
                if wants_write and not private and self.locks.enabled:
                    # repro: allow[LCK001] -- ownership hand-off: the lock lives with the handle, close() releases it
                    self.locks.acquire(meta, insert)
                else:
                    insert()
            except FileExistsErrorFS as exc:
                # A live object is there after all (met by the insert sent
                # first, or a concurrent creator won): open what was met.
                if exc.found is None:
                    raise
                created, meta = False, exc.found
        if not created:
            # A non-blocking commit of this path may still be in flight: its
            # version is newer than anything the anchor knows yet, and this
            # agent must read its own writes (and must not base a new version
            # on the pre-upload state, which would lose the pending update).
            pending = self._pending_commit_for(path)
            if pending is not None:
                meta = pending.metadata.copy()
            private = self.metadata.is_private(meta)
        if meta.is_directory:
            raise IsADirectoryErrorFS(f"is a directory: {path}")

        needed = Permission.WRITE if wants_write else Permission.READ
        if not meta.allows(user, needed):
            raise PermissionDeniedError(f"{user} lacks {needed} permission on {path}")

        # Lock shared files opened for writing; failure surfaces as an error
        # (write-write conflicts are prevented rather than merged, §2.5.1).
        locked = wants_write and not private and self.locks.enabled
        if locked and not created:
            try:
                self.locks.acquire(meta)
            except LockHeldError:
                self.stats.lock_conflicts += 1
                raise
        try:
            if locked and not created:
                # Acquiring the lock takes one coordination round trip, during
                # which the previous holder's in-flight commit may land: the
                # (possibly cached) metadata snapshot from before the
                # acquisition can be stale, and writing on top of it would
                # fork the version history (a lost update despite mutual
                # exclusion).  The lock is the serialization point, so the
                # anchored metadata is re-validated *after* it is held.
                refreshed = self.metadata.lookup(path, use_cache=False)
                if refreshed is not None and not refreshed.deleted:
                    if refreshed.file_id != meta.file_id:
                        # The path was deleted and recreated while this open
                        # was in flight: the lock taken above guards the old
                        # incarnation's id, so move it to the current one.
                        self.locks.release(meta)
                        self.locks.acquire(refreshed)
                    meta = refreshed
                pending = self._pending_commit_for(path)
                if pending is not None:
                    meta = pending.metadata.copy()

            served = False
            if flags & OpenFlags.TRUNCATE or (created and not meta.digest):
                buffer = bytearray()
                dirty = bool(flags & OpenFlags.TRUNCATE) and bool(meta.digest)
            else:
                outcome = self.storage.read_version(meta.file_id, meta.digest, meta.locator)
                buffer = bytearray(outcome.data)
                dirty = False
                served = True
        except Exception:
            # The handle never materialises, so no close() could ever release
            # the lock: give it back before surfacing the error (a leak here
            # would block every other writer until this agent unmounts).
            if locked:
                self.locks.release(meta)
            raise

        handle = next(self._next_handle)
        self._handles[handle] = OpenFile(
            handle=handle, metadata=meta, flags=flags, buffer=buffer,
            dirty=dirty, locked=locked, private=private,
        )
        # ``served`` marks opens whose buffer was loaded from the anchored
        # version (the digest below) — the events the consistency-on-close
        # invariant checker inspects.  Truncating/creating opens serve nothing.
        # ``began`` is when the metadata snapshot deciding the served version
        # was taken: the event itself is emitted only after the (possibly
        # multi-second) data fetch, and freshness must be judged against the
        # snapshot, not the fetch completion.
        self._emit("open", path=path, file_id=meta.file_id, digest=meta.digest,
                   version=meta.data_version, served=served, write=wants_write,
                   created=created, locked=locked, handle=handle, began=began)
        return handle

    def create(self, path: str, data: bytes = b"", shared: bool = False) -> int:
        """Create (or truncate) a file, optionally writing initial data."""
        handle = self.open(path, OpenFlags.READ_WRITE | OpenFlags.CREATE | OpenFlags.TRUNCATE,
                           shared=shared)
        if data:
            self.write(handle, data)
        return handle

    # -------------------------------------------------------------- read/write

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        """Read from the in-memory copy of an open file (durability level 0)."""
        self._syscall()
        self.stats.reads += 1
        of = self._handle(handle)
        if not of.flags & OpenFlags.READ:
            raise PermissionDeniedError("file not opened for reading")
        # The data was brought to the memory cache at open time; charge one
        # memory access for the copy.
        self.memory_cache.get(self._memory_key(of))
        end = len(of.buffer) if size < 0 else min(len(of.buffer), offset + size)
        data = bytes(of.buffer[offset:end])
        self._emit("read", path=of.metadata.path, handle=handle, offset=offset,
                   size=len(data))
        return data

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        """Write into the in-memory copy of an open file (durability level 0)."""
        self._syscall()
        self.stats.writes += 1
        of = self._handle(handle)
        if not of.writable:
            raise PermissionDeniedError("file not opened for writing")
        if offset is None:
            offset = len(of.buffer)
        if offset > len(of.buffer):
            of.buffer.extend(b"\x00" * (offset - len(of.buffer)))
        of.buffer[offset:offset + len(data)] = data
        of.dirty = True
        # Update the memory cache and the cached metadata (size/mtime), as in
        # Figure 4's write flow.
        self.memory_cache.put(self._memory_key(of), bytes(of.buffer))
        of.metadata.touch(self.sim.now(), size=len(of.buffer))
        self.metadata_cache.put(of.metadata.path, of.metadata.copy())
        self._emit("write", path=of.metadata.path, handle=handle, offset=offset,
                   size=len(data))
        return len(data)

    def truncate(self, handle: int, length: int = 0) -> None:
        """Truncate (or extend with zeros) the in-memory copy of an open file."""
        self._syscall()
        of = self._handle(handle)
        if not of.writable:
            raise PermissionDeniedError("file not opened for writing")
        if length <= len(of.buffer):
            del of.buffer[length:]
        else:
            of.buffer.extend(b"\x00" * (length - len(of.buffer)))
        of.dirty = True
        of.metadata.touch(self.sim.now(), size=len(of.buffer))
        self.metadata_cache.put(of.metadata.path, of.metadata.copy())

    def _memory_key(self, of: OpenFile) -> str:
        return f"{of.metadata.file_id}#open"

    def _pending_commit_for(self, path: str) -> OpenFile | None:
        """The newest in-flight background commit of ``path``, if any."""
        newest: OpenFile | None = None
        for pending in self._pending_commits:
            if pending.metadata.path == path:
                newest = pending
        return newest

    # ------------------------------------------------------------------- fsync

    def fsync(self, handle: int) -> None:
        """Flush an open file to the local disk (durability level 1, Table 1)."""
        self._syscall()
        of = self._handle(handle)
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
        self.stats.closes += 1
        of = self._handles.pop(handle, None)
        if of is None:
            raise InvalidHandleError(f"unknown or closed file handle {handle}")
        self.memory_cache.remove(self._memory_key(of))
        if not of.dirty or not of.writable:
            self._emit("close", path=of.metadata.path, file_id=of.metadata.file_id,
                       handle=handle, dirty=False, digest=of.metadata.digest,
                       version=of.metadata.data_version)
            if of.locked:
                self.locks.release(of.metadata)
            return

        data = bytes(of.buffer)
        digest = content_digest(data)
        meta = of.metadata
        # The new version has no locator until its upload mints one.
        meta.point_at(digest, len(data))
        meta.modified_at = self.sim.now()
        meta.data_version += 1
        self._emit("close", path=meta.path, file_id=meta.file_id, handle=handle,
                   dirty=True, digest=digest, version=meta.data_version,
                   size=len(data), blocking=self.config.mode.blocks_on_close)

        # Step 1 (all modes): the updated data is copied to the local disk and
        # kept in the local caches under its new version key.
        self.storage.flush_to_disk(meta.file_id, digest, data)
        self.storage.store_in_memory(meta.file_id, digest, data)

        if self.config.mode is OperationMode.BLOCKING:
            self._commit(of, data, background=False)
        else:
            self._commit_background(of, data)
        self.gc.maybe_schedule()

    def _commit(self, of: OpenFile, data: bytes, background: bool) -> None:
        """Steps 2-4 of a close: upload, anchor the new version, unlock.

        The one commit path of every mode.  A background commit is this same
        call made later, under :meth:`Simulation.background`; ``background``
        labels the events and adds the one step such a commit needs — merging
        the metadata that landed since ``close`` returned.
        """
        meta = of.metadata
        try:
            ref = self.storage.push_to_cloud(meta.file_id, data,
                                             min_version=meta.data_version)
            self._emit("upload", path=meta.path, file_id=meta.file_id, digest=ref.digest,
                       version=meta.data_version, background=background)
            self._propagate_cloud_acls(meta)
            self._apply_committed_metadata(of, ref, merge_latest=background)
            self._emit("commit", path=meta.path, file_id=meta.file_id, digest=meta.digest,
                       version=meta.data_version, background=background,
                       locator=ref.locator)
        finally:
            # Also when the upload or the update raised: the handle is gone, so
            # a lock kept here would block every other writer until unmount.
            if of.locked:
                self.locks.release(meta)

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
            self.stats.extra["acl_propagations"] = self.stats.extra.get("acl_propagations", 0) + 1

    def _commit_background(self, of: OpenFile, data: bytes) -> None:
        """Non-blocking / non-sharing close: upload and metadata update in background."""
        meta = of.metadata
        delay = self.backend.estimate_write_latency(len(data))
        completion = self.sim.now() + delay
        front = self._upload_fronts.get(meta.file_id, 0.0)
        if completion < front:
            completion = front
        self._upload_fronts[meta.file_id] = completion
        delay = completion - self.sim.now()
        self.stats.pending_uploads += 1
        self._pending_commits.append(of)
        # The local caches already hold the new version, so the *local* user
        # immediately observes its own update; remote visibility (metadata in
        # the coordination service) only happens when the upload completes.
        self.metadata_cache.put(meta.path, meta.copy())

        def complete() -> None:
            self._pending_tasks.pop(of.handle, None)
            if self._crashed:
                return
            self.stats.pending_uploads -= 1
            self.stats.background_uploads += 1
            if of in self._pending_commits:
                self._pending_commits.remove(of)
            with self.sim.background():
                self._commit(of, data, background=True)

        task = self.sim.schedule(delay, complete, name=f"upload:{meta.path}")
        self._pending_tasks[of.handle] = (task, complete)

    def _apply_committed_metadata(self, of: OpenFile, ref: ObjectRef,
                                  merge_latest: bool) -> None:
        meta = of.metadata
        if merge_latest:
            # Background commits run after close() returned, so metadata-only
            # changes (a setfacl, an unlink, a PNS promotion) may have landed
            # in the meantime; merge them instead of clobbering the entry with
            # the snapshot taken at close time.  (Blocking commits cannot
            # race: the agent is single-threaded while close() runs.)
            latest = self.metadata.lookup(meta.path, use_cache=False)
            if latest is not None and latest.file_id != meta.file_id:
                # The path was unlinked and recreated while the upload was in
                # flight: the entry now describes a *different* file.  This
                # commit belongs to the dead incarnation — its version is in
                # the cloud(s), but it must neither overwrite the new file's
                # entry nor fail the new entry's ACL check.
                meta.deleted = True
                return
            if latest is not None:
                meta.grants = dict(latest.grants)
                meta.deleted = latest.deleted
        meta.point_at(ref.digest, ref.size, ref.locator)
        # Decide placement from the *current* state of the file, not from the
        # snapshot taken at open time: the file may have been promoted out of
        # the PNS (setfacl) while the upload was pending.
        private_now = self.pns is not None and (
            self.pns.contains(meta.path) or self.coordination is None
        )
        if private_now:
            self.pns.put(meta)
            self.pns.save()
            self.metadata_cache.put(meta.path, meta.copy())
        else:
            self.metadata.update(meta)

    # ------------------------------------------------------------ transactions

    def flush_pending(self, path: str) -> None:
        """Run the in-flight background commits of ``path`` to completion now.

        The transactional layer calls this before touching a file: a pending
        non-blocking close would otherwise anchor its version *after* the
        transaction's CAS with an unconditional update, clobbering it.
        Completing the upload early just means "it finished by now" — the
        flush point is itself a deterministic function of the schedule, so
        replay determinism is preserved.
        """
        path = normalize_path(path)
        for pending in [of for of in list(self._pending_commits)
                        if of.metadata.path == path]:
            entry = self._pending_tasks.pop(pending.handle, None)
            if entry is None:
                continue
            task, run_now = entry
            task.cancel()
            run_now()

    def begin_transaction(self) -> Transaction:
        """Start a multi-file transaction (see :mod:`repro.transactions`)."""
        if self.transactions is None:
            raise FileSystemError("transactions require a coordination service")
        return self.transactions.begin()

    def run_transaction(self, body: Callable[[Transaction], Any]) -> Any:
        """Run ``body(txn)`` with commit-conflict retries (bounded backoff)."""
        if self.transactions is None:
            raise FileSystemError("transactions require a coordination service")
        return self.transactions.run(body)

    def write_files(self, items: dict[str, bytes]) -> None:
        """Atomically replace the contents of several existing files.

        The batched close-commit: one lock phase, one intent record, one
        commit — either every file shows its new content or none does.
        """
        ordered = sorted(items.items())

        def body(txn: Transaction) -> None:
            for path, data in ordered:
                txn.write(path, data)

        self.run_transaction(body)

    def rename_tree(self, old_path: str, new_path: str) -> None:
        """Atomically rename a file or a whole directory tree.

        With a coordination service this is a locked, intent-logged
        transaction (no concurrent close can resurrect the old path half-way
        through); without one (non-sharing mode) the plain single-agent
        rename is already atomic.
        """
        if self.transactions is None:
            self.rename(old_path, new_path)
            return
        self.transactions.rename_tree(old_path, new_path)

    # ------------------------------------------------------------------- crash

    def crash(self) -> None:
        """Simulate a hard process crash of this agent.

        All volatile state is dropped: open handles disappear, scheduled
        background commits never run, and — critically — no lock is released
        and the coordination session is *not* closed.  Locks held at crash
        time expire on their own when their lease runs out, which is exactly
        the takeover window the crash/restart scenarios exercise.
        """
        self._crashed = True
        for task, _run in self._pending_tasks.values():
            task.cancel()
        self._pending_tasks.clear()
        self._pending_commits.clear()
        self._handles.clear()
        self.stats.pending_uploads = 0
        self._mounted = False

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
        """Remove an empty directory."""
        self._syscall()
        meta = self._require_directory(path)
        if self.metadata.list_children(path):
            raise DirectoryNotEmptyError(f"directory not empty: {path}")
        if not meta.allows(self.principal.name, Permission.WRITE):
            raise PermissionDeniedError(f"cannot remove {path}")
        self.metadata.remove(path)

    def readdir(self, path: str) -> list[str]:
        """List the names of the entries of a directory."""
        self._syscall()
        self._require_directory(path)
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
        self.metadata.mark_deleted(meta)
        self._emit("unlink", path=path, file_id=meta.file_id)

    def rename(self, old_path: str, new_path: str) -> None:
        """Rename a file or directory."""
        self._syscall()
        old_path, new_path = normalize_path(old_path), normalize_path(new_path)
        if parent_path(new_path) != parent_path(old_path):
            # Within one directory the source's own existence (checked by the
            # metadata service) already proves the parent exists.
            self._check_parent(new_path)
        self.metadata.rename(old_path, new_path)
        # Redirect in-flight background commits so they land on the new path
        # instead of resurrecting the old one.
        old_prefix = old_path if old_path.endswith("/") else old_path + "/"
        new_prefix = new_path if new_path.endswith("/") else new_path + "/"
        for pending in self._pending_commits:
            path = pending.metadata.path
            if path == old_path:
                pending.metadata.path = new_path
            elif path.startswith(old_prefix):
                pending.metadata.path = new_prefix + path[len(old_prefix):]

    def symlink(self, target: str, link_path: str) -> None:
        """Create a symbolic link to ``target`` at ``link_path``."""
        self._syscall()
        self._check_parent(link_path)
        now = self.sim.now()
        meta = FileMetadata(path=normalize_path(link_path), file_type=FileType.SYMLINK,
                            owner=self.principal.name, created_at=now, modified_at=now,
                            link_target=target)
        self.metadata.create(meta)

    def readlink(self, path: str) -> str:
        """Return the target of a symbolic link."""
        self._syscall()
        meta = self.metadata.get(path)
        if meta.file_type is not FileType.SYMLINK:
            raise FileSystemError(f"not a symlink: {path}")
        return meta.link_target

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
            self.metadata.update(meta)
        self.metadata.set_entry_grant(meta, username, permission)

    def getfacl(self, path: str) -> dict[str, Permission]:
        """Return the grants of ``path`` (owner excluded, as in POSIX ACLs)."""
        self._syscall()
        meta = self.metadata.get(path)
        if not meta.allows(self.principal.name, Permission.READ):
            raise PermissionDeniedError(f"cannot read permissions of {path}")
        return dict(meta.grants)

    # ------------------------------------------------------------------- misc

    def open_handles(self) -> int:
        """Number of files currently open."""
        return len(self._handles)

    def collect_garbage(self) -> object:
        """Run the garbage collector synchronously (returns its report)."""
        return self.gc.run()

    def statistics(self) -> AgentStatistics:
        """Live statistics of this agent."""
        return self.stats
