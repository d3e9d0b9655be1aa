"""Multi-file transactions over the SCFS consistency anchor.

SCFS (§2.4) gives per-file consistency-on-close; the sync workloads of the
paper's Figure 8 imply *multi-file* atomicity — rename trees, batched commits
— that plain close() cannot provide.  This layer adds it on top of the
existing primitives: optimistic execution, then a lock set, validation and
one atomic commit point on the one coordination service:

1. **Optimistic execution** — :meth:`Transaction.read` records the
   ``(file_id, data_version, digest)`` it served; :meth:`Transaction.write`
   only stages bytes locally.  Nothing is visible to other agents yet.
2. **Commit** (:meth:`TransactionManager.commit`) — three coordination
   commands and two rounds of uploads, whatever the size of the sets, and
   only the first command stands in front of the upload:

   a. take the write locks of the *union* of the read and write sets, sorted
      by lock name, as one all-or-nothing lock set, and
   b. in the same command (the lock rides in the command it guards) re-read
      every entry of the union;
   c. validate every read, and the version each write is based on, against
      that snapshot, taken under the locks;
   d. upload the new data versions to the cloud(s), the whole write set
      moving through the DepSky put phases together.  Each version is
      numbered by the anchor just validated — the one after the version the
      entry's locator names — so no cloud is asked for its head first;
   e. the **commit point**: one command holding an ``Update`` of every
      written entry's data fields at the entry version validated — every
      file is anchored, or nothing changed.  Steps d and e are the agent's
      one publish step (:meth:`~repro.core.agent.SCFSAgent._publish`), the
      one a close takes for its single file;
   f. release the lock set, and keep the written bytes in the local caches
      under their new versions (the committer's next read of them is local);
   g. return once the uploaded versions are expected to be readable
      (:meth:`~repro.core.backend.StorageBackend.estimate_readable_at` of the
      locators the uploads minted): the clouds acknowledge a put before
      readers see it, and a reader the caller tells about the commit would
      otherwise sit out the rest of the propagation window itself.  That
      instant runs from the block dispatch of step d, so steps e and f are
      hidden under the wait: what a commit costs is the time *to* step d.
3. **Abort/retry** — any conflict (lock held, stale read, lost lease, CAS
   mismatch) raises :class:`~repro.common.errors.TransactionConflictError`;
   :meth:`TransactionManager.run` re-executes the whole transaction body with
   bounded exponential backoff before giving up with
   :class:`~repro.common.errors.TransactionAbortedError`.  A retry knows the
   paths the failed attempt touched, so it re-reads them all with one
   command and the body's reads are served from that snapshot.  Any other
   failure of a commit attempt (a missing file, an upload that misses its
   quorum) ends the transaction the same way and re-raises as it is.

The locks serialize commits, the validation makes the serialization order
match the reads, and the CAS is defence in depth against lock-lease expiry: a
usurper that stole an expired lock bumps the entry version, so the original
holder's commit point fails as a whole instead of forking the version
history — a crash or a lost lease can no longer leave a transaction anchored
on some of its files only.  Aborts before the commit point leave zero visible
state (uploaded-but-unanchored blocks are invisible and garbage-collectable).

The trace events (``txn_begin`` / ``txn_commit`` / ``txn_abort``, plus the
per-file ``upload``/``commit`` events tagged with the transaction id) are the
raw material of the history-based serializability checker in
:mod:`repro.scenarios.invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import (
    ConflictError,
    FileNotFoundErrorFS,
    IsADirectoryErrorFS,
    LockHeldError,
    ReproError,
    TransactionAbortedError,
    TransactionConflictError,
    TransactionError,
)
from repro.core.metadata import FileMetadata, FileType, normalize_path
from repro.crypto.hashing import content_digest

if TYPE_CHECKING:
    from repro.core.agent import SCFSAgent

#: One authoritative read of some paths (``lookup_many_versioned``).
Snapshot = dict[str, tuple[FileMetadata, int] | None]

#: What each write of a commit is based on: ``(path, file_id, data_version)``.
Bases = list[tuple[str, str, int]]

#: Lifecycle states of a transaction.
ACTIVE, COMMITTED, ABORTED = "active", "committed", "aborted"

#: Commit attempts of :meth:`TransactionManager.run` (first try included)
#: before the transaction aborts.
MAX_ATTEMPTS = 4
#: Backoff before the first retry, in simulated seconds; it doubles after each
#: failed attempt, up to ``BACKOFF_MAX``.
BACKOFF = 0.2
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0


@dataclass
class ReadRecord:
    """What one transactional read observed (the validation token)."""

    path: str
    file_id: str
    version: int
    digest: str


class Transaction:
    """One multi-file transaction: staged writes plus a validated read set.

    Obtained from :meth:`TransactionManager.begin` (an agent's
    ``transactions``).  Reads are served from the authoritative anchor and recorded;
    writes stay local until :meth:`commit`.  A transaction is single-use:
    after commit or abort it refuses further operations.
    """

    def __init__(self, manager: "TransactionManager", txn_id: str) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.status = ACTIVE
        self.began = manager.agent.sim.now()
        self.attempts = 0
        self._reads: dict[str, ReadRecord] = {}
        self._read_data: dict[str, bytes] = {}
        self._writes: dict[str, bytes] = {}
        #: What a retry (:meth:`TransactionManager.run`) re-read of the paths
        #: the failed attempt touched: :meth:`read` takes its metadata from
        #: here.  It may be stale by the time of the read — so may any read;
        #: the validation under the commit's locks covers both.
        self._snapshot: Snapshot = {}
        #: ``[path, file_id, version, digest]`` of each anchored write, filled
        #: by the commit (the write set as the serializability checker sees it).
        self._committed_writes: list[list[Any]] = []

    # ------------------------------------------------------------- operations

    def _require_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionError(f"transaction {self.txn_id} is {self.status}")

    def read(self, path: str) -> bytes:
        """Read ``path`` within this transaction (repeatable, reads-your-writes)."""
        self._require_active()
        path = normalize_path(path)
        if path in self._writes:
            return self._writes[path]
        if path in self._read_data:
            return self._read_data[path]
        agent = self.manager.agent
        # A pending non-blocking close of this agent must land first: its
        # version is newer than anything the anchor knows, and basing the read
        # set on the pre-upload state would validate against a version this
        # very agent is about to replace.
        agent.flush_pending(path)
        known = self._snapshot.get(path)
        if known is not None and not known[0].deleted:
            meta = known[0]
        else:
            meta = agent.metadata.get(path, use_cache=False)
        if meta.is_directory:
            raise IsADirectoryErrorFS(f"is a directory: {path}")
        data = b""
        if meta.digest:
            data = agent.storage.read_version(meta.file_id, meta.digest, meta.locator)
        self._reads[path] = ReadRecord(path=path, file_id=meta.file_id,
                                       version=meta.data_version, digest=meta.digest)
        self._read_data[path] = data
        return data

    def write(self, path: str, data: bytes) -> None:
        """Stage ``data`` as the new content of ``path`` (visible at commit only).

        The target must already exist at commit time — transactions update
        files, the namespace operations (create/unlink/rename) stay per-file.
        """
        self._require_active()
        self._writes[normalize_path(path)] = bytes(data)

    @property
    def read_set(self) -> list[ReadRecord]:
        """The recorded reads (paths outside the write set keep their record)."""
        return [self._reads[p] for p in sorted(self._reads)]

    @property
    def write_set(self) -> list[str]:
        """Sorted paths staged for writing."""
        return sorted(self._writes)

    # -------------------------------------------------------------- lifecycle

    def commit(self) -> None:
        """One commit attempt; raises ``TransactionConflictError`` on conflict.

        On conflict the transaction is aborted (it cannot be re-committed) —
        use :meth:`TransactionManager.run` for the retrying form.
        """
        self._require_active()
        self.manager.commit(self)

    def abort(self, reason: str = "aborted by caller") -> None:
        """Drop every staged write; nothing becomes visible (no-op if finished)."""
        if self.status == ACTIVE:
            self.manager._finish_abort(self, reason)


class TransactionManager:
    """Transactional commit layer of one agent (``agent.transactions``)."""

    def __init__(self, agent: "SCFSAgent") -> None:
        self.agent = agent

    # ------------------------------------------------------------------ begin

    def begin(self) -> Transaction:
        """Start a transaction (emits ``txn_begin``)."""
        txn = Transaction(self, self.agent.sim.fresh_id("txn"))
        self.agent._emit("txn_begin", txn=txn.txn_id)
        return txn

    def run(self, body: Callable[[Transaction], Any]) -> Any:
        """Execute ``body(txn)`` and commit, retrying with bounded backoff.

        The whole body re-executes on conflict (its reads must re-observe the
        anchor), up to :data:`MAX_ATTEMPTS` times; then
        :class:`TransactionAbortedError` carries the last conflict.  A retry
        re-reads every path the failed attempt touched with one coordination
        command, before the body runs, instead of one per ``txn.read``.
        """
        backoff = BACKOFF
        last: TransactionConflictError | None = None
        touched: list[str] = []
        for attempt in range(MAX_ATTEMPTS):
            txn = self.begin()
            txn.attempts = attempt + 1
            try:
                if touched:
                    # As before every read: a pending close of this agent
                    # lands first, or the snapshot is stale on arrival.
                    for path in touched:
                        self.agent.flush_pending(path)
                    txn._snapshot = self.agent.metadata.lookup_many_versioned(touched)
                result = body(txn)
                txn.commit()
                return result
            except TransactionConflictError as exc:
                last = exc
                txn.abort(reason=str(exc))
                touched = sorted(set(txn._reads) | set(txn._writes))
                if attempt < MAX_ATTEMPTS - 1:
                    self.agent.sim.advance(backoff)
                    backoff = min(backoff * BACKOFF_FACTOR, BACKOFF_MAX)
            except BaseException:
                txn.abort(reason="body raised")
                raise
        raise TransactionAbortedError(
            f"transaction gave up after {MAX_ATTEMPTS} attempts: {last}"
        ) from last

    # ----------------------------------------------------------------- commit

    def commit(self, txn: Transaction) -> None:
        """One commit attempt of ``txn`` (see the module docstring protocol).

        However the attempt fails, the transaction is over: it ends
        ``aborted`` with the failure as its reason, and the failure re-raises
        (a held lock as the conflict it is).
        """
        if not txn._reads and not txn._writes:
            txn.status = COMMITTED
            self._emit_commit(txn)
            return
        try:
            self._commit_locked(txn)
        except LockHeldError as exc:
            self._finish_abort(txn, str(exc))
            raise TransactionConflictError(str(exc)) from exc
        except ReproError as exc:
            self._finish_abort(txn, str(exc))
            raise

    def _commit_locked(self, txn: Transaction) -> None:
        agent = self.agent
        paths = sorted(set(txn._reads) | set(txn._writes))
        for path in paths:
            agent.flush_pending(path)
        # A lock is named by the file id, which the read set already holds;
        # only write-only paths need a look at the anchor before locking.  (A
        # path recreated since the read has a new id: validation, below and
        # under the locks, then aborts the attempt.)
        seen = {path: (record.file_id, record.version) for path, record in txn._reads.items()}
        write_only = [p for p in paths if p not in seen]
        unread = self._checked(txn, write_only,
                               agent.metadata.lookup_many_versioned(write_only))
        seen.update((path, (meta.file_id, meta.data_version))
                    for path, (meta, _version) in unread.items())
        # Strict two-phase locking over the read∪write union, taken as one
        # all-or-nothing set in global lock-name order (the names are stable
        # across renames, so every committer sorts identically).
        locked = sorted((FileMetadata(path=path, file_type=FileType.FILE, owner="",
                                      file_id=file_id)
                         for path, (file_id, _version) in seen.items()),
                        key=agent.locks.lock_name)
        # Each write is based on the version known before the locks.  The
        # validation snapshot is taken by the command that grants the locks:
        # competing writers are excluded, and what it read is what the CAS
        # will see.
        bases: Bases = [(path, file_id, version)
                        for path, (file_id, version) in sorted(seen.items())
                        if path in txn._writes]
        found: Snapshot = {}
        agent.locks.acquire_set(locked, lambda also: found.update(
            agent.metadata.lookup_many_versioned(paths, also=also)))
        try:
            current = self._checked(txn, paths, found)
            self._validate(txn, current, bases)
            for meta in locked:
                if not agent.locks.still_held(meta):
                    raise TransactionConflictError(
                        f"lock lease on {meta.path} expired during commit")
            readable_at = self._anchor_writes(txn, current, bases) if bases else 0.0
            txn.status = COMMITTED
            self._emit_commit(txn)
        finally:
            agent.locks.release_set(locked)
        # The committer keeps what it wrote (always write / avoid reading):
        # its next read of these versions is served locally, as after a close.
        for path, file_id, _version, digest in txn._committed_writes:
            agent.storage.flush_to_disk(file_id, digest, txn._writes[path])
            agent.storage.store_in_memory(file_id, digest, txn._writes[path])
        # Commit returns once the new versions are expected to be readable,
        # not merely acknowledged: the clouds are eventually consistent, and a
        # reader the caller notifies inside the propagation window would sit
        # out the rest of it (Figure 3, step r2) — so "committed" means
        # "readable".  The locks are already back, so nobody else waits.
        wait = readable_at - agent.sim.now()
        if wait > 0:
            agent.sim.advance(wait)

    def _checked(self, txn: Transaction, paths: list[str], found: Snapshot,
                 ) -> dict[str, tuple[FileMetadata, int]]:
        """``found`` (one authoritative read of ``paths``) as the lock/CAS set.

        Every path must be a live file at the anchor, or the attempt is over.
        """
        current: dict[str, tuple[FileMetadata, int]] = {}
        for path in paths:
            pair = found[path]
            if pair is None or pair[0].deleted:
                if path in txn._writes and path not in txn._reads:
                    raise FileNotFoundErrorFS(f"no such file: {path}")
                raise TransactionConflictError(f"{path} disappeared mid-transaction")
            if pair[0].is_directory:
                raise IsADirectoryErrorFS(f"is a directory: {path}")
            current[path] = pair
        return current

    def _validate(self, txn: Transaction, current: dict[str, tuple[FileMetadata, int]],
                  bases: Bases) -> None:
        """Every read, and the base of every write, against the snapshot under the locks."""
        for path, record in txn._reads.items():
            meta = current[path][0]
            if (meta.file_id != record.file_id
                    or meta.data_version != record.version
                    or meta.digest != record.digest):
                raise TransactionConflictError(
                    f"stale read of {path}: saw version {record.version}, "
                    f"anchor has {meta.data_version}")
        # A write-only path was looked up before the locks: its write must
        # not be based on a version that was replaced in between.
        for path, file_id, version in bases:
            meta = current[path][0]
            if (meta.file_id, meta.data_version) != (file_id, version):
                raise TransactionConflictError(
                    f"{path} changed before its lock was granted: the write is based "
                    f"on version {version}, anchor has {meta.data_version}")

    def _anchor_writes(self, txn: Transaction, current: dict[str, tuple[FileMetadata, int]],
                       bases: Bases) -> float:
        """Publish the write set (steps d-e); returns when all of it is expected readable."""
        agent = self.agent
        now = agent.sim.now()
        writes = []
        for path, _file_id, version in bases:
            meta, entry_version = current[path]
            data = txn._writes[path]
            new_meta = meta.copy()
            new_meta.point_at(content_digest(data), len(data))
            new_meta.modified_at = now
            new_meta.data_version = version + 1
            # Numbered by the anchor: the validated entry is, under the
            # locks, the latest version there is.
            writes.append((new_meta, data,
                           agent.backend.version_after(meta.locator, meta.data_version),
                           entry_version))
        try:
            agent._publish(writes, background=False, txn=txn.txn_id)
        except ConflictError as exc:
            # Unreachable while the locks hold (validated entry versions
            # cannot move), so reaching it means the lease protection
            # failed — the caller records the abort loudly.
            raise TransactionConflictError(f"version CAS failed: {exc}") from exc
        txn._committed_writes.extend([meta.path, meta.file_id, meta.data_version, meta.digest]
                                     for meta, _data, _version, _entry in writes)
        agent.gc.maybe_schedule()
        return max(agent.backend.estimate_readable_at(meta.locator)
                   for meta, _data, _version, _entry in writes)

    # ------------------------------------------------------------------ abort

    def _finish_abort(self, txn: Transaction, reason: str) -> None:
        txn.status = ABORTED
        self.agent._emit(
            "txn_abort", txn=txn.txn_id, reason=reason[:200],
            reads=[[r.path, r.file_id, r.version] for r in txn.read_set],
            writes=[[p] for p in txn.write_set])

    def _emit_commit(self, txn: Transaction) -> None:
        self.agent._emit(
            "txn_commit", txn=txn.txn_id, began=txn.began, attempts=txn.attempts,
            reads=[[r.path, r.file_id, r.version] for r in txn.read_set],
            writes=list(txn._committed_writes))

    # ------------------------------------------------------------ rename_tree

    def rename_tree(self, old_path: str, new_path: str) -> None:
        """Atomically rename ``old_path`` (a file or a whole directory tree).

        Every *file* under the tree is locked first, as one lock set (lock
        names are keyed by file id, so they survive the rename), and the
        namespace move itself is one listing plus one conditional move per
        entry.  Concurrent closes of the moved files are excluded by the
        locks, so no background commit can resurrect the old path half-way
        through.
        """
        agent = self.agent
        old_path, new_path = normalize_path(old_path), normalize_path(new_path)
        meta = agent.metadata.get(old_path, use_cache=False)
        files = [m for m in self._walk(meta) if m.is_file]
        for m in files:
            agent.flush_pending(m.path)
        txn = self.begin()
        try:
            self._rename_locked(txn, meta, new_path, files)
        except LockHeldError as exc:
            self._finish_abort(txn, str(exc))
            raise TransactionConflictError(str(exc)) from exc
        except TransactionConflictError as exc:
            self._finish_abort(txn, str(exc))
            raise
        except BaseException as exc:
            self._finish_abort(txn, f"rename failed: {exc}")
            raise

    def _rename_locked(self, txn: Transaction, meta: FileMetadata, new_path: str,
                       files: list[FileMetadata]) -> None:
        agent = self.agent
        old_path = meta.path
        locked = sorted(files, key=agent.locks.lock_name)
        agent.locks.acquire_set(locked)
        try:
            agent.rename(old_path, new_path)
            txn.status = COMMITTED
            agent._emit("txn_commit", txn=txn.txn_id, began=txn.began, attempts=1,
                        reads=[], writes=[], renamed_from=old_path,
                        renamed_to=new_path, files=len(files))
        finally:
            agent.locks.release_set(locked)

    def _walk(self, meta: FileMetadata) -> list[FileMetadata]:
        """``meta`` plus (for directories) every live descendant."""
        if not meta.is_directory:
            return [meta]
        out = [meta]
        stack = [meta.path]
        while stack:
            directory = stack.pop()
            for child in self.agent.metadata.list_children(directory):
                out.append(child)
                if child.is_directory:
                    stack.append(child.path)
        return out
