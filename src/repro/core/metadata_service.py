"""The SCFS Agent's metadata service (§2.5.1).

The metadata service mediates every access to file-system metadata.  It
combines three sources, in order:

1. the short-lived **metadata cache**, which absorbs the bursts of ``stat``
   style calls a single application action generates;
2. the user's **Private Name Space**, which holds the metadata of non-shared
   files locally (no coordination access at all);
3. the **coordination service**, holding one entry per *shared* file system
   object, protected by per-entry ACLs.

Every metadata tuple carries the ``(file_id, digest)`` pair of the current
data version, making the coordination service the consistency anchor of the
file data (§2.4).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

from repro.common.errors import (
    ConflictError,
    EntryDeniedError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    NotADirectoryErrorFS,
    PermissionDeniedError,
    TupleNotFoundError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Entry, Get, List, Op, Put, Session, Update
from repro.core.cache import MetadataCache
from repro.core.metadata import DATA_FIELDS, FileMetadata, FileType, normalize_path, parent_path
from repro.core.pns import PrivateNameSpace
from repro.simenv.environment import Simulation

#: Prefix of file-system metadata entries in the coordination service.
META_PREFIX = "meta:"

T = TypeVar("T")


class MetadataService:
    """Metadata lookups/updates with caching and PNS integration."""

    def __init__(
        self,
        sim: Simulation,
        principal: Principal,
        cache: MetadataCache,
        coordination: DepSpaceCoordination | None = None,
        session: Session | None = None,
        pns: PrivateNameSpace | None = None,
    ):
        if coordination is None and pns is None:
            raise ValueError("a metadata service needs a coordination service, a PNS, or both")
        self.sim = sim
        self.principal = principal
        self.cache = cache
        self.coordination = coordination
        self.session = session
        self.pns = pns

    # ------------------------------------------------------------------ keys

    @staticmethod
    def entry_key(path: str) -> str:
        """Coordination-service key of the metadata entry for ``path``."""
        return META_PREFIX + normalize_path(path)

    # ----------------------------------------------------------------- lookup

    def lookup(self, path: str, use_cache: bool = True,
               remote: bool = True) -> FileMetadata | None:
        """Return the metadata of ``path`` or None when it does not exist.

        The root directory always exists (it has an implicit entry owned by
        the mounting user).  With ``remote`` off only what this agent holds
        (cache, PNS) answers — no coordination access — and None also means
        "not known here".
        """
        path = normalize_path(path)
        if path == "/":
            return FileMetadata(path="/", file_type=FileType.DIRECTORY,
                                owner=self.principal.name)
        if use_cache:
            cached = self.cache.get(path)
            if cached is not None:
                return cached.copy()
        if self.pns is not None and self.pns.contains(path):
            meta = self.pns.get(path)
            if meta is not None:
                self.cache.put(path, meta.copy())
            return meta
        if self.pns is not None and self._under_private_directory(path):
            # Children of a private directory are private by construction, so a
            # miss in the PNS means the object does not exist — no need to ask
            # the coordination service (§2.7).
            return None
        found = self._fetch(path) if remote else None
        return found[0] if found is not None else None

    def _fetch(self, path: str) -> tuple[FileMetadata, int] | None:
        """One coordination read of ``path``: ``(metadata, entry_version)`` or None."""
        if self.coordination is None:
            return None
        try:
            entry = self.coordination.get(self.entry_key(path), self.session)
        except TupleNotFoundError:
            return None
        except ConflictError as exc:
            # The entry exists but its ACL does not allow this principal to
            # read it: surface the POSIX-flavoured error (EACCES).
            raise PermissionDeniedError(str(exc)) from exc
        return self._fetched(path, entry)

    def _fetched(self, path: str, entry: Entry) -> tuple[FileMetadata, int]:
        meta = FileMetadata.from_bytes(entry.value)
        self.cache.put(path, meta.copy())
        return meta, entry.version

    def _under_private_directory(self, path: str) -> bool:
        """True when the nearest existing ancestor of ``path`` is in the PNS."""
        if self.pns is None:
            return False
        parent = parent_path(path)
        return parent != path and self.pns.contains(parent)

    def lookup_versioned(self, path: str) -> tuple[FileMetadata, int] | None:
        """Authoritative lookup returning ``(metadata, entry_version)``.

        The entry version is the coordination service's own version counter of
        the metadata tuple — the token :meth:`update_cas` compares against.
        Only shared (coordination-anchored) entries have one; private/PNS
        entries return ``None`` (transactions require the anchor).
        """
        path = normalize_path(path)
        if self.pns is not None and self.pns.contains(path):
            return None
        return self._fetch(path)

    def lookup_locking(self, path: str, lock: Op) -> tuple[FileMetadata | None, Any]:
        """The shared entry of ``path`` read with ``lock`` riding in front: one command.

        Returns the metadata (None: absent) and the lock step's answer.
        """
        path = normalize_path(path)
        try:
            answer, entry = self.coordination.multi([lock, Get(self.entry_key(path))],
                                                    self.session)
        except EntryDeniedError as exc:
            raise PermissionDeniedError(str(exc)) from exc
        return (None if entry is None else self._fetched(path, entry)[0]), answer

    def may_be_shared(self, path: str) -> bool:
        """False when what this agent holds says ``path`` has no shared entry to read."""
        return (path != "/" and self.coordination is not None
                and not self._under_private_directory(path))

    def lookup_many_versioned(self, wanted: Sequence[str], also: Sequence[Op] = ()
                              ) -> dict[str, tuple[FileMetadata, int] | None]:
        """:meth:`lookup_versioned` of every path in ``wanted``, in one coordination read.

        The entries are read by one command, so they are one consistent
        snapshot — what the transactional commit validates under its locks,
        which ride in the same command as ``also`` (the lock service's
        ``Lock`` steps: the snapshot is then taken with the locks granted).
        """
        found: dict[str, tuple[FileMetadata, int] | None] = {
            normalize_path(path): None for path in wanted}
        shared = [path for path in found if self.pns is None or not self.pns.contains(path)]
        if self.coordination is None or not (shared or also):
            return found
        try:
            entries = self.coordination.multi(
                [*also, *(Get(self.entry_key(path)) for path in shared)],
                self.session)[len(also):]
        except ConflictError as exc:
            raise PermissionDeniedError(str(exc)) from exc
        for path, entry in zip(shared, entries, strict=True):
            if entry is not None:
                found[path] = self._fetched(path, entry)
        return found

    def get(self, path: str, use_cache: bool = True) -> FileMetadata:
        """Like :meth:`lookup` but raises ``FileNotFoundErrorFS`` when absent."""
        meta = self.lookup(path, use_cache=use_cache)
        if meta is None or meta.deleted:
            raise FileNotFoundErrorFS(f"no such file or directory: {path}")
        return meta

    def exists(self, path: str) -> bool:
        """True when ``path`` exists and is not marked deleted."""
        meta = self.lookup(path)
        return meta is not None and not meta.deleted

    # ----------------------------------------------------------------- update

    def _store(self, metadata: FileMetadata, private: bool) -> None:
        if private:
            self.pns.put(metadata)
        else:
            if self.coordination is None:
                raise PermissionDeniedError(
                    "this agent has no coordination service; only private files are supported"
                )
            self.coordination.put(self.entry_key(metadata.path), metadata.to_bytes(), self.session)
        self.cache.put(metadata.path, metadata.copy())

    def is_private(self, metadata: FileMetadata) -> bool:
        """True when the object's metadata lives in the PNS rather than the anchor."""
        return self.pns is not None and self.pns.contains(metadata.path)

    def creates_privately(self, metadata: FileMetadata, shared: bool = False) -> bool:
        """True when :meth:`create` would place ``metadata`` in the PNS.

        ``shared`` forces the entry into the coordination service even when a
        PNS is available; otherwise new objects start private whenever PNSs
        are enabled (they have no grants yet, §2.7).
        """
        return self.coordination is None or (
            self.pns is not None and not shared and not metadata.grants)

    def create(self, metadata: FileMetadata, shared: bool = False,
               also: Sequence[Op] = ()) -> FileMetadata:
        """Create a new metadata entry (placed as :meth:`creates_privately` says).

        ``also`` rides in the insert-if-absent command of a shared entry — the
        ``Lock`` of a file created by an open for writing — and again in the
        replacement of a tombstone.  ``FileExistsErrorFS.found`` is the live
        object the refused insert met, when the refusal showed it.
        """
        path = metadata.path
        private = self.creates_privately(metadata, shared)
        if self._taken_privately(path):
            raise FileExistsErrorFS(f"file exists: {path}")
        if private:
            self._store(metadata, private=True)
            return metadata
        key, blob = self.entry_key(path), metadata.to_bytes()
        try:
            self._claim(path, lambda version: self.coordination.multi(
                [Put(key, blob, version), *also], self.session))
        except ConflictError as exc:
            # A concurrent creator replaced the tombstone first.
            witness = self._witness(path, exc)
            raise FileExistsErrorFS(
                f"file exists: {path}", found=witness[0] if witness else None) from exc
        self.cache.put(path, metadata.copy())
        return metadata

    def _taken_privately(self, path: str) -> bool:
        """True when the (local, free to consult) PNS holds a live object at ``path``."""
        existing = self.pns.get(path) if self.pns is not None else None
        return existing is not None and not existing.deleted

    def _claim(self, path: str, attempt: Callable[[int], T]) -> T:
        """Take the entry of ``path`` with ``attempt(version_it_must_hold)``; its result.

        The service's insert-if-absent is the existence check: ``attempt(0)``
        succeeds in one command when nothing is there.  When the key is taken
        the refusal says by what (the entry is read only when it does not): a
        live object is EEXIST, a ``deleted`` tombstone awaiting the garbage
        collector is replaced at exactly the version met.  A denied access is
        no answer about ``path``: it re-raises at once.
        """
        try:
            return attempt(0)
        except EntryDeniedError:
            raise
        except ConflictError as exc:
            found = self._witness(path, exc) or self.lookup_versioned(path)
            if found is not None and not found[0].deleted:
                raise FileExistsErrorFS(f"file exists: {path}", found=found[0]) from exc
            return attempt(found[1] if found is not None else 0)

    def _witness(self, path: str, refusal: ConflictError) -> tuple[FileMetadata, int] | None:
        """What ``refusal`` met under the entry of ``path`` (cached), if it says."""
        entry = refusal.found
        if entry is None or entry.key != self.entry_key(path):
            return None
        return self._fetched(path, entry)

    def update(self, metadata: FileMetadata, fields: Sequence[str]) -> FileMetadata:
        """:meth:`update_many` of one entry at any version; a private one is merged in the PNS by the same rule."""
        if self.coordination is not None and not self.is_private(metadata):
            return self.update_many([(metadata, None)], fields)[0]
        current = self.pns.get(metadata.path)
        if current is None or current.file_id != metadata.file_id:
            self.cache.invalidate(metadata.path)
            raise ConflictError(f"{metadata.path} does not hold file {metadata.file_id!r}")
        merged = FileMetadata.from_fields({**current.fields(), **metadata.fields(fields)})
        self._store(merged, private=True)
        return merged

    def update_cas(self, metadata: FileMetadata, expected_version: int) -> FileMetadata:
        """Anchor the data fields of ``metadata`` iff its entry is still at ``expected_version``."""
        return self.update_many([(metadata, expected_version)], DATA_FIELDS)[0]

    def update_many(self, changes: Sequence[tuple[FileMetadata, int | None]],
                    fields: Sequence[str]) -> list[FileMetadata]:
        """Set ``fields`` of each shared entry to its ``metadata``'s values, keeping the rest: one command.

        Each ``(metadata, expected_version)`` is one ``Update``; the replicas
        refuse them all (``ConflictError``) when an entry is gone, names
        another file or is not at ``expected_version`` (None: any) — the
        check that stops a lock-lease usurper and the original holder from
        both anchoring a version.  Returns, and caches, the merged tuples; a
        refusal leaves this agent's view of each path what the refusal met.
        """
        steps = [Update(self.entry_key(metadata.path), metadata.file_id,
                        metadata.fields(fields), version) for metadata, version in changes]
        try:
            entries = self.coordination.multi(steps, self.session)
        except ConflictError as exc:
            for metadata, _version in changes:
                if self._witness(metadata.path, exc) is None:
                    self.cache.invalidate(metadata.path)
            raise
        return [self._fetched(metadata.path, entry)[0]
                for (metadata, _version), entry in zip(changes, entries)]

    def remove(self, path: str) -> None:
        """Erase a metadata entry (used by rmdir, rename and the garbage collector)."""
        path = normalize_path(path)
        if self.pns is not None and self.pns.contains(path):
            self.pns.remove(path)
        elif self.coordination is not None:
            self.coordination.delete(self.entry_key(path), self.session)
        self.cache.invalidate(path)

    def mark_deleted(self, metadata: FileMetadata) -> None:
        """Mark a file as deleted without erasing it (recoverable until GC runs).

        An :meth:`update` of ``deleted`` alone: the tombstone keeps what was
        anchored since ``metadata`` was read, and is refused
        (``ConflictError``) when the path no longer holds its file.
        """
        metadata.deleted = True
        self.update(metadata, ("deleted",))

    # ------------------------------------------------------------- directories

    def list_children(self, directory: str) -> list[FileMetadata]:
        """Metadata of every live child of ``directory`` (shared and private).

        ``directory`` must be a live directory the caller may read (ENOENT,
        ENOTDIR, EACCES otherwise).  One command: the listing, with the
        directory's own read riding in front unless this agent holds it.
        """
        directory = normalize_path(directory)
        meta = self.lookup(directory, remote=False)
        entries: list[Entry] = []
        if meta is None and self.may_be_shared(directory):
            try:
                found, entries = self.coordination.multi(
                    [Get(self.entry_key(directory)), List(self._prefix(directory))], self.session)
            except EntryDeniedError as exc:
                raise PermissionDeniedError(str(exc)) from exc
            meta = None if found is None else self._fetched(directory, found)[0]
        elif meta is not None and self.coordination is not None:
            entries = self._entries_under(directory)
        if meta is None or meta.deleted:
            raise FileNotFoundErrorFS(f"no such file or directory: {directory}")
        if not meta.is_directory:
            raise NotADirectoryErrorFS(f"not a directory: {directory}")
        children: dict[str, FileMetadata] = {}
        for entry in entries:
            path = entry.key[len(META_PREFIX):]
            if parent_path(path) != directory:
                continue
            child = FileMetadata.from_bytes(entry.value)
            if not child.deleted:
                children[path] = child
        if self.pns is not None:
            for child in self.pns.children_of(directory):
                if not child.deleted:
                    children.setdefault(child.path, child)
        return [children[p] for p in sorted(children)]

    @staticmethod
    def _prefix(directory: str) -> str:
        """The key prefix of every shared entry strictly below ``directory``."""
        # It keeps its trailing slash (``entry_key`` would normalise it away):
        # without it, ``/a/b`` would also match its sibling ``/a/b2``.
        return META_PREFIX + (directory if directory.endswith("/") else directory + "/")

    def _entries_under(self, directory: str) -> list[Entry]:
        """One listing of every shared entry strictly below ``directory``."""
        return self.coordination.list_entries(self._prefix(directory), self.session)

    # ------------------------------------------------------------------ rename

    def rename(self, old_path: str, new_path: str) -> FileMetadata:
        """Move a metadata entry (and, for directories, all its descendants).

        A shared entry moves by one ``Move`` that names no version: the
        replicas refuse it when nothing live is there (ENOENT), when the
        caller may not write it (EACCES) or when a live object holds the
        target (EEXIST), and otherwise set its ``path`` where it is stored.
        """
        old_path, new_path = normalize_path(old_path), normalize_path(new_path)
        # A shared target is checked by the move itself (see ``_claim``).
        if self._taken_privately(new_path):
            raise FileExistsErrorFS(f"file exists: {new_path}")
        private = self.pns is not None and self.pns.contains(old_path)
        if self.may_be_shared(old_path) and not private:
            try:
                renamed = self._move(old_path, new_path)
            except TupleNotFoundError as exc:
                raise FileNotFoundErrorFS(f"no such file or directory: {old_path}") from exc
            except EntryDeniedError as exc:
                raise PermissionDeniedError(
                    f"{self.principal.name} may not rename {old_path}") from exc
        else:
            meta = self.get(old_path)
            if not meta.allows(self.principal.name, Permission.WRITE):
                raise PermissionDeniedError(f"{self.principal.name} may not rename {old_path}")
            if self.exists(new_path):
                raise FileExistsErrorFS(f"file exists: {new_path}")
            renamed = meta.renamed(new_path)
            self.remove(old_path)
            self._store(renamed, private=True)
        # The object's own entry goes before a directory's descendants: a
        # taken target fails the rename before anything has moved.
        if renamed.is_directory:
            self._rename_descendants(old_path, new_path)
        return renamed

    def _move(self, old_path: str, new_path: str,
              expected_version: int | None = None) -> FileMetadata:
        """Move one shared entry to ``new_path`` (owner, ACL and version travel); what it holds there."""
        old_key, new_key = self.entry_key(old_path), self.entry_key(new_path)
        moved = self._claim(new_path, lambda version: self.coordination.move(
            old_key, new_key, {"path": new_path}, self.session, expected_version,
            target_version=version))
        self.cache.invalidate(old_path)
        return self._fetched(new_path, moved)[0]

    def _rename_descendants(self, old_dir: str, new_dir: str) -> None:
        old_prefix = old_dir if old_dir.endswith("/") else old_dir + "/"
        new_prefix = new_dir if new_dir.endswith("/") else new_dir + "/"
        if self.pns is not None:
            for path in [p for p in self.pns.paths() if p.startswith(old_prefix)]:
                meta = self.pns.remove(path)
                if meta is not None:
                    self.pns.put(meta.renamed(new_prefix + path[len(old_prefix):]))
                self.cache.invalidate(path)
        if self.coordination is None:
            return
        # One listing, then one conditional move per descendant (a tombstone
        # too: its version names it): each is moved at exactly the version
        # listed, so a concurrent update is not lost.
        for entry in self._entries_under(old_dir):
            path = entry.key[len(META_PREFIX):]
            self._move(path, new_prefix + path[len(old_prefix):], expected_version=entry.version)

    # --------------------------------------------------------------------- ACLs

    def promote_to_shared(self, metadata: FileMetadata) -> None:
        """Move a private file's metadata from the PNS to the coordination service.

        Called when permissions change on a private file (§2.7): the metadata
        is removed from the PNS and a dedicated tuple is created.
        """
        if self.coordination is None:
            raise PermissionDeniedError("cannot share files without a coordination service")
        if self.pns is not None and self.pns.contains(metadata.path):
            self.pns.remove(metadata.path)
        self._store(metadata, private=False)

    def demote_to_private(self, metadata: FileMetadata) -> None:
        """Move a no-longer-shared file's metadata back into the PNS."""
        if self.pns is None:
            return
        if self.coordination is not None:
            self.coordination.delete(self.entry_key(metadata.path), self.session)
        self.pns.put(metadata)
        self.cache.put(metadata.path, metadata.copy())

    def set_entry_grant(self, metadata: FileMetadata, user: str, permission: Permission) -> None:
        """Reflect a grant change on the coordination-service entry ACL (§2.6)."""
        if self.coordination is None or self.is_private(metadata):
            return
        self.coordination.set_entry_acl(self.entry_key(metadata.path), user, permission,
                                        self.session)

    # ----------------------------------------------------------------- listing

    def owned_paths(self) -> list[str]:
        """Paths of every object owned by this principal (garbage collection)."""
        paths: set[str] = set()
        if self.pns is not None:
            paths.update(self.pns.paths())
        if self.coordination is not None:
            for entry in self.coordination.list_entries(META_PREFIX, self.session):
                if FileMetadata.from_bytes(entry.value).owner == self.principal.name:
                    paths.add(entry.key[len(META_PREFIX):])
        return sorted(paths)
