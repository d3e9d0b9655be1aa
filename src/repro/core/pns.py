"""Private Name Spaces (§2.7).

Although file sharing is an important feature of cloud-backed storage, the
majority of files are never shared.  A Private Name Space (PNS) groups the
metadata of all *non-shared* files of one user into a single object saved in
the cloud storage, so that those files need no individual entry in the
coordination service.  Only one small *PNS tuple* per user remains there,
containing the user name and a reference (digest) of the serialized metadata
object.

This reduces both the memory footprint of the coordination service (the
1 GB → 50 MB example of §2.7) and, more importantly, the number of accesses to
it: operations on private files touch only local state, as Figure 10(b) shows.
"""

from __future__ import annotations

import json

from repro.common.errors import TupleNotFoundError
from repro.core.backend import StorageBackend
from repro.core.consistency import anchor_value, read_anchored, split_anchor_value
from repro.core.metadata import FileMetadata


class PrivateNameSpace:
    """The PNS of one user: a local metadata map backed by one cloud object.

    Parameters
    ----------
    username:
        Owner of the name space.
    backend:
        Storage backend used to persist the serialized metadata object.
    coordination / session:
        When given (blocking/non-blocking modes), the PNS digest (with the
        backend's locator) is anchored in a PNS tuple of the coordination
        service so other agents of the same user can find the latest copy.  In
        the non-sharing mode there is no coordination service and the
        reference only lives in the local mount state (the same
        simplification S3QL makes with its local metadata cache).
    """

    def __init__(self, username: str, backend: StorageBackend,
                 coordination=None, session=None):
        self.username = username
        self.backend = backend
        self.coordination = coordination
        self.session = session
        self.entries: dict[str, FileMetadata] = {}
        self.dirty = False
        #: What the anchor holds (or would hold) for the last object saved or loaded.
        self._last_anchored = ""

    # ------------------------------------------------------------------- keys

    @property
    def unit_id(self) -> str:
        """Identifier of the PNS object in the storage backend."""
        return f"pns-{self.username}"

    @property
    def tuple_key(self) -> str:
        """Key of the PNS tuple in the coordination service."""
        return f"pns/{self.username}"

    # -------------------------------------------------------------- serialise

    def _to_bytes(self) -> bytes:
        blob = {path: meta.to_bytes().decode() for path, meta in sorted(self.entries.items())}
        return json.dumps(blob, sort_keys=True).encode()

    def _from_bytes(self, blob: bytes) -> None:
        raw = json.loads(blob.decode())
        self.entries = {
            path: FileMetadata.from_bytes(serialized.encode()) for path, serialized in raw.items()
        }

    # ------------------------------------------------------------------- I/O

    def load(self) -> bool:
        """Fetch the PNS object referenced by the PNS tuple (mount time, §2.7).

        Returns True when an existing PNS was loaded, False when this is a
        fresh (empty) name space.  A mount inside the propagation window of
        the last save waits for the object like any other anchored read.
        """
        anchored = self._last_anchored
        if self.coordination is not None:
            try:
                anchored = self.coordination.get(self.tuple_key, self.session).value.decode()
            except TupleNotFoundError:
                anchored = ""
        if not anchored:
            return False
        digest, locator = split_anchor_value(anchored)
        blob = read_anchored(self.backend.sim, self.backend, self.unit_id, digest, locator)
        self._from_bytes(blob)
        self._last_anchored = anchored
        self.dirty = False
        return True

    def save(self) -> str | None:
        """Persist the serialized metadata object and re-anchor its digest.

        Returns the new digest, or None when nothing changed.  Background
        flushes (the non-blocking/non-sharing modes) call this under
        :meth:`Simulation.background`.
        """
        if not self.dirty:
            return None
        blob = self._to_bytes()
        # Numbered by the anchor, like a file's close: the version after the
        # one the last anchored locator names (the first save is version 1).
        _digest, locator = split_anchor_value(self._last_anchored)
        ref = self.backend.write_version(self.unit_id, blob,
                                         version=self.backend.version_after(locator, 0))
        self._last_anchored = anchor_value(ref)
        if self.coordination is not None:
            self.coordination.put(self.tuple_key, self._last_anchored.encode(), self.session)
        self.dirty = False
        return ref.digest

    # --------------------------------------------------------------- map API

    def contains(self, path: str) -> bool:
        """True if ``path`` is a private file of this user."""
        return path in self.entries

    def get(self, path: str) -> FileMetadata | None:
        """Metadata of a private file (None when not in the name space)."""
        meta = self.entries.get(path)
        return meta.copy() if meta is not None else None

    def put(self, metadata: FileMetadata) -> None:
        """Insert or update a private file's metadata."""
        self.entries[metadata.path] = metadata.copy()
        self.dirty = True

    def remove(self, path: str) -> FileMetadata | None:
        """Remove a private file's metadata (e.g. when it becomes shared)."""
        meta = self.entries.pop(path, None)
        if meta is not None:
            self.dirty = True
        return meta

    def paths(self) -> list[str]:
        """All private paths, sorted."""
        return sorted(self.entries)

    def children_of(self, directory: str) -> list[FileMetadata]:
        """Private metadata entries whose parent is ``directory``."""
        return [m.copy() for m in self.entries.values() if m.parent == directory and m.path != "/"]

    def __len__(self) -> int:
        return len(self.entries)
