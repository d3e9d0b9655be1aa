"""Common plumbing of the baseline file systems.

Each baseline opens its files in the handle layer of
:mod:`repro.core.filesystem` (the open-file record and handle table SCFS uses)
and inherits the whole-file helpers of
:class:`~repro.core.filesystem.FileSystem`, so that the benchmark workloads
drive SCFS and the baselines through exactly the same code path and every
call means the same thing on each mount.  A baseline supplies where a file's
bytes come from at open and go to at close, and what each call costs.
"""

from __future__ import annotations

import abc
from typing import ClassVar

from repro.common.errors import FileNotFoundErrorFS
from repro.common.types import Principal
from repro.clouds.eventual import EventuallyConsistentStore
from repro.core.filesystem import FileSystem, HandleTable, OpenFile, OpenFlags
from repro.simenv.environment import Simulation
from repro.simenv.latency import FUSE_OVERHEAD, MEMORY_LATENCY


class BaselineFileSystem(FileSystem):
    """Skeleton of a FUSE-based file system used as a comparison point."""

    name = "baseline"

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._handles: HandleTable[OpenFile] = HandleTable()

    # ------------------------------------------------------------------ utils

    def _syscall(self) -> None:
        self.sim.advance(FUSE_OVERHEAD.sample(0, self.sim.rng))

    # ----------------------------------------------------------- abstract hooks

    @abc.abstractmethod
    def _load(self, path: str, create: bool, truncate: bool) -> bytes:
        """Fetch the current contents of ``path`` for an open call."""

    @abc.abstractmethod
    def _persist(self, path: str, data: bytes) -> None:
        """Persist a dirty open file on close (semantics differ per baseline)."""

    def _sync_local(self, path: str, data: bytes) -> None:
        """fsync: make the open file durable against a crash (as a close does)."""
        self._persist(path, data)

    # --------------------------------------------------------------- handle API

    def open(self, path: str, mode: str = "r", shared: bool = False) -> int:
        flags = self.open_flags(mode)
        self._syscall()
        data = self._load(path, create=OpenFlags.CREATE in flags,
                          truncate=OpenFlags.TRUNCATE in flags)
        return self._handles.add(OpenFile(path, flags, data))

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        self._syscall()
        of = self._handles[handle]
        data = of.read(size, offset)
        self._charge_read(size if size >= 0 else len(of.buffer))
        return data

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        self._syscall()
        self._handles[handle].write(data, offset)
        self._charge_write(len(data))
        return len(data)

    def fsync(self, handle: int) -> None:
        self._syscall()
        of = self._handles[handle]
        if of.dirty and not of.unlinked:
            self._sync_local(of.path, bytes(of.buffer))

    def truncate(self, handle: int, length: int = 0) -> None:
        self._syscall()
        self._handles[handle].truncate(length)

    def close(self, handle: int) -> None:
        self._syscall()
        of = self._handles.close(handle)
        if of.dirty and not of.unlinked:
            self._persist(of.path, bytes(of.buffer))

    # ------------------------------------------------------- latency knobs

    def _charge_read(self, size: int) -> None:
        """Per-read latency: a main-memory access (overridden by baselines without memory caches)."""
        self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    def _charge_write(self, size: int) -> None:
        """Per-write latency: a main-memory access (overridden to model known slow paths)."""
        self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    # ------------------------------------------------------------------- paths

    def mkdir(self, path: str, shared: bool = False) -> None:
        """Directories need no special handling in the baselines (flat namespaces)."""
        self._syscall()

    def exists(self, path: str) -> bool:
        self._syscall()
        return self._exists(path)

    @abc.abstractmethod
    def _exists(self, path: str) -> bool:
        """Existence check of the concrete baseline."""

    def unmount(self) -> None:
        """Close any files left open."""
        for handle in list(self._handles):
            self.close(handle)

    def _missing(self, path: str) -> FileNotFoundErrorFS:
        return FileNotFoundErrorFS(f"{self.name}: no such file: {path}")


class SingleStoreFileSystem(BaselineFileSystem):
    """A baseline that keeps each file as one object of one cloud store.

    Objects are keyed ``<prefix><path>``; ``_local`` holds the local copies of
    files this mount wrote or fetched, which also absorb the store's
    read-after-write anomaly for freshly created objects.
    """

    #: Key prefix of this baseline's objects, and its default user's name.
    prefix: ClassVar[str]

    def __init__(self, sim: Simulation, store: EventuallyConsistentStore,
                 principal: Principal | None = None):
        super().__init__(sim)
        self.store = store
        self.principal = principal or Principal(f"{self.prefix}-user")
        self._local: dict[str, bytes] = {}

    def _key(self, path: str) -> str:
        return f"{self.prefix}{path}"

    def _exists(self, path: str) -> bool:
        return path in self._local or self.store.exists(self._key(path), self.principal)

    def unlink(self, path: str) -> None:
        self._syscall()
        self._local.pop(path, None)
        self.store.delete(self._key(path), self.principal)
