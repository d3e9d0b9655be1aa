"""Common plumbing of the baseline file systems.

Each baseline implements the handle-based calls (open/read/write/fsync/close)
of :class:`~repro.core.filesystem.FileSystem` and inherits its whole-file
helpers, so that the benchmark workloads can drive SCFS and the baselines
through exactly the same code path.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field

from repro.common.errors import (
    FileNotFoundErrorFS,
    InvalidHandleError,
    PermissionDeniedError,
)
from repro.core.agent import OpenFlags
from repro.core.filesystem import FileSystem
from repro.simenv.environment import Simulation
from repro.simenv.latency import FUSE_OVERHEAD


@dataclass
class BaselineOpenFile:
    """Open-file state shared by the baseline implementations."""

    handle: int
    path: str
    buffer: bytearray
    writable: bool
    dirty: bool = False
    extra: dict = field(default_factory=dict)


class BaselineFileSystem(FileSystem):
    """Skeleton of a FUSE-based file system used as a comparison point."""

    name = "baseline"

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._handles: dict[int, BaselineOpenFile] = {}
        self._next_handle = itertools.count(3)

    # ------------------------------------------------------------------ utils

    def _syscall(self) -> None:
        self.sim.advance(FUSE_OVERHEAD.sample(0, self.sim.rng))

    def _handle(self, handle: int) -> BaselineOpenFile:
        try:
            return self._handles[handle]
        except KeyError:
            raise InvalidHandleError(f"unknown or closed file handle {handle}") from None

    def _register(self, path: str, buffer: bytearray, writable: bool) -> int:
        handle = next(self._next_handle)
        self._handles[handle] = BaselineOpenFile(
            handle=handle, path=path, buffer=buffer, writable=writable
        )
        return handle

    # ----------------------------------------------------------- abstract hooks

    @abc.abstractmethod
    def _load(self, path: str, create: bool, truncate: bool) -> bytearray:
        """Fetch the current contents of ``path`` for an open call."""

    @abc.abstractmethod
    def _persist(self, of: BaselineOpenFile) -> None:
        """Persist a dirty open file on close (semantics differ per baseline)."""

    @abc.abstractmethod
    def _sync_local(self, of: BaselineOpenFile) -> None:
        """fsync: make the open file durable against a crash."""

    # --------------------------------------------------------------- handle API

    def open(self, path: str, mode: str = "r", shared: bool = False) -> int:
        flags = self.open_flags(mode)
        self._syscall()
        buffer = self._load(path, create=OpenFlags.CREATE in flags,
                            truncate=OpenFlags.TRUNCATE in flags)
        return self._register(path, buffer, writable=OpenFlags.WRITE in flags)

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        self._syscall()
        of = self._handle(handle)
        self._charge_read(of, size if size >= 0 else len(of.buffer))
        end = len(of.buffer) if size < 0 else min(len(of.buffer), offset + size)
        return bytes(of.buffer[offset:end])

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        self._syscall()
        of = self._handle(handle)
        if not of.writable:
            raise PermissionDeniedError("file not opened for writing")
        if offset is None:
            offset = len(of.buffer)
        if offset > len(of.buffer):
            of.buffer.extend(b"\x00" * (offset - len(of.buffer)))
        of.buffer[offset:offset + len(data)] = data
        of.dirty = True
        self._charge_write(of, len(data))
        return len(data)

    def fsync(self, handle: int) -> None:
        self._syscall()
        of = self._handle(handle)
        if of.dirty:
            self._sync_local(of)

    def truncate(self, handle: int, length: int = 0) -> None:
        self._syscall()
        of = self._handle(handle)
        if length <= len(of.buffer):
            del of.buffer[length:]
        else:
            of.buffer.extend(b"\x00" * (length - len(of.buffer)))
        of.dirty = True

    def close(self, handle: int) -> None:
        self._syscall()
        of = self._handles.pop(handle, None)
        if of is None:
            raise InvalidHandleError(f"unknown or closed file handle {handle}")
        if of.dirty and of.writable:
            self._persist(of)

    # ------------------------------------------------------- latency knobs

    def _charge_read(self, of: BaselineOpenFile, size: int) -> None:
        """Extra per-read latency (overridden by baselines without memory caches)."""

    def _charge_write(self, of: BaselineOpenFile, size: int) -> None:
        """Extra per-write latency (overridden to model known slow paths)."""

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
