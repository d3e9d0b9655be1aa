"""The mount surface SCFS and the baselines share.

The real SCFS mounts the agent behind FUSE-J; applications then use the
ordinary file API.  :class:`FileSystem` is that API as a workload drives it:
handle-based calls (open/read/write/fsync/close), mkdir/exists/unlink, and
whole-file helpers built on them, so a workload drives any mount through one
code path.  The SCFS Agent (:class:`~repro.core.agent.SCFSAgent`) is such a
mount itself, and adds its other path-based operations (readdir, rename,
stat, setfacl…) and transactions.

Below it sits the one open-file layer every mount uses — the open flags, the
:class:`OpenFile` record (the only code that changes a handle's bytes) and
the :class:`HandleTable` — so a call means the same thing on every mount.
A handle's bytes are copy-on-write: it shares the stored immutable version
until its first in-place change, so a whole-file replace or read makes no
copy in this layer.

It also encodes Table 1 — the durability level reached by each kind of call
depending on the configured backend.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass
from typing import Any, ClassVar, Generic, TypeVar

from repro.common.errors import InvalidHandleError, PermissionDeniedError


class OpenFlags(enum.Flag):
    """Subset of POSIX open(2) flags relevant to SCFS."""

    READ = enum.auto()
    WRITE = enum.auto()
    CREATE = enum.auto()
    TRUNCATE = enum.auto()
    READ_WRITE = READ | WRITE


@dataclass
class OpenFile:
    """One open file: the bytes a handle sees and what it may do with them.

    The copy rule is copy-on-write.  A handle references the immutable stored
    bytes it was opened on until its first in-place change, which copies them
    once into a ``bytearray`` the handle owns.  ``truncate(0)`` drops the
    reference, and a ``write`` at offset 0 of exact ``bytes`` at least as long
    as the file adopts that object, so a whole-file replace copies nothing.
    A whole ``read`` of immutable bytes returns them; any other ``read``
    copies out only the bytes asked for.  ``bytes(buffer)`` of immutable
    bytes is the same object, so an ``fsync`` or a close hands them on as they
    are; :meth:`snapshot` also keeps them as the buffer.
    """

    path: str
    flags: OpenFlags
    buffer: bytes | bytearray
    dirty: bool = False
    #: Set by the :class:`HandleTable` the file is opened in.
    handle: int = 0

    def __post_init__(self) -> None:
        # Only exact ``bytes`` are immutable: a writable handle copies any
        # other buffer, which its opener could still change.
        if self.writable and type(self.buffer) is not bytes:
            self.buffer = bytearray(self.buffer)

    @property
    def writable(self) -> bool:
        return bool(self.flags & OpenFlags.WRITE)

    def read(self, size: int = -1, offset: int = 0) -> bytes:
        """The ``size`` bytes at ``offset`` (-1: to the end), at most one copy."""
        if not self.flags & OpenFlags.READ:
            raise PermissionDeniedError("file not opened for reading")
        end = len(self.buffer) if size < 0 else min(len(self.buffer), offset + size)
        if type(self.buffer) is bytes and offset == 0 and end == len(self.buffer):
            return self.buffer
        with memoryview(self.buffer) as view:
            return bytes(view[offset:end])

    def write(self, data: bytes, offset: int | None = None) -> int:
        """Write ``data`` at ``offset`` (None: at the end), zero-filling a gap; returns the offset."""
        if offset is None:
            offset = len(self.buffer)
        if offset == 0 and type(data) is bytes and len(data) >= len(self.buffer):
            self.truncate(0)
            self.buffer = data
            return offset
        self.truncate(max(offset, len(self.buffer)))
        self._own()
        self.buffer[offset:offset + len(data)] = data
        return offset

    def truncate(self, length: int) -> None:
        """Cut the file to ``length`` bytes, or extend it with zeros."""
        if not self.writable:
            raise PermissionDeniedError("file not opened for writing")
        self.dirty = True
        if length == 0:
            self.buffer = b""
        elif length != len(self.buffer):
            self._own()
            if length < len(self.buffer):
                del self.buffer[length:]
            else:
                self.buffer[len(self.buffer):] = bytes(length - len(self.buffer))

    def snapshot(self) -> bytes:
        """The file's bytes as immutable ``bytes``, kept as the buffer.

        For a record held past its close (the agent's background commit), so
        it holds no second, mutable copy.  No copy while the buffer is
        immutable; else one.
        """
        if type(self.buffer) is not bytes:
            self.buffer = bytes(self.buffer)
        return self.buffer

    def _own(self) -> None:
        """Copy immutable bytes into a ``bytearray`` this handle owns."""
        if type(self.buffer) is bytes:
            self.buffer = bytearray(self.buffer)


F = TypeVar("F", bound=OpenFile)


class HandleTable(dict[int, F], Generic[F]):
    """The open files of one mount by handle.

    Handles count from 3 (0-2 are stdio's, as in POSIX); an unknown or
    closed one is an :class:`~repro.common.errors.InvalidHandleError`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._ids = itertools.count(3)

    def __missing__(self, handle: int) -> F:
        raise InvalidHandleError(f"unknown or closed file handle {handle}")

    def add(self, of: F) -> int:
        """Open ``of`` under a new handle and return the handle."""
        of.handle = next(self._ids)
        self[of.handle] = of
        return of.handle

    def close(self, handle: int) -> F:
        """Remove ``handle`` from the table and return its open file."""
        of = self[handle]
        del self[handle]
        return of


class DurabilityLevel(enum.IntEnum):
    """The four durability levels of Table 1."""

    MAIN_MEMORY = 0
    LOCAL_DISK = 1
    CLOUD = 2
    CLOUD_OF_CLOUDS = 3


@dataclass(frozen=True)
class DurabilityRow:
    """One row of Table 1."""

    level: DurabilityLevel
    location: str
    latency: str
    fault_tolerance: str
    example_call: str


#: Table 1 of the paper, verbatim.
DURABILITY_TABLE: tuple[DurabilityRow, ...] = (
    DurabilityRow(DurabilityLevel.MAIN_MEMORY, "main memory", "microseconds", "none", "write"),
    DurabilityRow(DurabilityLevel.LOCAL_DISK, "local disk", "milliseconds", "crash", "fsync"),
    DurabilityRow(DurabilityLevel.CLOUD, "cloud", "seconds", "local disk", "close"),
    DurabilityRow(DurabilityLevel.CLOUD_OF_CLOUDS, "cloud-of-clouds", "seconds", "f clouds", "close"),
)


class FileSystem(abc.ABC):
    """A mounted file system as a workload drives it: SCFS or a baseline."""

    #: The stdio-style open modes every mount accepts, as open(2) flags.
    OPEN_MODES: ClassVar[dict[str, OpenFlags]] = {
        "r": OpenFlags.READ,
        "r+": OpenFlags.READ_WRITE,
        "rw": OpenFlags.READ_WRITE,
        "w": OpenFlags.READ_WRITE | OpenFlags.CREATE | OpenFlags.TRUNCATE,
        "a": OpenFlags.READ_WRITE | OpenFlags.CREATE,
    }

    def open_flags(self, mode: str) -> OpenFlags:
        """The flags of a stdio-style ``mode``; ``ValueError`` on an unknown one."""
        flags = self.OPEN_MODES.get(mode)
        if flags is None:
            raise ValueError(f"unsupported open mode {mode!r}")
        return flags

    @abc.abstractmethod
    def open(self, path: str, mode: str = "r", shared: bool = False) -> int:
        """Open ``path`` with a mode of :attr:`OPEN_MODES`; returns a handle."""

    @abc.abstractmethod
    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        """Read from an open file (``size`` -1: to its end)."""

    @abc.abstractmethod
    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        """Write to an open file (``offset`` None: at its end)."""

    @abc.abstractmethod
    def fsync(self, handle: int) -> None:
        """Flush an open file to the local disk."""

    @abc.abstractmethod
    def truncate(self, handle: int, length: int = 0) -> None:
        """Truncate an open file."""

    @abc.abstractmethod
    def close(self, handle: int) -> None:
        """Close an open file, persisting it per the system's semantics."""

    @abc.abstractmethod
    def mkdir(self, path: str, shared: bool = False) -> None:
        """Create a directory."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """True when ``path`` exists."""

    @abc.abstractmethod
    def unlink(self, path: str) -> None:
        """Remove a file."""

    # -- whole-file helpers ------------------------------------------------------------

    def write_file(self, path: str, data: bytes, shared: bool = False) -> None:
        """Create/replace ``path`` with ``data`` (open+write+close)."""
        handle = self.open(path, "w", shared=shared)
        try:
            if data:
                self.write(handle, data)
        finally:
            self.close(handle)

    def read_file(self, path: str) -> bytes:
        """Return the whole contents of ``path`` (open+read+close)."""
        handle = self.open(path, "r")
        try:
            return self.read(handle)
        finally:
            self.close(handle)

    def append_file(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` (creating it if needed)."""
        handle = self.open(path, "a")
        try:
            self.write(handle, data)
        finally:
            self.close(handle)


def __getattr__(name: str) -> Any:
    """``SCFSFileSystem``, the old name of the SCFS mount, is the agent.

    Imported lazily: the agent module imports this one.  The layer benchmark
    still names it (ROADMAP item 1).
    """
    if name == "SCFSFileSystem":
        from repro.core.agent import SCFSAgent

        return SCFSAgent
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
