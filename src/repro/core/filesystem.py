"""POSIX-like façade over the SCFS Agent, and the mount surface it shares.

The real SCFS mounts the agent behind FUSE-J; applications then use the
ordinary file API.  :class:`FileSystem` is the surface SCFS and the baselines
share: handle-based calls (open/read/write/fsync/close), mkdir/exists/unlink,
and whole-file helpers built on them, so a workload drives any mount through
one code path.  :class:`SCFSFileSystem` adds the agent's other path-based
operations (readdir, rename, stat, setfacl…) and transactions.

Below it sits the one open-file layer every mount uses — the open flags, the
:class:`OpenFile` record (the only code that changes a handle's bytes) and
the :class:`HandleTable` — so a call means the same thing on every mount.

It also encodes Table 1 — the durability level reached by each kind of call
depending on the configured backend.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Generic, TypeVar

from repro.common.errors import InvalidHandleError, PermissionDeniedError
from repro.common.types import Permission
from repro.core.metadata import FileMetadata

if TYPE_CHECKING:
    from repro.core.agent import SCFSAgent


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

    The copy rule: a read-only handle references the stored bytes it was
    opened on (they are immutable to it), and a writable handle copies them
    once, at open.  ``read`` copies out only the bytes asked for.
    """

    path: str
    flags: OpenFlags
    buffer: bytes | bytearray
    dirty: bool = False
    #: Set by the :class:`HandleTable` the file is opened in.
    handle: int = 0

    def __post_init__(self) -> None:
        if self.writable:
            self.buffer = bytearray(self.buffer)

    @property
    def writable(self) -> bool:
        return bool(self.flags & OpenFlags.WRITE)

    def read(self, size: int = -1, offset: int = 0) -> bytes:
        """The ``size`` bytes at ``offset`` (-1: to the end), one copy."""
        if not self.flags & OpenFlags.READ:
            raise PermissionDeniedError("file not opened for reading")
        end = len(self.buffer) if size < 0 else min(len(self.buffer), offset + size)
        with memoryview(self.buffer) as view:
            return bytes(view[offset:end])

    def write(self, data: bytes, offset: int | None = None) -> int:
        """Write ``data`` at ``offset`` (None: at the end), zero-filling a gap; returns the offset."""
        if offset is None:
            offset = len(self.buffer)
        self.truncate(max(offset, len(self.buffer)))
        self.buffer[offset:offset + len(data)] = data
        return offset

    def truncate(self, length: int) -> None:
        """Cut the file to ``length`` bytes, or extend it with zeros."""
        if not self.writable:
            raise PermissionDeniedError("file not opened for writing")
        if length <= len(self.buffer):
            del self.buffer[length:]
        else:
            self.buffer.extend(bytes(length - len(self.buffer)))
        self.dirty = True


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

    def copy(self, source: str, destination: str) -> None:
        """Copy a file within the file system (read whole + write whole)."""
        self.write_file(destination, self.read_file(source))


class SCFSFileSystem(FileSystem):
    """The mounted file system as seen by one user's applications."""

    def __init__(self, agent: SCFSAgent):
        self.agent = agent

    # -- identity ----------------------------------------------------------------

    @property
    def user(self) -> str:
        """Name of the user this mount belongs to."""
        return self.agent.principal.name

    @property
    def config(self):
        """The agent's :class:`~repro.core.config.SCFSConfig`."""
        return self.agent.config

    @property
    def sim(self):
        """The shared simulation environment."""
        return self.agent.sim

    # -- handle-based calls (the FUSE surface) -------------------------------------

    def open(self, path: str, mode: str = "r", shared: bool = False) -> int:
        return self.agent.open(path, self.open_flags(mode), shared=shared)

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        return self.agent.read(handle, size, offset)

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        """Write to an open file (level 0 until fsync/close)."""
        return self.agent.write(handle, data, offset)

    def fsync(self, handle: int) -> None:
        """Flush an open file to the local disk (level 1)."""
        self.agent.fsync(handle)

    def truncate(self, handle: int, length: int = 0) -> None:
        self.agent.truncate(handle, length)

    def close(self, handle: int) -> None:
        """Close an open file (consistency-on-close; level 2/3 in blocking mode)."""
        self.agent.close(handle)

    # -- path-based calls -------------------------------------------------------------

    def mkdir(self, path: str, shared: bool = False) -> None:
        self.agent.mkdir(path, shared=shared)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self.agent.rmdir(path)

    def readdir(self, path: str) -> list[str]:
        """List the entries of a directory."""
        return self.agent.readdir(path)

    def stat(self, path: str) -> FileMetadata:
        """Metadata of a path."""
        return self.agent.stat(path)

    def exists(self, path: str) -> bool:
        return self.agent.exists(path)

    def unlink(self, path: str) -> None:
        self.agent.unlink(path)

    def rename(self, old_path: str, new_path: str) -> None:
        """Rename a file or directory."""
        self.agent.rename(old_path, new_path)

    def symlink(self, target: str, link_path: str) -> None:
        """Create a symbolic link."""
        self.agent.symlink(target, link_path)

    def readlink(self, path: str) -> str:
        """Read the target of a symbolic link."""
        return self.agent.readlink(path)

    def setfacl(self, path: str, username: str, permission: Permission) -> None:
        """Grant ``permission`` on ``path`` to another user."""
        self.agent.setfacl(path, username, permission)

    def getfacl(self, path: str) -> dict[str, Permission]:
        """Return the grants of ``path``."""
        return self.agent.getfacl(path)

    # -- transactions ------------------------------------------------------------------

    def begin_transaction(self):
        """Start a multi-file transaction (commit/abort it explicitly)."""
        return self.agent.begin_transaction()

    def run_transaction(self, body):
        """Run ``body(txn)`` and commit, retrying conflicts with bounded backoff."""
        return self.agent.run_transaction(body)

    def rename_tree(self, old_path: str, new_path: str) -> None:
        """Atomically rename a file or a whole directory tree."""
        self.agent.rename_tree(old_path, new_path)

    # -- lifecycle ----------------------------------------------------------------------

    def unmount(self) -> None:
        """Flush open state and unmount."""
        self.agent.unmount()

    def collect_garbage(self):
        """Run the garbage collector synchronously."""
        return self.agent.collect_garbage()
