"""POSIX-like façade over the SCFS Agent.

The real SCFS mounts the agent behind FUSE-J; applications then use the
ordinary file API.  This module provides the equivalent programmatic surface:
an :class:`SCFSFileSystem` exposes handle-based calls (open/read/write/close/
fsync) plus the usual path-based operations (mkdir, readdir, rename, unlink,
stat, setfacl…), and convenience whole-file helpers used by the examples and
benchmarks.

It also encodes Table 1 — the durability level reached by each kind of call
depending on the configured backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.types import Permission
from repro.core.agent import OpenFlags, SCFSAgent
from repro.core.metadata import FileMetadata


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


class SCFSFileSystem:
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
        """Open ``path`` with a stdio-style mode string ('r', 'r+', 'w', 'a')."""
        flags = {
            "r": OpenFlags.READ,
            "r+": OpenFlags.READ_WRITE,
            "rw": OpenFlags.READ_WRITE,
            "w": OpenFlags.READ_WRITE | OpenFlags.CREATE | OpenFlags.TRUNCATE,
            "a": OpenFlags.READ_WRITE | OpenFlags.CREATE,
        }.get(mode)
        if flags is None:
            raise ValueError(f"unsupported open mode {mode!r}")
        return self.agent.open(path, flags, shared=shared)

    def read(self, handle: int, size: int = -1, offset: int = 0) -> bytes:
        """Read from an open file."""
        return self.agent.read(handle, size, offset)

    def write(self, handle: int, data: bytes, offset: int | None = None) -> int:
        """Write to an open file (level 0 until fsync/close)."""
        return self.agent.write(handle, data, offset)

    def fsync(self, handle: int) -> None:
        """Flush an open file to the local disk (level 1)."""
        self.agent.fsync(handle)

    def truncate(self, handle: int, length: int = 0) -> None:
        """Truncate an open file."""
        self.agent.truncate(handle, length)

    def close(self, handle: int) -> None:
        """Close an open file (consistency-on-close; level 2/3 in blocking mode)."""
        self.agent.close(handle)

    # -- path-based calls -------------------------------------------------------------

    def mkdir(self, path: str, shared: bool = False) -> None:
        """Create a directory."""
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
        """True when ``path`` exists."""
        return self.agent.exists(path)

    def unlink(self, path: str) -> None:
        """Remove a file."""
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

    # -- whole-file helpers -------------------------------------------------------------

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

    # -- durability --------------------------------------------------------------------

    # -- lifecycle ----------------------------------------------------------------------

    def unmount(self) -> None:
        """Flush open state and unmount."""
        self.agent.unmount()

    def collect_garbage(self):
        """Run the garbage collector synchronously."""
        return self.agent.collect_garbage()
