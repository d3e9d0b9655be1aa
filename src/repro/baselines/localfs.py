"""LocalFS — a FUSE-J local file system used as the evaluation baseline.

The paper compares SCFS against "a FUSE-J-based local file system (LocalFS)
implemented in Java as a baseline to ensure a fair comparison, since a native
file system presents much better performance than a FUSE-J file system"
(§4.1).  LocalFS therefore pays the user-space crossing overhead on every call
and ordinary local-disk latencies when files are persisted, but never touches
any cloud.
"""

from __future__ import annotations

from repro.baselines.base import BaselineFileSystem
from repro.simenv.environment import Simulation
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY


class LocalFS(BaselineFileSystem):
    """A purely local user-space file system (durability level 1 at best)."""

    name = "LocalFS"

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        self._files: dict[str, bytes] = {}

    # -- hooks -----------------------------------------------------------------

    def _load(self, path: str, create: bool, truncate: bool) -> bytes:
        if path not in self._files and not create:
            raise self._missing(path)
        if truncate or path not in self._files:
            self._files[path] = b""
        data = self._files[path]
        # Opening reads the file from the page cache / disk.
        self.sim.advance(MEMORY_LATENCY.sample(len(data), self.sim.rng))
        return data

    def _persist(self, path: str, data: bytes) -> None:
        # Closing (or fsyncing) a dirty file writes it back to the local disk.
        self.sim.advance(DISK_LATENCY.sample(len(data), self.sim.rng))
        self._files[path] = data

    # -- paths ------------------------------------------------------------------

    def _exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        self._syscall()
        if path not in self._files:
            raise self._missing(path)
        del self._files[path]
        # POSIX unlink-while-open: the name goes now, and a handle open on it
        # keeps its bytes without bringing the name back.
        for of in self._handles.values():
            if of.path == path:
                of.unlinked = True
        self.sim.advance(DISK_LATENCY.sample(0, self.sim.rng))
