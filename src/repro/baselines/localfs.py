"""LocalFS — a FUSE-J local file system used as the evaluation baseline.

The paper compares SCFS against "a FUSE-J-based local file system (LocalFS)
implemented in Java as a baseline to ensure a fair comparison, since a native
file system presents much better performance than a FUSE-J file system"
(§4.1).  LocalFS therefore pays the user-space crossing overhead on every call
and ordinary local-disk latencies when files are persisted, but never touches
any cloud.
"""

from __future__ import annotations

from repro.baselines.base import BaselineFileSystem, BaselineOpenFile
from repro.simenv.environment import Simulation
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY


class LocalFS(BaselineFileSystem):
    """A purely local user-space file system (durability level 1 at best)."""

    name = "LocalFS"

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        self._files: dict[str, bytes] = {}

    # -- hooks -----------------------------------------------------------------

    def _load(self, path: str, create: bool, truncate: bool) -> bytearray:
        if path not in self._files:
            if not create:
                raise self._missing(path)
            self._files[path] = b""
        if truncate:
            self._files[path] = b""
        data = b"" if truncate else self._files[path]
        # Opening reads the file from the page cache / disk.
        self.sim.advance(MEMORY_LATENCY.sample(len(data), self.sim.rng))
        return bytearray(data)

    def _persist(self, of: BaselineOpenFile) -> None:
        # Closing a dirty file writes it back to the local disk.
        self.sim.advance(DISK_LATENCY.sample(len(of.buffer), self.sim.rng))
        self._files[of.path] = bytes(of.buffer)

    def _sync_local(self, of: BaselineOpenFile) -> None:
        self.sim.advance(DISK_LATENCY.sample(len(of.buffer), self.sim.rng))
        self._files[of.path] = bytes(of.buffer)
        of.dirty = True  # keep the dirty bit: close still rewrites the final state

    def _charge_read(self, of: BaselineOpenFile, size: int) -> None:
        self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    def _charge_write(self, of: BaselineOpenFile, size: int) -> None:
        self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    # -- paths ------------------------------------------------------------------

    def _exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        self._syscall()
        if path not in self._files:
            raise self._missing(path)
        del self._files[path]
        self.sim.advance(DISK_LATENCY.sample(0, self.sim.rng))
