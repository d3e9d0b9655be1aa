"""S3QL-like baseline: a single-user, write-back cloud-backed file system.

S3QL "writes the data locally and later pushes it to the cloud" (§5).  It has
no sharing support and keeps all metadata locally, so metadata-intensive
workloads run at local speed (Table 3).  Two behaviours from the paper are
modelled explicitly:

* background upload: ``close`` returns after the local write; the object is
  pushed to the cloud by a deferred task;
* the documented FUSE small-chunk-write issue (§4.2 cites S3QL's known-issues
  page): writes much smaller than the recommended 128 KB chunk size pay a
  fixed per-call penalty, which is why its random 4 KB-write benchmark is by
  far the slowest of Table 3.
"""

from __future__ import annotations

from repro.common.errors import ObjectNotFoundError
from repro.common.types import Principal
from repro.baselines.base import BaselineFileSystem, BaselineOpenFile
from repro.clouds.eventual import EventuallyConsistentStore
from repro.simenv.environment import Simulation
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY, LatencyModel
from repro.common.units import KB

#: Chunk size below which writes hit the slow FUSE path (S3QL recommends 128 KB).
RECOMMENDED_CHUNK = 128 * KB

#: Fixed penalty of one small-chunk write (calibrated so that 256k random 4 KB
#: writes take a few minutes, as in Table 3).
SMALL_WRITE_PENALTY = LatencyModel(base=4.5e-4)


class S3QLLike(BaselineFileSystem):
    """Single-user write-back cloud file system with local metadata."""

    name = "S3QL"

    def __init__(self, sim: Simulation, store: EventuallyConsistentStore,
                 principal: Principal | None = None):
        super().__init__(sim)
        self.store = store
        self.principal = principal or Principal("s3ql-user")
        self._local: dict[str, bytes] = {}

    def _key(self, path: str) -> str:
        return f"s3ql{path}"

    # -- hooks ---------------------------------------------------------------------

    def _load(self, path: str, create: bool, truncate: bool) -> bytearray:
        if path in self._local:
            data = b"" if truncate else self._local[path]
            self.sim.advance(MEMORY_LATENCY.sample(len(data), self.sim.rng))
            return bytearray(data)
        # Not cached locally: fall back to the cloud copy (rare for a single user).
        try:
            data = self.store.get(self._key(path), self.principal)
        except ObjectNotFoundError as exc:
            if not create:
                raise self._missing(path) from exc
            data = b""
        if truncate:
            data = b""
        self._local[path] = data
        self.sim.advance(DISK_LATENCY.sample(len(data), self.sim.rng))
        return bytearray(data)

    def _persist(self, of: BaselineOpenFile) -> None:
        data = bytes(of.buffer)
        # Local write-back: the close is as fast as the local disk...
        self.sim.advance(DISK_LATENCY.sample(len(data), self.sim.rng))
        self._local[of.path] = data
        # ...and the upload happens later, in the background.
        delay = self.store.profile.object_put.sample(len(data), self.sim.rng)

        def upload() -> None:
            with self.sim.background():
                self.store.put(self._key(of.path), data, self.principal)

        self.sim.schedule(delay, upload, name=f"s3ql-upload:{of.path}")

    def _sync_local(self, of: BaselineOpenFile) -> None:
        self.sim.advance(DISK_LATENCY.sample(len(of.buffer), self.sim.rng))
        self._local[of.path] = bytes(of.buffer)

    def _charge_read(self, of: BaselineOpenFile, size: int) -> None:
        self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    def _charge_write(self, of: BaselineOpenFile, size: int) -> None:
        if 0 < size < RECOMMENDED_CHUNK:
            self.sim.advance(SMALL_WRITE_PENALTY.sample(0, self.sim.rng))
        else:
            self.sim.advance(MEMORY_LATENCY.sample(size, self.sim.rng))

    # -- paths -------------------------------------------------------------------------

    def _exists(self, path: str) -> bool:
        return path in self._local or self.store.exists(self._key(path), self.principal)

    def unlink(self, path: str) -> None:
        self._syscall()
        self._local.pop(path, None)
        self.store.delete(self._key(path), self.principal)
