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
from repro.baselines.base import SingleStoreFileSystem
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY, LatencyModel
from repro.common.units import KB

#: Chunk size below which writes hit the slow FUSE path (S3QL recommends 128 KB).
RECOMMENDED_CHUNK = 128 * KB

#: Fixed penalty of one small-chunk write (calibrated so that 256k random 4 KB
#: writes take a few minutes, as in Table 3).
SMALL_WRITE_PENALTY = LatencyModel(base=4.5e-4)


class S3QLLike(SingleStoreFileSystem):
    """Single-user write-back cloud file system with local metadata."""

    name = "S3QL"
    prefix = "s3ql"

    # -- hooks ---------------------------------------------------------------------

    def _load(self, path: str, create: bool, truncate: bool) -> bytes:
        if path in self._local:
            data = b"" if truncate else self._local[path]
            self.sim.advance(MEMORY_LATENCY.sample(len(data), self.sim.rng))
            return data
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
        return data

    def _persist(self, path: str, data: bytes) -> None:
        # Local write-back: the close is as fast as the local disk...
        self._sync_local(path, data)
        # ...and the upload happens later, in the background.
        delay = self.store.profile.object_put.sample(len(data), self.sim.rng)

        def upload() -> None:
            with self.sim.background():
                self.store.put(self._key(path), data, self.principal)

        self.sim.schedule(delay, upload, name=f"s3ql-upload:{path}")

    def _sync_local(self, path: str, data: bytes) -> None:
        self.sim.advance(DISK_LATENCY.sample(len(data), self.sim.rng))
        self._local[path] = data

    def _charge_write(self, size: int) -> None:
        if 0 < size < RECOMMENDED_CHUNK:
            self.sim.advance(SMALL_WRITE_PENALTY.sample(0, self.sim.rng))
        else:
            super()._charge_write(size)
