"""S3FS-like baseline: a blocking cloud-backed file system without memory caches.

S3FS "employs a blocking strategy in which every update on a file only returns
when the file is written to the cloud" (§5) and its low micro-benchmark
performance "comes from its lack of main memory cache for opened files" (§4.2).
Concretely, in this reproduction:

* ``open`` downloads the whole object from the storage cloud (if it exists)
  into a local temporary file — there is no long-term validated cache;
* ``read``/``write`` operate on that temporary file at local-disk latency
  (no memory cache);
* ``close`` of a modified file uploads the whole object synchronously;
* creating a file immediately creates the (empty) object in the cloud, which is
  why the create/copy micro-benchmarks are three to four orders of magnitude
  slower than local file systems (Table 3).
"""

from __future__ import annotations

from repro.common.errors import ObjectNotFoundError
from repro.baselines.base import SingleStoreFileSystem
from repro.simenv.latency import DISK_LATENCY, LatencyModel
from repro.common.units import MB

#: Per-call penalty of serving reads/writes from the local temporary file
#: instead of a main-memory cache (S3FS's documented weakness, §4.2).  The
#: base term models the extra user-space copy, the bandwidth term the page
#: cache / local file traffic.
TMPFILE_ACCESS = LatencyModel(base=1.8e-5, bandwidth=100 * MB)


class S3FSLike(SingleStoreFileSystem):
    """Blocking, cache-less cloud-backed file system over a single store.

    Its local copies are the temporary files of the objects this mount
    itself wrote (the real s3fs keeps the uploaded temp file around too).
    """

    name = "S3FS"
    prefix = "s3fs"

    # -- hooks --------------------------------------------------------------------

    def _load(self, path: str, create: bool, truncate: bool) -> bytes:
        key = self._key(path)
        try:
            data = b"" if truncate else self.store.get(key, self.principal)
        except ObjectNotFoundError as exc:
            if path in self._local and not truncate:
                data = self._local[path]
            elif not create:
                raise self._missing(path) from exc
            else:
                data = b""
        if create:
            # Creating/truncating immediately materialises the object in the
            # cloud (each create/open/close hits S3, §4.2).
            self.store.put(key, data, self.principal)
            self._local[path] = data
        # The downloaded copy lands in a local temporary file.
        self.sim.advance(DISK_LATENCY.sample(len(data), self.sim.rng))
        return data

    def _persist(self, path: str, data: bytes) -> None:
        # Blocking upload of the whole file; fsync does the same (there is no
        # lower durability tier).
        self.store.put(self._key(path), data, self.principal)
        self._local[path] = data

    def _charge_read(self, size: int) -> None:
        # No main-memory cache: reads are served from the local temporary file.
        self.sim.advance(TMPFILE_ACCESS.sample(size, self.sim.rng))

    def _charge_write(self, size: int) -> None:
        self.sim.advance(TMPFILE_ACCESS.sample(size, self.sim.rng))
