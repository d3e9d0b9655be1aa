"""The SCFS Agent's storage service (§2.5.1).

The storage service reads and writes *whole files* as objects in the cloud and
keeps copies in two local caches:

* the main-memory cache holds the data of open files (durability level 0);
* the local disk acts as a large, long-term LRU file cache (level 1).

Its guiding principle is *always write / avoid reading*: every completed
update is pushed to the cloud (writes are cheap or free), while reads are
served locally whenever the locally cached version matches the hash anchored
in the coordination service — saving both latency and the (expensive) outbound
traffic of a download.

The caches keep **one version per file**: caching a version of a file (a
cloud or disk read, a close, an fsync) drops the file's previous version from
both caches, because the next read names the newer digest.  Only the garbage
collector drops a named version (:meth:`StorageService.forget`).  Both caches
are simulated: the disk cache's bytes live in RAM too, so a version kept for
good would cost host memory for good.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.types import ObjectRef
from repro.core.backend import StorageBackend
from repro.core.cache import LRUByteCache
from repro.core.consistency import read_anchored
from repro.simenv.environment import Simulation


class StorageService:
    """Whole-file data movement between memory, disk and the cloud backend."""

    def __init__(self, sim: Simulation, backend: StorageBackend,
                 memory_cache: LRUByteCache, disk_cache: LRUByteCache):
        self.sim = sim
        self.backend = backend
        self.memory = memory_cache
        self.disk = disk_cache
        #: Counters used by the garbage-collection policy and by reports.
        self.bytes_pushed = 0
        self.cloud_reads = 0
        #: Called once per poll of a cloud read (step r2 asking again).
        self.on_poll: Callable[[], None] | None = None

    # ------------------------------------------------------------------ reads

    def read_version(self, file_id: str, digest: str, locator: str) -> bytes:
        """Return the bytes of one file version, reading locally when possible.

        Resolution order: memory cache → disk cache → cloud backend; the
        tier that served it shows in the caches' ``hits`` and in
        :attr:`cloud_reads`.  The cloud path is step r2 of the
        consistency-anchor read (Figure 3,
        :func:`~repro.core.consistency.read_anchored`) because the anchored
        hash can be visible before the data has propagated in an eventually
        consistent cloud; ``locator`` is what the anchor holds beside the hash.
        """
        if not digest:
            return b""
        data = self.memory.get(file_id, digest)
        if data is not None:
            return data
        data = self.disk.get(file_id, digest)
        if data is not None:
            # Promote to the memory cache: the file is being opened.
            self._keep(file_id, digest, data, self.memory)
            return data
        data = read_anchored(self.sim, self.backend, file_id, digest, locator,
                             on_poll=self.on_poll)
        self.cloud_reads += 1
        self._keep(file_id, digest, data, self.disk, self.memory)
        return data

    # ------------------------------------------------------------------ writes

    def _keep(self, file_id: str, digest: str, data: bytes, *caches: LRUByteCache) -> None:
        """Cache version ``digest`` of ``file_id`` in ``caches`` (in that order),
        dropping any other version of the file from both caches."""
        for cache in (self.memory, self.disk):
            if cache not in caches and not cache.contains(file_id, digest):
                cache.remove(file_id)
        for cache in caches:
            cache.put(file_id, data, digest)

    def store_in_memory(self, file_id: str, digest: str, data: bytes) -> None:
        """Keep a closed version's data in the memory cache (level 0)."""
        self._keep(file_id, digest, data, self.memory)

    def flush_to_disk(self, file_id: str, digest: str, data: bytes) -> None:
        """Write a file's data to the local disk cache (fsync path, level 1)."""
        self._keep(file_id, digest, data, self.disk)

    def push_many_to_cloud(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        """Synchronously upload one new version of each file (levels 2/3).

        ``items`` are ``(file_id, data, version)``, a transaction's write set
        numbered from the anchor (:meth:`StorageBackend.write_versions`); the
        backend moves them through the cloud(s) together where it can.
        """
        refs = self.backend.write_versions(items)
        self.bytes_pushed += sum(len(data) for _file_id, data, _version in items)
        return refs

    def push_to_cloud(self, file_id: str, data: bytes, version: int) -> ObjectRef:
        """:meth:`push_many_to_cloud` of one version (a close's), through the traced ``write_version``."""
        ref = self.backend.write_version(file_id, data, version)
        self.bytes_pushed += len(data)
        return ref

    def push_to_cloud_uncharged(self, file_id: str, data: bytes, version: int) -> ObjectRef:
        """:meth:`push_to_cloud` as background work: no caller, kept for ``tracer.WRAPPED`` (ROADMAP 1(b))."""
        with self.sim.background():
            return self.push_to_cloud(file_id, data, version=version)

    # --------------------------------------------------------------- maintenance

    def forget(self, file_id: str, digest: str) -> None:
        """Drop a version from both local caches (garbage collection support).

        A cached newer version of the file stays."""
        self.memory.remove(file_id, digest)
        self.disk.remove(file_id, digest)
