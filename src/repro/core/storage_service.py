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
both caches, because the next read names the newer digest, and a cache that
holds the version already is not written again.  Only the garbage collector
drops a named version (:meth:`StorageService.forget`).  Both caches are
simulated: the disk cache's bytes live in RAM too, so a version kept for good
would cost host memory for good.

A cache write waits only where it is the caller's durability point (an
``fsync``, a non-blocking close: level 1).  Elsewhere it runs beside the
transfer it rides with, as background work: a cloud read returns when its
blocks verify, and a blocking close or a transaction commit returns once both
its upload and its cache writes are done (a cache write returns its seconds,
which the caller adds to the instant the writes began).
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
        It returns when the blocks verify: the fill of both caches runs beside
        the transfer, as background work.
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
        with self.sim.background():
            self._keep(file_id, digest, data, self.disk, self.memory)
        return data

    # ------------------------------------------------------------------ writes

    def _keep(self, file_id: str, digest: str, data: bytes, *caches: LRUByteCache) -> float:
        """Cache version ``digest`` of ``file_id`` in ``caches`` (in that order),
        dropping any other version of the file from both caches; returns the
        seconds the writes take.  A cache holding the version already is not
        written again (a close after an ``fsync`` of the same bytes)."""
        for cache in (self.memory, self.disk):
            if cache not in caches and not cache.contains(file_id, digest):
                cache.remove(file_id)
        return sum(cache.put(file_id, data, digest) for cache in caches
                   if not cache.contains(file_id, digest))

    def store_in_memory(self, file_id: str, digest: str, data: bytes) -> float:
        """Keep a closed version's data in the memory cache (level 0); returns its seconds."""
        return self._keep(file_id, digest, data, self.memory)

    def flush_to_disk(self, file_id: str, digest: str, data: bytes) -> float:
        """Write a file's data to the local disk cache (level 1); returns its seconds."""
        return self._keep(file_id, digest, data, self.disk)

    def keep_written(self, file_id: str, digest: str, data: bytes) -> float:
        """Keep a version this agent wrote on disk and in memory; returns their seconds.

        Under :meth:`~repro.simenv.environment.Simulation.background` the
        writes wait for nothing: a blocking close or a commit runs them
        beside its upload and waits for whichever ends last.
        """
        return (self.flush_to_disk(file_id, digest, data)
                + self.store_in_memory(file_id, digest, data))

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
