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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.types import ObjectRef
from repro.core.backend import StorageBackend
from repro.core.cache import LRUByteCache
from repro.core.consistency import read_anchored
from repro.simenv.environment import Simulation


def cache_key(file_id: str, digest: str) -> str:
    """Cache key of one immutable file version."""
    return f"{file_id}#{digest}"


@dataclass
class ReadOutcome:
    """Where a read was satisfied from; used by tests and benchmark reports."""

    data: bytes
    source: str  # "memory", "disk" or "cloud"


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

    def read_version(self, file_id: str, digest: str, locator: str = "") -> ReadOutcome:
        """Return the data of one file version, reading locally when possible.

        Resolution order: memory cache → disk cache → cloud backend.  The
        cloud path is step r2 of the consistency-anchor read (Figure 3,
        :func:`~repro.core.consistency.read_anchored`) because the anchored
        hash can be visible before the data has propagated in an eventually
        consistent cloud; ``locator`` is what the anchor holds beside the hash.
        """
        if not digest:
            return ReadOutcome(data=b"", source="memory")
        key = cache_key(file_id, digest)
        data = self.memory.get(key)
        if data is not None:
            return ReadOutcome(data=data, source="memory")
        data = self.disk.get(key)
        if data is not None:
            # Promote to the memory cache: the file is being opened.
            self._cache_in_memory(key, data)
            return ReadOutcome(data=data, source="disk")
        data = read_anchored(self.sim, self.backend, file_id, digest, locator,
                             on_poll=self.on_poll)
        self.cloud_reads += 1
        self.disk.put(key, data)
        self._cache_in_memory(key, data)
        return ReadOutcome(data=data, source="cloud")

    # ------------------------------------------------------------------ writes

    def _cache_in_memory(self, key: str, data: bytes) -> None:
        evicted = self.memory.put(key, data)
        # Files pushed out of the memory cache spill to the disk cache
        # (its extension, §2.5.2) instead of being lost.
        for evicted_key, evicted_data in evicted:
            if not self.disk.contains(evicted_key):
                self.disk.put(evicted_key, evicted_data)

    def store_in_memory(self, file_id: str, digest: str, data: bytes) -> None:
        """Keep an open file's (possibly dirty) data in the memory cache (level 0)."""
        self._cache_in_memory(cache_key(file_id, digest), data)

    def flush_to_disk(self, file_id: str, digest: str, data: bytes) -> None:
        """Write a file's data to the local disk cache (fsync path, level 1)."""
        self.disk.put(cache_key(file_id, digest), data)

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
        """Drop a version from both local caches (garbage collection support)."""
        key = cache_key(file_id, digest)
        self.memory.remove(key)
        self.disk.remove(key)
