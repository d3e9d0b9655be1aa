"""The SCFS Agent's local caches (§2.5.1).

Three caches exist, each with a distinct role:

* the **memory cache** — an LRU cache of hundreds of MBs holding the data of
  *open* files; reads and writes of an open file are served here
  (Table 1, durability level 0);
* the **disk cache** — an LRU file cache with GBs of space acting as a large,
  long-term cache of whole files; its content is validated against the
  coordination service before being returned, so it never serves stale data
  (level 1);
* the **metadata cache** — a small, *short-lived* main-memory cache of
  metadata tuples whose only purpose is to absorb the bursts of metadata
  accesses that a single high-level action generates (e.g. the five ``stat``
  calls of opening a file in an editor); entries expire after a few hundred
  milliseconds (Figure 10(a) studies this expiration time).

The memory and disk caches hold **one version per file**: an entry is keyed by
the file id and tagged with the version's digest, and a lookup names the
digest it wants, so a cached version that is not the one asked for is a miss
and can never be served stale.  Caching a version replaces the file's
previous one: an agent never reads an older digest of a file whose newer
version it has cached (its anchor read and its own closes both name the newer
one), so keeping old versions would only pin their bytes.  An open handle's
dirty buffer is an entry under the handle's own key (``<handle>#open``), apart
from the file's versions, so two writable handles of one file hold two
entries.  The simulated disk cache keeps its bytes in RAM, like the memory
cache: its capacity is the paper's, its latency is a disk's.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.units import GB, MB
from repro.simenv.environment import Simulation
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY, LatencyModel

#: The agent's main-memory cache of open files ("hundreds of MBs", §2.5.1).
MEMORY_CACHE_BYTES = 256 * MB
#: The agent's long-term local-disk file cache ("GBs of space", §2.5.1).
DISK_CACHE_BYTES = 16 * GB


@dataclass
class _Cached:
    value: bytes
    #: ``len(value)`` when stored: a handle's buffer grows after its ``put``.
    size: int
    tag: str


class LRUByteCache:
    """A capacity-bounded LRU cache of byte strings, one tagged entry per key.

    ``latency`` models the cost of one access (memory vs disk); every hit and
    store charges it to the simulated clock, unless the caller runs under
    :meth:`~repro.simenv.environment.Simulation.background` (a cache fill
    beside a transfer).  A value is stored by reference, not copied, and
    charged at the size it had when stored.
    """

    def __init__(self, capacity_bytes: int, sim: Simulation,
                 latency: LatencyModel = MEMORY_LATENCY, name: str = "cache"):
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.sim = sim
        self.latency = latency
        self.name = name
        self._entries: OrderedDict[str, _Cached] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    # -- internals -----------------------------------------------------------

    def _charge(self, payload: int) -> float:
        """One access moving ``payload`` bytes: its latency, advanced unless in the background."""
        latency = self.latency.sample(payload)
        if not self.sim.in_background:
            self.sim.advance(latency)
        return latency

    # -- API -------------------------------------------------------------------

    def get(self, key: str, tag: str = "") -> bytes | None:
        """Return the value cached under ``key`` with ``tag`` (charging one
        access latency), or None — also when ``key`` holds another tag."""
        entry = self._entries.get(key)
        if entry is None or entry.tag != tag:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._charge(entry.size)
        return entry.value

    def contains(self, key: str, tag: str | None = None) -> bool:
        """Membership test (of ``tag`` too, unless None) without charging
        latency or touching LRU order."""
        entry = self._entries.get(key)
        return entry is not None and (tag is None or entry.tag == tag)

    def put(self, key: str, value: bytes, tag: str = "") -> float:
        """Store ``value`` under ``key``, replacing what ``key`` held; returns
        the access latency (charged unless in the background).

        Least recently used entries are dropped to make room.  Values larger
        than the whole cache are not stored (the paper's caches hold whole
        files; a file bigger than the memory cache simply stays on disk).
        """
        size = len(value)
        latency = self._charge(size)
        self.remove(key)
        if size > self.capacity_bytes:
            return latency
        while self._entries and self._used + size > self.capacity_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self._used -= evicted.size
        self._entries[key] = _Cached(value, size, tag)
        self._used += size
        return latency

    def remove(self, key: str, tag: str | None = None) -> None:
        """Drop the entry under ``key`` (only if it holds ``tag``, unless None);
        no latency is charged."""
        if self.contains(key, tag):
            self._used -= self._entries.pop(key).size

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._used = 0


def make_memory_cache(capacity_bytes: int, sim: Simulation) -> LRUByteCache:
    """The main-memory open-file cache (durability level 0)."""
    return LRUByteCache(capacity_bytes, sim, latency=MEMORY_LATENCY, name="memory")


def make_disk_cache(capacity_bytes: int, sim: Simulation) -> LRUByteCache:
    """The local-disk long-term file cache (durability level 1)."""
    return LRUByteCache(capacity_bytes, sim, latency=DISK_LATENCY, name="disk")


@dataclass
class _MetadataEntry:
    value: object
    stored_at: float


class MetadataCache:
    """Short-lived cache of metadata tuples (expiration in the hundreds of ms).

    The objective of this cache is only "to reuse the data fetched from the
    coordination service for at least the amount of time spent to obtain it
    from the network" (§2.5.1) — entries older than ``expiration`` seconds are
    treated as absent, which keeps consistency violations bounded to a single
    high-level action.
    """

    def __init__(self, sim: Simulation, expiration: float = 0.5):
        if expiration < 0:
            raise ValueError("expiration must be non-negative")
        self.sim = sim
        self.expiration = expiration
        #: In stored order (oldest first), so the expired ones are at the front.
        self._entries: OrderedDict[str, _MetadataEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        """Return the cached value if present and fresh, else None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self.expiration == 0 or self.sim.now() - entry.stored_at > self.expiration:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return entry.value

    def put(self, key: str, value) -> None:
        """Cache ``value`` with the current timestamp; expired entries are dropped.

        A path never asked for again would otherwise keep its entry for good.
        """
        if self.expiration == 0:
            return
        now = self.sim.now()
        self._entries[key] = _MetadataEntry(value=value, stored_at=now)
        self._entries.move_to_end(key)
        while now - next(iter(self._entries.values())).stored_at > self.expiration:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> None:
        """Drop one entry (called after local updates to keep the cache coherent)."""
        self._entries.pop(key, None)

    def invalidate_below(self, prefix: str) -> None:
        """Drop every entry whose key starts with ``prefix`` (a directory moved away)."""
        for key in [key for key in self._entries if key.startswith(prefix)]:
            del self._entries[key]
