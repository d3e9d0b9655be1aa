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

Cache entries for file data are keyed by ``(file_id, digest)``: a given key is
immutable (a new version has a new digest), so cached data can never be stale
— at worst it is unused.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from repro.common.units import GB, MB
from repro.simenv.environment import Simulation
from repro.simenv.latency import DISK_LATENCY, MEMORY_LATENCY, LatencyModel

#: The agent's main-memory cache of open files ("hundreds of MBs", §2.5.1).
MEMORY_CACHE_BYTES = 256 * MB
#: The agent's long-term local-disk file cache ("GBs of space", §2.5.1).
DISK_CACHE_BYTES = 16 * GB


class LRUByteCache:
    """A capacity-bounded LRU cache of byte strings.

    ``latency`` models the cost of one access (memory vs disk); it is charged
    to the simulated clock on every hit and store.
    """

    def __init__(self, capacity_bytes: int, sim: Simulation,
                 latency: LatencyModel = MEMORY_LATENCY, name: str = "cache"):
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.sim = sim
        self.latency = latency
        self.name = name
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    # -- internals -----------------------------------------------------------

    def _charge(self, payload: int) -> None:
        self.sim.advance(self.latency.sample(payload))

    def _evict_until_fits(self, incoming: int) -> list[tuple[str, bytes]]:
        evicted: list[tuple[str, bytes]] = []
        while self._entries and self._used + incoming > self.capacity_bytes:
            key, value = self._entries.popitem(last=False)
            self._used -= len(value)
            evicted.append((key, value))
        return evicted

    # -- API -------------------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """Return the cached value (charging one access latency) or None."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._charge(len(value))
        return value

    def contains(self, key: str) -> bool:
        """Membership test without charging latency or touching LRU order."""
        return key in self._entries

    def put(self, key: str, value: bytes) -> list[tuple[str, bytes]]:
        """Store ``value``; returns the entries evicted to make room.

        Values larger than the whole cache are not stored (the paper's caches
        hold whole files; a file bigger than the memory cache simply stays on
        disk).
        """
        self._charge(len(value))
        if len(value) > self.capacity_bytes:
            return []
        if key in self._entries:
            self._used -= len(self._entries[key])
            del self._entries[key]
        evicted = self._evict_until_fits(len(value))
        self._entries[key] = value
        self._used += len(value)
        return evicted

    def remove(self, key: str) -> None:
        """Drop an entry if present (no latency charged)."""
        value = self._entries.pop(key, None)
        if value is not None:
            self._used -= len(value)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._used = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        """Iterate over cached keys, least recently used first."""
        return iter(self._entries.keys())


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

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
