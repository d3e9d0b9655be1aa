"""Latency models for simulated remote services.

A remote operation's latency is modelled as::

    latency = base + payload_bytes / bandwidth  (+ seeded jitter)

which captures the two regimes that matter for SCFS: small metadata/lock
operations dominated by the round-trip ``base`` (the paper quotes 60-100 ms
per coordination-service access) and bulk object transfers dominated by the
bandwidth term (multi-second uploads of MB-sized files, §4.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.units import MB


@dataclass(frozen=True)
class LatencyModel:
    """Latency of one class of operation against one remote service.

    Attributes
    ----------
    base:
        Fixed per-request latency in seconds (round trips, service overhead).
    bandwidth:
        Sustained transfer rate in bytes/second applied to the payload.
        ``None`` means the payload size does not affect latency.
    jitter:
        Maximum relative jitter; the sampled latency is multiplied by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]`` using the seeded RNG.
    """

    base: float
    bandwidth: float | None = None
    jitter: float = 0.0

    def expected(self, payload_bytes: int = 0) -> float:
        """Deterministic expected latency of one operation moving ``payload_bytes``.

        Unlike :meth:`sample` this never draws from an RNG, so latency
        *estimates* (background-upload scheduling, capacity planning) neither
        perturb the simulation's random stream nor silently drop the jitter
        term when no RNG is passed.
        """
        latency = self.base
        if self.bandwidth:
            latency += payload_bytes / self.bandwidth
        return max(latency, 0.0)

    def bound(self, payload_bytes: int = 0) -> float:
        """The longest one healthy operation moving ``payload_bytes`` can take:
        :meth:`expected` at the top of the jitter range (no RNG draw)."""
        return self.expected(payload_bytes) * (1.0 + self.jitter)

    def sample(self, payload_bytes: int = 0, rng: random.Random | None = None) -> float:
        """Return the latency in seconds of one operation moving ``payload_bytes``."""
        latency = self.expected(payload_bytes)
        if self.jitter and rng is not None:
            latency *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return max(latency, 0.0)


@dataclass(frozen=True)
class NetworkProfile:
    """Bundle of latency models describing a client's view of one provider.

    The defaults are calibrated from the figures quoted in the paper:

    * coordination-service accesses take 60-100 ms (§4.2), so ``metadata_op``
      defaults to an 80 ms base;
    * uploading/downloading MB-sized files to a storage cloud takes seconds,
      so object transfers default to a 120 ms base plus a 4 MB/s (download)
      or 2.5 MB/s (upload) bandwidth term;
    * local disk and memory accesses are micro/milli-second scale (Table 1).
    """

    name: str = "default"
    object_get: LatencyModel = LatencyModel(base=0.120, bandwidth=4.0 * MB)
    object_put: LatencyModel = LatencyModel(base=0.140, bandwidth=2.5 * MB)
    object_delete: LatencyModel = LatencyModel(base=0.080)
    object_list: LatencyModel = LatencyModel(base=0.200)
    metadata_op: LatencyModel = LatencyModel(base=0.080)
    propagation_delay: float = 1.0

    def with_jitter(self, jitter: float) -> "NetworkProfile":
        """Return a copy of this profile with the given relative jitter applied."""
        return NetworkProfile(
            name=self.name,
            object_get=LatencyModel(self.object_get.base, self.object_get.bandwidth, jitter),
            object_put=LatencyModel(self.object_put.base, self.object_put.bandwidth, jitter),
            object_delete=LatencyModel(self.object_delete.base, self.object_delete.bandwidth, jitter),
            object_list=LatencyModel(self.object_list.base, self.object_list.bandwidth, jitter),
            metadata_op=LatencyModel(self.metadata_op.base, self.metadata_op.bandwidth, jitter),
            propagation_delay=self.propagation_delay,
        )


#: Latency of an access served from the in-memory cache (Table 1, level 0).
MEMORY_LATENCY = LatencyModel(base=2e-6)

#: Latency of an access served from the local disk cache (Table 1, level 1).
DISK_LATENCY = LatencyModel(base=2e-3, bandwidth=120.0 * MB)

#: Overhead of crossing the FUSE-J user-space file system boundary.
FUSE_OVERHEAD = LatencyModel(base=5e-5)
