"""Usage and cost accounting for simulated cloud providers.

Each simulated provider owns a :class:`CostTracker`; every request records its
kind and payload so that the Figure 11 benchmarks can report per-operation and
per-file-per-day costs without re-deriving them from provider internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clouds.pricing import StoragePricing


@dataclass
class UsageBreakdown:
    """Raw usage counters accumulated by a :class:`CostTracker`."""

    put_requests: int = 0
    get_requests: int = 0
    delete_requests: int = 0
    list_requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    byte_seconds_stored: float = 0.0

    def merge(self, other: "UsageBreakdown") -> "UsageBreakdown":
        """Return the element-wise sum of two breakdowns."""
        return UsageBreakdown(
            put_requests=self.put_requests + other.put_requests,
            get_requests=self.get_requests + other.get_requests,
            delete_requests=self.delete_requests + other.delete_requests,
            list_requests=self.list_requests + other.list_requests,
            bytes_in=self.bytes_in + other.bytes_in,
            bytes_out=self.bytes_out + other.bytes_out,
            byte_seconds_stored=self.byte_seconds_stored + other.byte_seconds_stored,
        )


@dataclass
class CostTracker:
    """Accumulates usage of one provider and prices it with its pricing table."""

    pricing: StoragePricing = field(default_factory=StoragePricing)
    usage: UsageBreakdown = field(default_factory=UsageBreakdown)

    # -- recording ----------------------------------------------------------

    def record_put(self, payload_bytes: int) -> None:
        """Record one PUT request uploading ``payload_bytes``."""
        self.usage.put_requests += 1
        self.usage.bytes_in += payload_bytes

    def record_get(self, payload_bytes: int) -> None:
        """Record one GET request downloading ``payload_bytes``."""
        self.usage.get_requests += 1
        self.usage.bytes_out += payload_bytes

    def record_delete(self) -> None:
        """Record one DELETE request."""
        self.usage.delete_requests += 1

    def record_list(self) -> None:
        """Record one LIST request."""
        self.usage.list_requests += 1

    def record_storage(self, payload_bytes: int, seconds: float) -> None:
        """Record ``payload_bytes`` being stored for ``seconds`` of simulated time."""
        self.usage.byte_seconds_stored += payload_bytes * seconds

    # -- pricing ------------------------------------------------------------

    def request_cost(self) -> float:
        """Dollar cost of all recorded requests (excluding traffic and storage)."""
        u, p = self.usage, self.pricing
        return (
            u.put_requests * p.put_request
            + u.get_requests * p.get_request
            + u.delete_requests * p.delete_request
            + u.list_requests * p.list_request
        )

    def traffic_cost(self) -> float:
        """Dollar cost of all recorded inbound and outbound traffic."""
        return self.pricing.outbound_cost(self.usage.bytes_out) + self.pricing.inbound_cost(
            self.usage.bytes_in
        )

    def storage_cost(self) -> float:
        """Dollar cost of all recorded storage (byte-seconds)."""
        return self.pricing.storage_cost(1, self.usage.byte_seconds_stored)

    def total_cost(self) -> float:
        """Total dollar cost recorded so far."""
        return self.request_cost() + self.traffic_cost() + self.storage_cost()

    def reset(self) -> None:
        """Zero all usage counters (pricing is preserved)."""
        self.usage = UsageBreakdown()
