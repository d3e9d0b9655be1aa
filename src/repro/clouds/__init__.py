"""Simulated cloud object-storage providers.

SCFS only assumes that a storage cloud offers on-demand object storage with
basic access-control lists and (at least) eventual consistency (§2.1,
*service-agnosticism*).  This package provides exactly that:

* :class:`~repro.clouds.eventual.EventuallyConsistentStore` — the one store
  type (put/get/delete/list + per-object ACLs and prefix grants), in memory,
  with a configurable visibility (propagation) delay, latency
  charging against the simulated clock, fault injection and cost accounting;
* :mod:`~repro.clouds.providers` — named profiles (Amazon S3, Google Cloud
  Storage, Windows Azure, Rackspace) with the latency and pricing figures
  used in the paper's evaluation, plus the VM rental prices needed to
  reproduce Figure 11(a);
* :class:`~repro.clouds.accounting.CostTracker` — accumulates request,
  traffic and storage charges so the benchmarks can regenerate Figure 11;
* :mod:`~repro.clouds.dispatch` — the quorum dispatch engine modelling truly
  parallel per-cloud requests (staged fallback, timeouts, retries, hedging)
  on the simulated timeline, used by the DepSky client for every
  multi-cloud operation;
* :mod:`~repro.clouds.health` — per-cloud health tracking (suspect lists with
  exponential-backoff probe windows, straggler detection) feeding the
  dispatch engine's request planning.
"""

from repro.clouds.object_store import ObjectVersion, ObjectListing
from repro.clouds.dispatch import (
    DispatchPolicyConfig,
    QuorumCall,
    QuorumCallStats,
    QuorumRequest,
    RequestStatus,
)
from repro.clouds.health import (
    CloudHealth,
    CloudHealthTracker,
    HealthStats,
)
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.access_control import ObjectACL
from repro.clouds.pricing import StoragePricing, ComputePricing
from repro.clouds.accounting import CostTracker, UsageBreakdown
from repro.clouds.providers import (
    PROVIDER_PROFILES,
    COMPUTE_PRICING,
    ProviderProfile,
    make_provider,
    make_cloud_of_clouds,
)

__all__ = [
    "ObjectVersion",
    "ObjectListing",
    "DispatchPolicyConfig",
    "QuorumCall",
    "QuorumCallStats",
    "QuorumRequest",
    "RequestStatus",
    "CloudHealth",
    "CloudHealthTracker",
    "HealthStats",
    "EventuallyConsistentStore",
    "ObjectACL",
    "StoragePricing",
    "ComputePricing",
    "CostTracker",
    "UsageBreakdown",
    "PROVIDER_PROFILES",
    "COMPUTE_PRICING",
    "ProviderProfile",
    "make_provider",
    "make_cloud_of_clouds",
]
