"""Named provider profiles and factory helpers.

The profiles bundle the latency and pricing characteristics of the four
storage clouds used in the paper's evaluation (§4.1): Amazon S3 (US), Google
Cloud Storage (US), Rackspace Cloud Files (UK) and Windows Azure Blob (UK), as
seen from a client in Portugal.  The US providers get a higher base latency
than the European ones; all numbers are calibrated so that uploading/reading a
small-to-medium file takes on the order of seconds, matching §4.2.

:data:`COMPUTE_PRICING` holds the VM rental prices behind Figure 11(a): an EC2
``Large`` costs $6.24/day, and a cloud-of-clouds set of four similar VMs costs
$39.60/day mainly because Rackspace and Elastichosts charge almost twice as
much as EC2 and Azure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import MB
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.pricing import ComputePricing, StoragePricing
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel, NetworkProfile


@dataclass(frozen=True)
class ProviderProfile:
    """Static description of one storage provider (latency + pricing)."""

    name: str
    network: NetworkProfile
    pricing: StoragePricing = field(default_factory=StoragePricing)


def _network(name: str, base_rtt: float, down_mbps: float, up_mbps: float,
             propagation: float) -> NetworkProfile:
    return NetworkProfile(
        name=name,
        object_get=LatencyModel(base=base_rtt, bandwidth=down_mbps * MB),
        object_put=LatencyModel(base=base_rtt * 1.2, bandwidth=up_mbps * MB),
        object_delete=LatencyModel(base=base_rtt * 0.7),
        object_list=LatencyModel(base=base_rtt * 1.6),
        metadata_op=LatencyModel(base=base_rtt * 0.8),
        propagation_delay=propagation,
    )


#: The four storage clouds used by the SCFS-CoC backend (§4.1).
PROVIDER_PROFILES: dict[str, ProviderProfile] = {
    "amazon-s3": ProviderProfile(
        name="amazon-s3",
        network=_network("amazon-s3", base_rtt=0.180, down_mbps=4.0, up_mbps=2.5, propagation=1.0),
        pricing=StoragePricing(outbound_gb=0.12, storage_gb_month=0.09),
    ),
    "google-storage": ProviderProfile(
        name="google-storage",
        network=_network("google-storage", base_rtt=0.170, down_mbps=4.5, up_mbps=2.8, propagation=1.2),
        pricing=StoragePricing(outbound_gb=0.12, storage_gb_month=0.085),
    ),
    "rackspace-files": ProviderProfile(
        name="rackspace-files",
        network=_network("rackspace-files", base_rtt=0.090, down_mbps=5.0, up_mbps=3.0, propagation=1.5),
        pricing=StoragePricing(outbound_gb=0.12, storage_gb_month=0.10),
    ),
    "windows-azure": ProviderProfile(
        name="windows-azure",
        network=_network("windows-azure", base_rtt=0.095, down_mbps=5.0, up_mbps=3.2, propagation=0.8),
        pricing=StoragePricing(outbound_gb=0.12, storage_gb_month=0.095),
    ),
}


#: VM rental prices (dollars/day) for the coordination-service hosts, Figure 11(a).
COMPUTE_PRICING: dict[str, ComputePricing] = {
    "amazon-ec2": ComputePricing("amazon-ec2", (("large", 6.24), ("extra_large", 12.96))),
    "windows-azure": ComputePricing("windows-azure", (("large", 6.24), ("extra_large", 12.96))),
    "rackspace": ComputePricing("rackspace", (("large", 13.56), ("extra_large", 25.56))),
    "elastichosts": ComputePricing("elastichosts", (("large", 13.56), ("extra_large", 25.56))),
}

#: Provider order used by the CoC backend (must be stable across runs).
COC_STORAGE_PROVIDERS = ("amazon-s3", "google-storage", "rackspace-files", "windows-azure")
COC_COMPUTE_PROVIDERS = ("amazon-ec2", "windows-azure", "rackspace", "elastichosts")


def make_provider(
    sim: Simulation,
    name: str = "amazon-s3",
    jitter: float = 0.0,
) -> EventuallyConsistentStore:
    """Instantiate one simulated storage provider by profile name."""
    try:
        profile = PROVIDER_PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown provider {name!r}; known providers: {sorted(PROVIDER_PROFILES)}"
        ) from exc
    network = profile.network.with_jitter(jitter) if jitter else profile.network
    return EventuallyConsistentStore(
        sim,
        name=profile.name,
        profile=network,
        pricing=profile.pricing,
    )


def make_cloud_of_clouds(
    sim: Simulation,
    names: tuple[str, ...] = COC_STORAGE_PROVIDERS,
    jitter: float = 0.0,
) -> list[EventuallyConsistentStore]:
    """Instantiate the set of providers forming a cloud-of-clouds backend.

    The stores are the same as :func:`make_provider`'s: a DepSky client
    accesses them *in parallel*, sends each request as background work and
    charges the quorum's wait itself (the slowest response among the fastest
    quorum).
    """
    return [make_provider(sim, n, jitter=jitter) for n in names]
