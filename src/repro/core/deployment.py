"""Deployment helpers: assemble clouds + coordination + agents for one variant.

A :class:`SCFSDeployment` owns the simulated infrastructure shared by every
client of one experiment — the storage cloud(s), the coordination service and
the simulation environment — and mounts an :class:`SCFSAgent` for each user.
Benchmarks and examples use it to build any of the six Table 2 variants in a
couple of lines::

    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=1)
    alice = deployment.create_agent("alice")
    bob = deployment.create_agent("bob")
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import Principal
from repro.clouds.accounting import UsageBreakdown
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.providers import COC_STORAGE_PROVIDERS, make_cloud_of_clouds, make_provider
from repro.coordination.adapters import DepSpaceCoordination
from repro.core.agent import SCFSAgent
from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend, StorageBackend
from repro.core.config import SCFSConfig
from repro.core.modes import BackendKind
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


@dataclass
class DeploymentCosts:
    """Aggregated provider-side usage and dollar costs of a deployment."""

    per_provider: dict[str, float] = field(default_factory=dict)
    request_cost: float = 0.0
    traffic_cost: float = 0.0
    storage_cost: float = 0.0
    usage: UsageBreakdown = field(default_factory=UsageBreakdown)

    @property
    def total(self) -> float:
        """Total dollars across all providers."""
        return self.request_cost + self.traffic_cost + self.storage_cost


class SCFSDeployment:
    """The shared infrastructure of one SCFS experiment."""

    def __init__(self, config: SCFSConfig, sim: Simulation | None = None, seed: int = 0):
        config.validate()
        self.config = config
        self.sim = sim or Simulation(seed=seed)
        self.clouds: list[EventuallyConsistentStore] = self._build_clouds()
        self.coordination: DepSpaceCoordination | None = self._build_coordination()
        self.filesystems: dict[str, SCFSAgent] = {}
        #: Always None: no SCFS path reads a DepSky head, so there is nothing
        #: to coalesce.  Kept because the layer benchmark's ledger reads it.
        self.coalescer = None

    # ------------------------------------------------------------- constructors

    @classmethod
    def for_variant(cls, variant_name: str, sim: Simulation | None = None, seed: int = 0,
                    **config_overrides) -> "SCFSDeployment":
        """Build a deployment for one of the Table 2 variants by name."""
        config = SCFSConfig.for_variant(variant_name, **config_overrides)
        return cls(config, sim=sim, seed=seed)

    def _build_clouds(self) -> list[EventuallyConsistentStore]:
        if self.config.backend is BackendKind.AWS:
            # A single S3-like store accessed sequentially: it charges its own latency.
            return [make_provider(self.sim, "amazon-s3")]
        # Cloud-of-clouds: DepSky accesses the four providers in parallel and
        # charges quorum latencies itself.
        return make_cloud_of_clouds(self.sim, COC_STORAGE_PROVIDERS)

    def _build_coordination(self) -> DepSpaceCoordination | None:
        if not self.config.mode.uses_coordination:
            return None
        # SCFS-AWS runs one DepSpace instance in a single EC2 VM (its f is 0):
        # the access latency is the WAN round trip (§4.2).  SCFS-CoC replicates
        # DepSpace over 3f+1 computing clouds, and the client waits for a
        # Byzantine quorum, slightly above the single-VM latency.
        base = 0.080 if self.config.backend is BackendKind.AWS else 0.095
        return DepSpaceCoordination(self.sim, f=self.config.fault_tolerance,
                                    latency=LatencyModel(base=base, jitter=0.2))

    # ------------------------------------------------------------------- agents

    def _principal(self, username: str) -> Principal:
        canonical = tuple((cloud.name, f"{username}@{cloud.name}") for cloud in self.clouds)
        return Principal(name=username, canonical_ids=canonical)

    def _backend_for(self, principal: Principal) -> StorageBackend:
        # The config's dispatch block travels with the cloud-of-clouds backend,
        # so variants enable timeouts/hedging/suspect-lists from configuration
        # alone; SCFS-AWS takes none (``SCFSConfig.validate``).
        if self.config.backend is BackendKind.AWS:
            return SingleCloudBackend(self.sim, self.clouds[0], principal)
        return CloudOfCloudsBackend(
            self.sim, self.clouds, principal,
            dispatch=self.config.dispatch, weights=self.config.quorum_weights,
            f=self.config.fault_tolerance, encrypt=self.config.encrypt_data,
        )

    def create_agent(self, username: str, config: SCFSConfig | None = None,
                     events=None) -> SCFSAgent:
        """Mount the file system for ``username`` and return its agent.

        ``events`` is an optional :data:`~repro.core.agent.EventSink` receiving
        the agent's operation events (the scenario engine's trace recorder).
        """
        principal = self._principal(username)
        agent = SCFSAgent(
            sim=self.sim,
            config=config or self.config,
            principal=principal,
            backend=self._backend_for(principal),
            coordination=self.coordination,
            events=events,
        )
        self.filesystems[username] = agent
        return agent

    def agent_for(self, username: str) -> SCFSAgent:
        """Return an already-created mount for ``username``."""
        return self.filesystems[username]

    # ----------------------------------------------------------------- lifecycle

    def drain(self, extra: float = 0.0) -> None:
        """Run every pending background task (uploads, GC) to completion."""
        self.sim.drain(extra)

    def unmount_all(self) -> None:
        """Unmount every file system created by this deployment."""
        for filesystem in self.filesystems.values():
            filesystem.unmount()

    # -------------------------------------------------------------------- costs

    def costs(self) -> DeploymentCosts:
        """Aggregate the provider-side usage/dollars accumulated so far."""
        result = DeploymentCosts()
        for cloud in self.clouds:
            tracker = cloud.costs
            result.per_provider[cloud.name] = tracker.total_cost()
            result.request_cost += tracker.request_cost()
            result.traffic_cost += tracker.traffic_cost()
            result.storage_cost += tracker.storage_cost()
            result.usage = result.usage.merge(tracker.usage)
        return result

    def reset_costs(self) -> None:
        """Zero every provider's usage counters (between benchmark phases)."""
        for cloud in self.clouds:
            cloud.costs.reset()

    def stored_bytes(self) -> int:
        """Total bytes currently stored across all providers."""
        return sum(cloud.stored_bytes() for cloud in self.clouds)

    def coordination_entries(self) -> int:
        """Number of entries in the coordination service (0 without one)."""
        return self.coordination.entry_count() if self.coordination is not None else 0
