"""Configuration of an SCFS agent/deployment.

Defaults follow the values used in the paper's evaluation (§4.1): 500 ms
metadata cache expiration, no private name spaces (worst case, 100 % sharing),
f = 1 for the CoC backend, memory cache of hundreds of MBs and a disk cache of
GBs, and a garbage collector keeping the last versions of each file.

The ``dispatch`` block is :class:`~repro.clouds.dispatch.DispatchPolicyConfig`,
defined next to the quorum engine that reads it and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.common.units import GB, MB
from repro.clouds.dispatch import DispatchPolicyConfig
from repro.clouds.quorums import QuorumSystem, ThresholdQuorumSystem, WeightedQuorumSystem
from repro.core.modes import BackendKind, OperationMode


@dataclass(frozen=True)
class CacheConfig:
    """Sizes and policies of the SCFS Agent's local caches (§2.5.1)."""

    #: Main-memory LRU cache for open files ("hundreds of MBs").
    memory_bytes: int = 256 * MB
    #: Local-disk LRU file cache ("GBs of space", long-term).
    disk_bytes: int = 16 * GB
    #: Expiration of the short-lived metadata cache in seconds (paper: 500 ms).
    metadata_expiration: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical sizes."""
        if self.memory_bytes < 0 or self.disk_bytes < 0:
            raise ConfigurationError("cache sizes must be non-negative")
        if self.metadata_expiration < 0:
            raise ConfigurationError("metadata cache expiration must be non-negative")


@dataclass(frozen=True)
class GarbageCollectionPolicy:
    """Parameters of the per-agent garbage collector (§2.5.3).

    ``written_bytes_threshold`` (W) — the collector is activated every time the
    agent writes more than W bytes; ``versions_to_keep`` (V) — number of most
    recent versions preserved per file.  Files the user deleted are purged
    whole: their versions and their metadata entries.
    """

    written_bytes_threshold: int = 128 * MB
    versions_to_keep: int = 3
    #: Refined policy (§2.5.3): additionally keep the newest version of each
    #: ``keep_interval_seconds`` bucket (e.g. 86400 for one version per day).
    #: ``None`` disables the age-based retention.
    keep_interval_seconds: float | None = None
    #: Disable automatic activation entirely (collection only via explicit call).
    enabled: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical parameters."""
        if self.versions_to_keep < 1:
            raise ConfigurationError("garbage collector must keep at least one version")
        if self.written_bytes_threshold <= 0:
            raise ConfigurationError("written-bytes threshold must be positive")
        if self.keep_interval_seconds is not None and self.keep_interval_seconds <= 0:
            raise ConfigurationError("the version-retention interval must be positive")


@dataclass(frozen=True)
class QuorumConfig:
    """Quorum-system selection of the cloud-of-clouds backend.

    Without ``weights`` (the default) the backend keeps the paper's uniform
    threshold quorums: ``n - f`` acknowledgements, ``f + 1`` matching digests.
    With them it builds a :class:`~repro.clouds.quorums.WeightedQuorumSystem`
    over the deployment's providers, threads it through every DepSky quorum
    call and ranks candidate quorums by expected cost × latency (see
    :class:`~repro.clouds.health.QuorumPlanner`).
    """

    #: Per-provider trust weights, e.g. ``(("amazon-s3", 1.2), ...)``; they
    #: must cover the deployment's providers exactly.
    weights: tuple[tuple[str, float], ...] = ()
    #: Total weight of providers that may fail simultaneously.
    fault_budget: float | None = None

    @property
    def weighted(self) -> bool:
        """True when a weighted quorum system is configured."""
        return bool(self.weights)

    def _build(self, universe: tuple[str, ...]) -> WeightedQuorumSystem:
        return WeightedQuorumSystem(universe=universe, weights=self.weights,
                                    fault_budget=self.fault_budget or 0.0)

    def validate(self) -> None:
        """Reject structurally invalid *and* infeasible quorum configurations.

        Feasibility (quorum intersection + availability under the fault
        budget) is checked here, at config time, against the provider names
        the weights name — not deferred to the first quorum call.
        :meth:`system_for` re-validates against the actual deployment's
        providers.
        """
        if not self.weighted:
            if self.fault_budget is not None:
                raise ConfigurationError(
                    "a fault budget needs per-provider weights (threshold "
                    "quorums take no budget)")
            return
        if self.fault_budget is None or self.fault_budget <= 0:
            raise ConfigurationError("weighted quorums need a positive fault budget")
        try:
            self._build(tuple(name for name, _ in self.weights)).validate()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def system_for(self, clouds: Sequence[str], f: int) -> QuorumSystem:
        """The validated quorum system over the deployment's actual providers.

        The uniform :class:`~repro.clouds.quorums.ThresholdQuorumSystem`
        tolerating ``f`` without weights.  Raises
        :class:`ConfigurationError` when the weights name other providers
        than the deployment's, or when the system fails its
        intersection/availability checks.
        """
        names = tuple(clouds)
        if not self.weighted:
            return ThresholdQuorumSystem(names, f)
        configured = {name for name, _ in self.weights}
        if configured != set(names):
            raise ConfigurationError(
                f"weighted quorum weights name providers "
                f"{sorted(configured)} but the deployment has {sorted(names)}")
        system = self._build(names)
        try:
            system.validate()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        return system


@dataclass(frozen=True)
class SCFSConfig:
    """Full configuration of one SCFS agent."""

    mode: OperationMode = OperationMode.BLOCKING
    backend: BackendKind = BackendKind.COC
    #: Number of faulty providers/replicas tolerated by the CoC backend.
    fault_tolerance: int = 1
    #: Number of independent coordination services the namespace is partitioned
    #: over (the §5 scalability extension; 1 = the paper's base design).
    coordination_partitions: int = 1
    #: Enable Private Name Spaces for files not shared with other users (§2.7).
    private_name_spaces: bool = False
    #: Encrypt file data before it leaves the client (always on for CoC in the paper).
    encrypt_data: bool = True
    caches: CacheConfig = field(default_factory=CacheConfig)
    gc: GarbageCollectionPolicy = field(default_factory=GarbageCollectionPolicy)
    #: Quorum dispatch policy (timeouts/retries/hedging) and cloud health
    #: tracking (suspect lists) of this agent's storage backend.
    dispatch: DispatchPolicyConfig = field(default_factory=DispatchPolicyConfig)
    #: Quorum-system structure of the CoC backend: the paper's threshold
    #: quorums by default, weighted ones when weights are given.
    quorum: QuorumConfig = field(default_factory=QuorumConfig)
    #: Lease of coordination-service sessions/locks in seconds.
    lock_lease: float = 30.0

    def validate(self) -> None:
        """Check cross-field consistency; raise :class:`ConfigurationError` otherwise."""
        self.caches.validate()
        self.gc.validate()
        self.dispatch.validate()
        self.quorum.validate()
        if self.fault_tolerance < 0:
            raise ConfigurationError("fault tolerance must be non-negative")
        if self.quorum.weighted and self.backend is not BackendKind.COC:
            raise ConfigurationError(
                "weighted quorum systems require the cloud-of-clouds "
                "backend (a single cloud has no quorum structure)")
        if self.coordination_partitions < 1:
            raise ConfigurationError("at least one coordination partition is required")
        if self.mode is OperationMode.NON_SHARING and not self.private_name_spaces:
            # The non-sharing mode stores *all* metadata in the PNS by definition.
            raise ConfigurationError("the non-sharing mode requires private name spaces")
        if self.lock_lease <= 0:
            raise ConfigurationError("the lock lease must be positive")
        if self.backend is BackendKind.AWS and self.dispatch != DispatchPolicyConfig():
            # One store has no quorum call to time out, retry, hedge or
            # re-plan around a suspect: every knob would be ignored.
            raise ConfigurationError(
                "the dispatch policy requires the cloud-of-clouds backend "
                "(a single cloud has no quorum call to dispatch)"
            )

    @staticmethod
    def for_variant(name: str, **overrides) -> "SCFSConfig":
        """Build the configuration of one of the Table 2 variants by name."""
        from repro.core.modes import variant  # local import avoids a cycle at module load

        spec = variant(name)
        pns = spec.mode is OperationMode.NON_SHARING or overrides.pop("private_name_spaces", False)
        config = SCFSConfig(
            mode=spec.mode,
            backend=spec.backend,
            fault_tolerance=1 if spec.backend is BackendKind.COC else 0,
            encrypt_data=spec.backend is BackendKind.COC,
            private_name_spaces=pns,
            **overrides,
        )
        config.validate()
        return config
