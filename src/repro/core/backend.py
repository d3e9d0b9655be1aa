"""The SCFS storage backplane.

SCFS "provides a pluggable backplane that allows it to work with various
storage clouds or a cloud-of-clouds" (§1).  The agent's storage service talks
to a :class:`StorageBackend`, of which two implementations exist, matching the
two backends evaluated in the paper (Figure 5):

* :class:`SingleCloudBackend` — file data stored as one object per version in
  a single storage cloud (SCFS-AWS, also the substrate of the S3FS/S3QL
  baselines);
* :class:`CloudOfCloudsBackend` — file data stored through the DepSky
  protocols over ``3f+1`` clouds (SCFS-CoC).

Every version of a file is immutable and identified by ``(file_id, digest)`` —
the pair anchored in the coordination service by the consistency-anchor
algorithm (Figure 3).  A backend may mint a *locator* for each version it
writes (:attr:`~repro.common.types.ObjectRef.locator`); it is anchored with the
pair and handed back on reads, so that finding the version costs the
(eventually consistent) clouds no extra round.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import CloudError, IntegrityError, ObjectNotFoundError
from repro.common.types import ObjectRef, Permission, Principal
from repro.clouds.dispatch import BENIGN_ERRORS, DispatchPolicy, QuorumCall, QuorumRequest
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.health import CloudHealthTracker, HealthStats, QuorumPlanner
from repro.crypto.hashing import content_digest
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient, DepSkyReadResult
from repro.simenv.environment import Simulation


@dataclass
class ReadPathStats:
    """Which decode path served the cloud reads of a CoC backend.

    Aggregated per backend (one per agent) and summed across agents by the
    benchmark reports: the preferred-quorum hit rate under fault injection is
    the figure the ROADMAP asked to surface.
    """

    systematic: int = 0
    coded: int = 0
    #: Reads whose block fetch dispatched the parity fallback stage.
    fallback_reads: int = 0
    #: Backup requests dispatched as hedges across all reads.
    hedged_requests: int = 0
    #: Requests demoted out of their stage because the cloud was suspected.
    demoted_requests: int = 0
    #: Background probes dispatched at suspected clouds.
    probe_requests: int = 0

    @property
    def total(self) -> int:
        """Number of cloud reads recorded."""
        return self.systematic + self.coded

    @property
    def systematic_rate(self) -> float:
        """Fraction of cloud reads served by the systematic (preferred) path."""
        return self.systematic / self.total if self.total else 0.0

    def record(self, result: DepSkyReadResult) -> None:
        """Account one DepSky read result."""
        if result.path == "systematic":
            self.systematic += 1
        else:
            self.coded += 1
        for stats in (result.stats, result.meta_stats):
            if stats is None:
                continue
            self.hedged_requests += stats.hedged
            self.demoted_requests += len(stats.demoted)
            self.probe_requests += stats.probes
        if result.stats is not None and result.stats.fallback_dispatched:
            self.fallback_reads += 1

    def merge(self, other: "ReadPathStats") -> "ReadPathStats":
        """Return the sum of two accumulators (used to aggregate across agents)."""
        return ReadPathStats(
            systematic=self.systematic + other.systematic,
            coded=self.coded + other.coded,
            fallback_reads=self.fallback_reads + other.fallback_reads,
            hedged_requests=self.hedged_requests + other.hedged_requests,
            demoted_requests=self.demoted_requests + other.demoted_requests,
            probe_requests=self.probe_requests + other.probe_requests,
        )


class StorageBackend(abc.ABC):
    """Versioned, content-addressed storage of whole files in the cloud(s)."""

    name: str = "abstract"
    #: The simulation whose clock the backend charges.
    sim: Simulation

    @abc.abstractmethod
    def write_version(self, file_id: str, data: bytes,
                      min_version: int | None = None) -> ObjectRef:
        """Store ``data`` as a new version of ``file_id``; returns its reference.

        ``min_version`` is a lower bound on the backend's internal version
        number, supplied by callers that hold a strongly consistent version
        counter (the agent passes the anchored ``data_version``); backends
        without version counters ignore it.
        """

    def write_versions(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        """Store one new version of several files: ``(file_id, data, version)`` each.

        For a caller that holds the files' locks and has validated the anchor:
        ``version`` is :meth:`version_after` of what each file's anchor holds,
        so the backend asks the cloud(s) nothing before it uploads.  This
        default — what :class:`SingleCloudBackend` keeps — is a plain loop over
        :meth:`write_version`, one upload after the other (its versions are
        named by digest alone; the number is not used); a backend that can
        overlap the uploads overrides it.
        """
        return [self.write_version(file_id, data) for file_id, data, _version in items]

    def version_after(self, locator: str, data_version: int) -> int:
        """This backend's number for the version that replaces the anchored one.

        ``locator`` and ``data_version`` are what the anchor holds for the
        file.  A backend that numbers its versions reads the anchored number
        out of the locator it minted; without one the anchor's own counter is
        all there is to number from, which is this default.
        """
        return data_version + 1

    @abc.abstractmethod
    def read_version(self, file_id: str, digest: str, locator: str = "") -> bytes:
        """Return the version of ``file_id`` whose content hash is ``digest``.

        ``locator`` is the one this backend minted when it wrote the version
        (empty when the caller has none).  Raises
        :class:`~repro.common.errors.ObjectNotFoundError` when the version is
        not (yet) visible — the caller implements the retry loop of Figure 3
        (step r2, :func:`repro.core.consistency.read_anchored`) — and
        :class:`~repro.common.errors.IntegrityError` for a locator this
        backend cannot have minted.
        """

    @abc.abstractmethod
    def delete_version(self, file_id: str, digest: str, locator: str = "") -> bool:
        """Delete one version (used by the garbage collector).

        ``locator`` is the one :meth:`list_versions` gave for the version
        (without it the backend may have to list again).  Returns whether the
        delete reached the cloud(s); if not, the next listing still shows it.
        """

    @abc.abstractmethod
    def list_versions(self, file_id: str) -> list[ObjectRef]:
        """List the stored versions of ``file_id``, oldest first.

        One LIST per cloud; ``size`` is the bytes the version occupies there.
        """

    @abc.abstractmethod
    def set_acl(self, file_id: str, grantee: Principal, permission: Permission) -> None:
        """Grant cloud-side access to every (current and future) version of ``file_id``."""

    @abc.abstractmethod
    def destroy(self, file_id: str) -> None:
        """Remove every version of ``file_id`` from the cloud(s)."""

    @abc.abstractmethod
    def estimate_write_latency(self, num_bytes: int) -> float:
        """Expected seconds to push a ``num_bytes`` version to the cloud(s).

        Used by the non-blocking mode to schedule the completion of background
        uploads on the simulated clock.
        """

    @abc.abstractmethod
    def estimate_readable_at(self, locator: str) -> float:
        """Simulated time from which the version behind ``locator`` is expected to be fetchable.

        The clouds acknowledge a put before readers can see it (eventual
        consistency).  Like the latency estimates, this comes from the
        client's profile of its providers (their propagation delays), not from
        the stores' state: a reader told of a version before then waits for
        this instant instead of polling for it (Figure 3, step r2).  ``0.0``
        (nothing to wait for) without a locator.
        """

    @abc.abstractmethod
    def estimate_read_latency(self, num_bytes: int) -> float:
        """Expected seconds to fetch a ``num_bytes`` version from the cloud(s)."""

    @abc.abstractmethod
    def stored_bytes(self, file_id: str) -> int:
        """Total bytes the cloud(s) currently hold for ``file_id`` (cost analysis)."""

    @abc.abstractmethod
    def storage_overhead(self) -> float:
        """Ratio of stored bytes to logical bytes for one version (≈1.0 or ≈1.5)."""

    #: Per-backend cloud health tracker (``None`` when tracking is disabled).
    health: CloudHealthTracker | None = None

    def health_stats(self) -> HealthStats | None:
        """Snapshot of the suspicion counters, or ``None`` without tracking."""
        return self.health.snapshot() if self.health is not None else None


class SingleCloudBackend(StorageBackend):
    """Whole-file versions stored as objects of a single storage cloud (SCFS-AWS).

    ``dispatch`` is the agent's
    :class:`~repro.core.config.DispatchPolicyConfig`.  A single cloud has no
    quorum to re-plan, so only the health-tracking half applies: request
    outcomes feed a :class:`~repro.clouds.health.CloudHealthTracker`, making
    outage detection visible to reports even for the SCFS-AWS variants.
    """

    def __init__(self, sim: Simulation, store: EventuallyConsistentStore, principal: Principal,
                 dispatch=None):
        self.sim = sim
        self.store = store
        self.principal = principal
        self.name = f"single-cloud({store.name})"
        self.health: CloudHealthTracker | None = (
            dispatch.make_tracker() if dispatch is not None else None
        )
        self._ewma_estimates = bool(getattr(dispatch, "ewma_estimates", False))

    def _observed(self, operation):
        """Run one store operation, feeding its outcome to the health tracker.

        A benign error (not-found / access-denied) is an authoritative answer
        — proof of liveness — so it counts as a contact success: polling a
        not-yet-visible version under eventual consistency must not put the
        only cloud on the suspect list.
        """
        if self.health is None:
            return operation()
        start = self.sim.now()
        try:
            result = operation()
        except CloudError as exc:
            self.health.observe(self.store.name, succeeded=isinstance(exc, BENIGN_ERRORS),
                                latency=self.sim.now() - start, now=self.sim.now())
            raise
        self.health.observe(self.store.name, succeeded=True,
                            latency=self.sim.now() - start, now=self.sim.now())
        return result

    # -- key scheme -----------------------------------------------------------

    @staticmethod
    def _prefix(file_id: str) -> str:
        return f"scfs/{file_id}/"

    @classmethod
    def _key(cls, file_id: str, digest: str) -> str:
        return f"{cls._prefix(file_id)}{digest}"

    # -- StorageBackend --------------------------------------------------------

    def write_version(self, file_id: str, data: bytes,
                      min_version: int | None = None) -> ObjectRef:
        # min_version is irrelevant here: each version is its own digest-named
        # object, so concurrent writers cannot clobber one another's versions.
        digest = content_digest(data)
        self._observed(lambda: self.store.put(self._key(file_id, digest), data, self.principal))
        # The key is the digest, so all a reader can be told is when the put
        # landed: the instant its propagation runs from.
        return ObjectRef(key=file_id, digest=digest, size=len(data),
                         locator=repr(self.sim.now()))

    def read_version(self, file_id: str, digest: str, locator: str = "") -> bytes:
        data = self._observed(lambda: self.store.get(self._key(file_id, digest), self.principal))
        if content_digest(data) != digest:
            # The provider returned corrupted data for this version; surface it
            # as "not found" so the caller's retry loop can try again (and
            # eventually give up) instead of silently accepting bad data.
            raise ObjectNotFoundError(
                f"version {digest[:12]}… of {file_id!r} failed its integrity check"
            )
        return data

    def delete_version(self, file_id: str, digest: str, locator: str = "") -> bool:
        self.store.delete(self._key(file_id, digest), self.principal)
        return True

    def list_versions(self, file_id: str) -> list[ObjectRef]:
        listing = self.store.list_keys(self._prefix(file_id), self.principal)
        refs = [ObjectRef(key=file_id, digest=entry.key.rsplit("/", 1)[1], size=entry.size,
                          created_at=entry.created_at) for entry in listing.entries]
        return sorted(refs, key=lambda r: (r.created_at, r.digest))

    def set_acl(self, file_id: str, grantee: Principal, permission: Permission) -> None:
        canonical = grantee.canonical_id(self.store.name)
        self.store.set_bucket_policy(self._prefix(file_id), canonical, permission, self.principal)

    def destroy(self, file_id: str) -> None:
        listing = self.store.list_keys(self._prefix(file_id), self.principal)
        for key in listing.keys:
            self.store.delete(key, self.principal)

    def _estimated(self, kind: str, num_bytes: int) -> float:
        # Deterministic expectation: estimates must not consume RNG draws (and
        # previously dropped the jitter term silently by passing no RNG).
        # With ``ewma_estimates`` on, the health tracker's observed latency
        # EWMA raises the estimate for a provider that is actually slower
        # than its profile claims (a gray failure the profile cannot know).
        expected = self.store.expected_request_latency(kind, num_bytes)
        if self._ewma_estimates and self.health is not None:
            record = self.health.health(self.store.name)
            if (record.ewma_latency is not None
                    and record.samples >= self.health.policy.min_samples):
                expected = max(expected, record.ewma_latency)
        return expected

    def estimate_write_latency(self, num_bytes: int) -> float:
        return self._estimated("object_put", num_bytes)

    def estimate_readable_at(self, locator: str) -> float:
        if not locator:
            return 0.0
        try:
            landed = float(locator)
        except ValueError as exc:
            raise IntegrityError(f"malformed version locator {locator!r}") from exc
        return landed + self.store.profile.propagation_delay

    def estimate_read_latency(self, num_bytes: int) -> float:
        return self._estimated("object_get", num_bytes)

    def stored_bytes(self, file_id: str) -> int:
        return self.store.list_keys(self._prefix(file_id), self.principal).total_bytes

    def storage_overhead(self) -> float:
        return 1.0


class CloudOfCloudsBackend(StorageBackend):
    """Whole-file versions stored through DepSky over ``3f+1`` clouds (SCFS-CoC).

    ``dispatch`` is the agent's
    :class:`~repro.core.config.DispatchPolicyConfig`: it supplies both the
    engine-level :class:`~repro.clouds.dispatch.DispatchPolicy`
    (timeouts/retries/hedging) and, when suspicion is enabled, the per-client
    :class:`~repro.clouds.health.CloudHealthTracker` that demotes suspected
    clouds out of the primary quorum stage.  An explicit ``policy`` argument
    overrides the one derived from ``dispatch``.  ``coalescer`` is the
    deployment-wide :class:`~repro.clouds.dispatch.InstantCoalescer` (or
    ``None``): it is *shared* across the backends of all agents so that
    identical same-instant metadata reads coalesce across clients.
    """

    def __init__(
        self,
        sim: Simulation,
        clouds: list[EventuallyConsistentStore],
        principal: Principal,
        f: int = 1,
        encrypt: bool = True,
        policy: DispatchPolicy | None = None,
        dispatch=None,
        coalescer=None,
        quorum=None,
    ):
        self.sim = sim
        self.principal = principal
        if policy is None and dispatch is not None:
            policy = dispatch.to_policy()
        self.health: CloudHealthTracker | None = (
            dispatch.make_tracker() if dispatch is not None else None
        )
        self._ewma_estimates = bool(getattr(dispatch, "ewma_estimates", False))
        self._stores = {cloud.name: cloud for cloud in clouds}
        # ``quorum`` is the agent's :class:`~repro.core.config.QuorumConfig`
        # (or None).  In threshold mode ``system_for`` returns None and the
        # client keeps its legacy integer counts — byte-identical dispatch.
        system = quorum.system_for([c.name for c in clouds], f) if quorum is not None else None
        planner = None
        if system is not None and getattr(quorum, "planner", False):
            planner = QuorumPlanner(
                latency_of=lambda cloud, kind, payload: self._cloud_latency(
                    cloud, kind, payload, ewma=True),
                cost_of=lambda cloud, kind, payload: self._stores[
                    cloud].costs.pricing.request_cost(kind, payload),
                tracker=self.health,
            )
        self.client = DepSkyClient(
            sim, clouds, principal, f=f, encrypt=encrypt, preferred_quorums=True,
            policy=policy, health=self.health, coalescer=coalescer,
            quorum=system, planner=planner,
        )
        self.name = f"cloud-of-clouds(f={f}, n={self.client.n})"
        self.read_paths = ReadPathStats()

    # -- StorageBackend ----------------------------------------------------------

    def write_version(self, file_id: str, data: bytes,
                      min_version: int | None = None) -> ObjectRef:
        return self._ref(file_id, self.client.write(file_id, data, min_version=min_version))

    def write_versions(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        """All of ``items`` through the two DepSky put phases together (``write_numbered``)."""
        records = self.client.write_numbered(items)
        return [self._ref(file_id, record)
                for (file_id, _data, _version), record in zip(items, records, strict=True)]

    def version_after(self, locator: str, data_version: int) -> int:
        if not locator:
            return data_version + 1
        return VersionRecord.from_locator(locator, "").version + 1

    @staticmethod
    def _ref(file_id: str, record: VersionRecord) -> ObjectRef:
        return ObjectRef(key=file_id, digest=record.data_digest, size=record.size,
                         locator=record.locator())

    def read_version(self, file_id: str, digest: str, locator: str = "") -> bytes:
        record = VersionRecord.from_locator(locator, digest) if locator else None
        result = self.client.read_matching(file_id, digest, record=record)
        self.read_paths.record(result)
        return result.data

    def delete_version(self, file_id: str, digest: str, locator: str = "") -> bool:
        """Every stored version with ``digest``, or just the one ``locator`` names."""
        if locator:
            versions = [VersionRecord.from_locator(locator, digest).version]
        else:
            versions = [record.version for record in self.client.list_versions(file_id)
                        if record.data_digest == digest]
        # (A list, not a generator: every delete is attempted.)
        return all([self.client.delete_version(file_id, version, digest)
                    for version in versions])

    def list_versions(self, file_id: str) -> list[ObjectRef]:
        return [ObjectRef(key=file_id, digest=r.data_digest, size=r.size,
                          created_at=r.created_at, locator=r.locator())
                for r in self.client.list_versions(file_id)]

    def set_acl(self, file_id: str, grantee: Principal, permission: Permission) -> None:
        self.client.set_acl(file_id, grantee, permission)

    def destroy(self, file_id: str) -> None:
        self.client.destroy_unit(file_id)

    def _cloud_latency(self, cloud_name: str, kind: str, payload: int,
                       ewma: bool) -> float:
        """Deterministic latency estimate for one request against one cloud.

        With ``ewma`` the health tracker's observed latency EWMA raises the
        estimate above the profile expectation for providers that are actually
        slower than their profile claims (gray failures); a *suspected*
        provider is additionally floored at the per-request timeout — the wait
        a call that insists on it would actually pay.
        """
        store = self._stores[cloud_name]
        expected = store.expected_request_latency(kind, payload)
        if not ewma or self.health is None:
            return expected
        record = self.health.health(cloud_name)
        if (record.ewma_latency is not None
                and record.samples >= self.health.policy.min_samples):
            expected = max(expected, record.ewma_latency)
        if self.health.is_suspected(cloud_name):
            policy = self.client.policy
            if policy is not None and policy.timeout is not None:
                expected = max(expected, policy.timeout)
        return expected

    def _expected_quorum(self, clouds: list[EventuallyConsistentStore], kind: str,
                         payload: int, required: int) -> float:
        """Expected wait of one quorum stage, computed by the dispatch engine.

        The requests carry deterministic expected latencies (no RNG draws, so
        estimating never perturbs the simulation's random stream) and no side
        effects; the engine's m-th-success semantics do the rest.  With
        ``ewma_estimates`` configured, the per-cloud estimates blend in the
        health tracker's observed EWMAs, so a known-slow provider inflates the
        estimate exactly when the quorum cannot complete without it — and the
        non-blocking mode's background-upload schedule routes around it.
        """
        requests = [
            QuorumRequest(
                cloud=cloud.name,
                send=lambda: None,
                latency=lambda _value, cloud=cloud: self._cloud_latency(
                    cloud.name, kind, payload, ewma=self._ewma_estimates),
            )
            for cloud in clouds
        ]
        return QuorumCall(self.client.policy).stage(requests).execute(required=required).charged

    def estimate_write_latency(self, num_bytes: int) -> float:
        client = self.client
        block_bytes = client.coder.block_size(num_bytes + 64)
        quorum = client.n - client.f
        return (
            self._expected_quorum(client.clouds, "object_get", 512, client.k)
            + self._expected_quorum(client.clouds[:quorum], "object_put", block_bytes, quorum)
            + self._expected_quorum(client.clouds, "object_put", 1024, quorum)
        )

    def estimate_readable_at(self, locator: str) -> float:
        if not locator:
            return 0.0
        # The instant the client's block fetch stages its reads by, too.
        return self.client.readable_at(VersionRecord.from_locator(locator, ""))

    def estimate_read_latency(self, num_bytes: int) -> float:
        """The block fetch alone: a locator read has no metadata-object round.

        No caller in ``src/``; ``benchmarks/layers/tracer.py`` names it.
        """
        client = self.client
        block_bytes = client.coder.block_size(num_bytes + 64)
        return self._expected_quorum(client.clouds[:client.k], "object_get", block_bytes, client.k)

    def stored_bytes(self, file_id: str) -> int:
        return self.client.stored_bytes(file_id)

    def storage_overhead(self) -> float:
        return self.client.coder.storage_overhead()
