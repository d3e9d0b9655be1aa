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
from dataclasses import dataclass, replace
from typing import Sequence

from repro.common.errors import IntegrityError, ObjectNotFoundError
from repro.common.types import ObjectRef, Permission, Principal
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.health import CloudHealthTracker, HealthStats, expected_latency
from repro.clouds.quorums import quorum_system
from repro.core.config import DispatchPolicyConfig
from repro.crypto.hashing import content_digest
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient, DepSkyReadResult
from repro.simenv.environment import Simulation


@dataclass
class ReadPathStats:
    """Which decode path served the cloud reads of a CoC backend (one per agent).

    Hedges, fallbacks, demotions and probes are not counted here: every quorum
    call's :class:`~repro.clouds.dispatch.QuorumCallStats` reaches
    ``DepSkyClient.on_quorum``, and the tracker keeps :class:`HealthStats`.
    """

    systematic: int = 0
    coded: int = 0

    def record(self, result: DepSkyReadResult) -> None:
        """Account one DepSky read result."""
        if result.path == "systematic":
            self.systematic += 1
        else:
            self.coded += 1


class StorageBackend(abc.ABC):
    """Versioned, content-addressed storage of whole files in the cloud(s)."""

    name: str = "abstract"
    #: The simulation whose clock the backend charges.
    sim: Simulation

    @abc.abstractmethod
    def write_versions(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        """Store one new version of each file: ``(file_id, data, version)`` each.

        ``version`` is :meth:`version_after` of what the file's anchor holds
        (every SCFS close, PNS save and transaction commit numbers from the
        consistency anchor): the backend asks the cloud(s) nothing before it
        uploads.  Backends without version counters ignore it.  Returns the
        versions' references, in the order of ``items``.
        """

    def write_version(self, file_id: str, data: bytes, version: int) -> ObjectRef:
        """:meth:`write_versions` of one version."""
        return self.write_versions([(file_id, data, version)])[0]

    def version_after(self, locator: str, data_version: int) -> int:
        """This backend's number for the version that replaces the anchored one.

        ``locator`` and ``data_version`` are what the anchor holds for the
        file.  A backend that numbers its versions reads the anchored number
        out of the locator it minted; without one the anchor's own counter is
        all there is to number from, which is this default.
        """
        return data_version + 1

    @abc.abstractmethod
    def read_version(self, file_id: str, digest: str, locator: str) -> bytes:
        """Return the version of ``file_id`` whose content hash is ``digest``.

        ``locator`` is the one this backend minted when it wrote the version,
        as the anchor holds it.  A cloud-of-clouds reads the one version it
        names and raises :class:`~repro.common.errors.IntegrityError` for a
        locator it cannot have minted, an empty one included; one cloud keys
        versions by digest and ignores it.  Raises
        :class:`~repro.common.errors.ObjectNotFoundError` or
        :class:`~repro.common.errors.QuorumNotReachedError` when the version
        is not (yet) visible — the caller implements the retry loop of
        Figure 3 (step r2, :func:`repro.core.consistency.read_anchored`).
        """

    @abc.abstractmethod
    def delete_version(self, file_id: str, digest: str, locator: str) -> bool:
        """Delete one version (used by the garbage collector).

        ``locator`` is the one :meth:`list_versions` gave for the version.
        Returns whether the delete reached the cloud(s); if not, the next
        listing still shows it.
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
        uploads on the simulated clock.  For a cloud-of-clouds it is DepSky's
        dry run of the calls the write sends
        (:meth:`~repro.depsky.protocol.DepSkyClient.expected_write`); for one
        cloud, the expected PUT
        (:func:`~repro.clouds.health.expected_latency`).
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

    #: Per-backend cloud health tracker (``None`` when tracking is disabled).
    health: CloudHealthTracker | None = None

    def health_stats(self) -> HealthStats | None:
        """A copy of the tracker's counters, or ``None`` without tracking."""
        return replace(self.health.stats) if self.health is not None else None


class SingleCloudBackend(StorageBackend):
    """Whole-file versions stored as objects of a single storage cloud (SCFS-AWS).

    One cloud has no quorum to time out, hedge or re-plan, so the backend
    takes no dispatch policy and tracks no health (:attr:`health` stays
    ``None``).
    """

    def __init__(self, sim: Simulation, store: EventuallyConsistentStore, principal: Principal):
        self.sim = sim
        self.store = store
        self.principal = principal
        self.name = f"single-cloud({store.name})"

    # -- key scheme -----------------------------------------------------------

    @staticmethod
    def _prefix(file_id: str) -> str:
        return f"scfs/{file_id}/"

    @classmethod
    def object_key(cls, file_id: str, digest: str) -> str:
        """Name of the object holding the version ``digest`` of ``file_id``."""
        return f"{cls._prefix(file_id)}{digest}"

    # -- StorageBackend --------------------------------------------------------

    def write_versions(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        # One upload after the other, numbered by digest alone: concurrent
        # writers cannot clobber one another's versions.
        refs = []
        for file_id, data, _version in items:
            digest = content_digest(data)
            self.store.put(self.object_key(file_id, digest), data, self.principal)
            # The key is the digest, so all a reader can be told is when the
            # put landed: the instant its propagation runs from.
            refs.append(ObjectRef(key=file_id, digest=digest, size=len(data),
                                  locator=repr(self.sim.now())))
        return refs

    def read_version(self, file_id: str, digest: str, locator: str) -> bytes:
        data = self.store.get(self.object_key(file_id, digest), self.principal)
        if content_digest(data) != digest:
            # The provider returned corrupted data for this version; surface it
            # as "not found" so the caller's retry loop can try again (and
            # eventually give up) instead of silently accepting bad data.
            raise ObjectNotFoundError(
                f"version {digest[:12]}… of {file_id!r} failed its integrity check"
            )
        return data

    def delete_version(self, file_id: str, digest: str, locator: str) -> bool:
        self.store.delete(self.object_key(file_id, digest), self.principal)
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

    def estimate_write_latency(self, num_bytes: int) -> float:
        return expected_latency(self.store, "object_put", num_bytes)

    def estimate_readable_at(self, locator: str) -> float:
        if not locator:
            return 0.0
        try:
            landed = float(locator)
        except ValueError as exc:
            raise IntegrityError(f"malformed version locator {locator!r}") from exc
        return landed + self.store.profile.propagation_delay


class CloudOfCloudsBackend(StorageBackend):
    """Whole-file versions stored through DepSky over ``3f+1`` clouds (SCFS-CoC).

    ``dispatch`` is the agent's
    :class:`~repro.core.config.DispatchPolicyConfig`: the DepSky client's
    quorum calls read their timeouts, retries and hedging from it and, when
    suspicion is enabled, so does the per-client
    :class:`~repro.clouds.health.CloudHealthTracker` that demotes suspected
    clouds out of the primary quorum stage.  ``weights`` are the agent's
    ``SCFSConfig.quorum_weights``: none keeps DepSky's threshold quorums.
    """

    def __init__(
        self,
        sim: Simulation,
        clouds: list[EventuallyConsistentStore],
        principal: Principal,
        *,
        dispatch: DispatchPolicyConfig,
        weights: tuple[tuple[str, float], ...] = (),
        f: int = 1,
        encrypt: bool = True,
    ):
        self.sim = sim
        self.principal = principal
        self.client = DepSkyClient(
            sim, clouds, principal, f=f, encrypt=encrypt, policy=dispatch,
            quorum=quorum_system([c.name for c in clouds], f, weights),
        )
        #: The client's tracker (``None`` unless ``dispatch`` tracks health).
        self.health: CloudHealthTracker | None = self.client.health
        self.name = f"cloud-of-clouds(f={f}, n={self.client.n})"
        self.read_paths = ReadPathStats()

    # -- StorageBackend ----------------------------------------------------------

    def write_versions(self, items: Sequence[tuple[str, bytes, int]]) -> list[ObjectRef]:
        """All of ``items`` through the two DepSky put phases together, no head read first."""
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

    def read_version(self, file_id: str, digest: str, locator: str) -> bytes:
        result = self.client.read_matching(
            file_id, digest, VersionRecord.from_locator(locator, digest))
        self.read_paths.record(result)
        return result.data

    def delete_version(self, file_id: str, digest: str, locator: str) -> bool:
        """The one version ``locator`` names (the one :meth:`list_versions` minted)."""
        version = VersionRecord.from_locator(locator, digest).version
        return self.client.delete_version(file_id, version, digest)

    def list_versions(self, file_id: str) -> list[ObjectRef]:
        return [ObjectRef(key=file_id, digest=r.data_digest, size=r.size, locator=r.locator())
                for r in self.client.list_versions(file_id)]

    def set_acl(self, file_id: str, grantee: Principal, permission: Permission) -> None:
        self.client.set_acl(file_id, grantee, permission)

    def destroy(self, file_id: str) -> None:
        self.client.destroy_unit(file_id)

    def estimate_write_latency(self, num_bytes: int) -> float:
        """DepSky's dry run of ``write_numbered``: every SCFS write is numbered by its anchor."""
        return self.client.expected_write(num_bytes)

    def estimate_readable_at(self, locator: str) -> float:
        if not locator:
            return 0.0
        # The instant the client's block fetch stages its reads by, too.
        return self.client.readable_at(VersionRecord.from_locator(locator, ""))

    def estimate_read_latency(self, num_bytes: int) -> float:
        """DepSky's dry run of a locator read (no caller in ``src/``; the layer tracer wraps it)."""
        return self.client.expected_read(num_bytes)
