"""In-memory, eventually-consistent object store with latency and cost models.

The store mimics the externally observable behaviour of commercial object
stores circa the paper's evaluation:

* **Eventual consistency** — a PUT is acknowledged immediately but the new
  object only becomes *visible to readers* after a configurable propagation
  delay.  Reads issued before that raise
  :class:`~repro.common.errors.ObjectNotFoundError` (read-after-write of a
  *new key* may miss) or return the previous version (overwrite of an existing
  key), exactly the anomaly the consistency-anchor read loop of Figure 3
  tolerates.
* **Latency charging** — every request advances the shared simulated clock by
  the provider's latency model (base + payload/bandwidth), unless the caller
  is background work, as a DepSky quorum call's requests are.
* **ACL enforcement** — an object is its creator's, keyed by canonical
  identifier; anyone else needs a bucket policy on a prefix of its key.
* **Fault injection** — unavailability, corruption, Byzantine responses,
  dropped writes and latency degradation (a DEGRADED window multiplies every
  request's latency, modelling a gray-failing straggler), driven by a
  :class:`~repro.simenv.failures.FailureSchedule`.
* **Cost accounting** — all requests, traffic and storage are recorded in a
  :class:`~repro.clouds.accounting.CostTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    AccessDeniedError,
    CloudUnavailableError,
    ObjectNotFoundError,
)
from repro.common.sortedkeys import SortedKeys
from repro.common.types import ACL, Permission, Principal
from repro.clouds.accounting import CostTracker
from repro.clouds.object_store import ObjectListing, ObjectVersion
from repro.clouds.pricing import StoragePricing
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import NetworkProfile


@dataclass(slots=True)
class StoredObject:
    """The record of one object key in the store.

    ``slots=True`` matters at scale: a primed 10^5-file pool holds ~10^6 of
    these records, and per-instance ``__dict__``s would double their footprint.
    """

    key: str
    data: bytes
    #: Canonical id of the principal that created the key; overwrites keep it.
    owner: str
    created_at: float
    visible_at: float
    previous: "StoredObject | None" = None
    #: Start of the not-yet-settled storage-accounting span.  Defaults to the
    #: creation clock — a ``0.0`` default would let byte-seconds accounting
    #: charge an object from simulation start instead of from its creation.
    stored_since: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.stored_since is None:
            self.stored_since = self.created_at

    def visible_version(self, now: float) -> "StoredObject | None":
        """Return the newest version of this key already visible at ``now``."""
        version: StoredObject | None = self
        while version is not None and version.visible_at > now:
            version = version.previous
        return version


class EventuallyConsistentStore:
    """Simulated eventually-consistent cloud object store.

    The only contract SCFS needs from a storage cloud (§2.1,
    service-agnosticism): on-demand object put/get/delete/list plus
    prefix-level grants.  Every request takes the acting :class:`Principal`
    and is checked, under that principal's canonical identifier at this
    provider, against the object's owner and the bucket policies on its key:
    SCFS relies on the clouds' own access control, not on the agent (§2.6).

    Parameters
    ----------
    sim:
        Shared simulation environment (clock, RNG).
    name:
        Provider name (used for canonical ids and reporting).
    profile:
        Latency/propagation profile of this provider as seen from the client.
    pricing:
        Pricing table used by the embedded cost tracker.
    failures:
        Optional failure schedule; when omitted the provider never misbehaves.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "cloud",
        profile: NetworkProfile | None = None,
        pricing: StoragePricing | None = None,
        failures: FailureSchedule | None = None,
    ):
        self.sim = sim
        self.name = name
        self.profile = profile or NetworkProfile(name=name)
        self.costs = CostTracker(pricing or StoragePricing())
        self.failures = failures or FailureSchedule()
        self._objects: dict[str, StoredObject] = {}
        #: The keys of ``_objects``, sorted: a LIST walks only its prefix's
        #: range.  Kept by :meth:`install` / ``delete``.
        self._keys = SortedKeys()
        # Bucket policies: prefix -> an ACL with no owner.  They model the
        # prefix-level grants commercial clouds offer; SCFS's setfacl uses them
        # so that *future* versions of a shared file inherit the grant.
        self._bucket_policies: dict[str, ACL] = {}

    # ------------------------------------------------------------------ util

    def _charge(self, model, payload: int = 0) -> None:
        latency = model.sample(payload, self.sim.rng)
        latency *= self.failures.degradation(self.sim.now())
        if not self.sim.in_background:
            self.sim.advance(latency)

    def request_latency(self, kind: str, payload: int = 0) -> float:
        """Sample the latency of one ``kind`` request moving ``payload`` bytes.

        Used by the quorum dispatch engine, which models the parallel requests
        of a cloud-of-clouds client itself (it sends them as background work,
        so the store charges nothing).  Applies any active DEGRADED fault window.
        """
        model = getattr(self.profile, kind)
        return model.sample(payload, self.sim.rng) * self.failures.degradation(self.sim.now())

    def _fail_if_unavailable(self) -> None:
        if self.failures.is_active(FaultKind.UNAVAILABLE, self.sim.now()):
            raise CloudUnavailableError(f"provider {self.name} is unavailable")

    def _maybe_corrupt(self, data: bytes) -> bytes:
        now = self.sim.now()
        if self.failures.is_active(FaultKind.BYZANTINE, now):
            # A Byzantine provider may return arbitrary data; we return a
            # deterministic wrong payload so tests are reproducible.
            return b"byzantine:" + data[::-1]
        if self.failures.is_active(FaultKind.CORRUPTION, now) and data:
            corrupted = bytearray(data)
            corrupted[0] ^= 0xFF
            return bytes(corrupted)
        return data

    def _allows(self, obj: StoredObject, canonical_id: str, permission: Permission) -> bool:
        """The object's owner, or a bucket policy on a prefix of its key that grants ``permission``."""
        return canonical_id == obj.owner or any(
            obj.key.startswith(prefix) and policy.allows(canonical_id, permission)
            for prefix, policy in self._bucket_policies.items())

    def _check_access(self, obj: StoredObject, principal: Principal, permission: Permission) -> None:
        cid = principal.canonical_id(self.name)
        if not self._allows(obj, cid, permission):
            raise AccessDeniedError(
                f"{principal.name} ({cid}) lacks {permission} on {obj.key!r} at {self.name}")

    def _settle_storage(self, obj: StoredObject) -> None:
        """Charge storage cost for the time elapsed since the last settlement."""
        now = self.sim.now()
        elapsed = now - obj.stored_since
        if elapsed > 0:
            self.costs.record_storage(len(obj.data), elapsed)
            obj.stored_since = now

    # ------------------------------------------------------------------ API

    def put(self, key: str, data: bytes, principal: Principal) -> ObjectVersion:
        self._fail_if_unavailable()
        self._charge(self.profile.object_put, len(data))
        self.costs.record_put(len(data))
        now = self.sim.now()
        current = self._objects.get(key)
        if current is not None:
            self._check_access(current, principal, Permission.WRITE)
            self._settle_storage(current)
            owner = current.owner
            # The clock never goes back, so no read reaches below the newest
            # version visible now: drop the older ones.
            visible = current.visible_version(now)
            if visible is not None:
                visible.previous = None
        else:
            owner = principal.canonical_id(self.name)
        stored_data = data
        if self.failures.is_active(FaultKind.DROP_WRITES, now):
            # The provider acknowledges but silently loses the payload: keep
            # the previous version (if any) as the "stored" one.
            stored_data = current.data if current is not None else b""
        if self.failures.is_active(FaultKind.CORRUPTION, now):
            stored_data = self._maybe_corrupt(stored_data)
        obj = StoredObject(
            key=key,
            data=stored_data,
            owner=owner,
            created_at=now,
            visible_at=now + self.profile.propagation_delay,
            previous=current,
            stored_since=now,
        )
        self.install(obj)
        return ObjectVersion(key=key, size=len(data), created_at=now)

    def get(self, key: str, principal: Principal) -> bytes:
        self._fail_if_unavailable()
        obj = self._objects.get(key)
        visible = obj.visible_version(self.sim.now()) if obj is not None else None
        payload = visible.data if visible is not None else b""
        self._charge(self.profile.object_get, len(payload))
        self.costs.record_get(len(payload))
        if visible is None:
            raise ObjectNotFoundError(f"{self.name}: no visible object under key {key!r}")
        self._check_access(visible, principal, Permission.READ)
        return self._maybe_corrupt(visible.data)

    def delete(self, key: str, principal: Principal) -> None:
        self._fail_if_unavailable()
        self._charge(self.profile.object_delete)
        self.costs.record_delete()
        obj = self._objects.get(key)
        if obj is None:
            return
        self._check_access(obj, principal, Permission.WRITE)
        self._settle_storage(obj)
        del self._objects[key]
        self._keys.discard(key)

    def list_keys(self, prefix: str, principal: Principal) -> ObjectListing:
        self._fail_if_unavailable()
        self._charge(self.profile.object_list)
        self.costs.record_list()
        now = self.sim.now()
        cid = principal.canonical_id(self.name)
        listing = ObjectListing()
        for key in self._keys.prefixed(prefix):
            visible = self._objects[key].visible_version(now)
            if visible is None or not self._allows(visible, cid, Permission.READ):
                continue
            listing.entries.append(ObjectVersion(
                key=key, size=len(visible.data), created_at=visible.created_at))
        return listing

    def exists(self, key: str, principal: Principal) -> bool:
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        obj = self._objects.get(key)
        visible = obj.visible_version(self.sim.now()) if obj is not None else None
        return visible is not None and self._allows(
            visible, principal.canonical_id(self.name), Permission.READ)

    def set_bucket_policy(self, prefix: str, grantee_canonical_id: str,
                          permission: Permission, principal: Principal) -> None:
        """Grant ``permission`` on every current and future key under ``prefix``.

        Models the prefix-level (bucket-policy) grants offered by commercial
        clouds.  SCFS's ``setfacl`` uses one policy update per cloud so that
        new versions of a shared file are readable by the grantee without
        touching each stored object (§2.6).
        """
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        self.install_policy(prefix, grantee_canonical_id, permission)

    # --------------------------------------------------------------- helpers

    def install(self, obj: StoredObject) -> None:
        """Make ``obj`` the current version of its key (``put`` after its
        checks and charges; pool priming directly)."""
        if obj.key not in self._objects:
            self._keys.add(obj.key)
        self._objects[obj.key] = obj

    def install_policy(self, prefix: str, grantee: str, permission: Permission) -> None:
        """Set ``grantee``'s grant on ``prefix`` (``set_bucket_policy`` after its checks)."""
        policy = self._bucket_policies.get(prefix, ACL())
        self._bucket_policies[prefix] = policy.with_grant(grantee, permission)

    def raw_object(self, key: str) -> bytes | None:
        """Bytes stored under ``key`` exactly as the provider holds them.

        Bypasses visibility delays, ACLs, fault injection and latency charging
        — the ground-truth view the scenario engine's durability checker uses
        to count how many providers really hold a verifiable block.
        """
        obj = self._objects.get(key)
        return obj.data if obj is not None else None

    def stored_bytes(self) -> int:
        """Bytes of each key's newest version, the ones storage is billed for.

        A superseded version still served inside a propagation window is not
        counted.
        """
        return sum(len(o.data) for o in self._objects.values())
