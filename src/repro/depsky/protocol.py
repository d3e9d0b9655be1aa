"""The DepSky cloud-of-clouds read/write protocols.

A :class:`DepSkyClient` spreads each data-unit version across ``n = 3f+1``
clouds following Figure 6 of the SCFS paper:

1. generate a fresh random key;
2. encrypt the payload with it;
3. erasure-code the ciphertext into ``n`` blocks (any ``k = f+1`` rebuild it);
4. secret-share the key into ``n`` shares with threshold ``f+1``;
5. store, in cloud *i*, block *i* together with share *i*, then replace that
   cloud's copy of the data unit's *head* (the new version's record).

Everything a write sends is constant-size: the head is the latest
:class:`~repro.depsky.dataunit.VersionRecord` only, and a block object is
written once, under a name carrying its version number and plaintext digest
(``v<version>-<digest>-b<i>``) — so no replica can present two things under one
name, and a LIST of the unit's prefix enumerates the stored versions
(:meth:`DepSkyClient.list_versions`, the garbage collector's only cloud read).

Reads gather the heads from a quorum, fetch blocks until ``k`` digests verify,
decode, reconstruct the key from the shares and decrypt.  Block fetches use
*preferred quorums*: the client orders its clouds once by the GET latency their
profiles promise (:func:`preferred_order`), so the ``k`` systematic blocks —
whose decode is a pure concatenation — live on the clouds expected to answer
first, the first ``n - f`` hold blocks and the rest take spill-over.  A read
asks first the ``k`` block holders whose copy has already propagated, fastest
first, and falls back to the others (parity blocks: matrix decode via a cached
inverse) only when those fail; :class:`DepSkyReadResult.path` records which
path served the read.  Which clouds serve a request is a latency choice only:
safety rests on quorum intersection and the ``f + 1`` certificate, whichever
clouds they are.  The SCFS-specific
extension :meth:`DepSkyClient.read_matching` retrieves the version whose
*plaintext digest* equals a hash obtained from the consistency anchor, instead
of the latest version.

Latency model
-------------
The clouds of a CoC backend are created with ``charge_latency=False`` because
DepSky accesses them *in parallel*.  Every multi-cloud operation is executed
through the quorum dispatch engine
(:class:`~repro.clouds.dispatch.QuorumCall`), which models the parallel
requests on a virtual timeline and resolves when the *m*-th **successful**
response lands; the client then advances the simulated clock by exactly that
wait.  The stage semantics are:

* stage 0 dispatches at the call's start — the ``k`` visible block holders
  expected first of a read, the ``n - f`` preferred clouds of a write;
* a fallback stage (parity clouds of a read, spill-over clouds of a write)
  dispatches at the *end of the round that triggered it* — the instant the
  previous round's last request resolved without satisfying the quorum — so
  degraded-mode operations are strictly slower than fault-free ones;
* failed, timed-out and Byzantine responses consume time but never occupy
  quorum slots;
* an optional :class:`~repro.clouds.dispatch.DispatchPolicy` adds per-request
  timeouts, bounded retries and *hedging*: dispatching the fallback stage
  ``hedge_delay`` seconds after the current stage started whenever the quorum
  has not been reached by then, which lets backup requests beat a DEGRADED
  straggler;
* an optional :class:`~repro.clouds.health.CloudHealthTracker` makes the
  client remember which providers are misbehaving: suspected clouds are
  demoted out of the primary stage (fallback clouds take their slots), probed
  in the background with exponential backoff, and restored on the first
  successful response — so repeated reads stop paying a downed provider's
  timeout on every call.

Each operation's :class:`~repro.clouds.dispatch.QuorumCallStats` (per-cloud
outcome, per-stage wait, winner set) is threaded into
:class:`DepSkyReadResult` and, through the storage backend, into the
benchmark reports.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import (
    CloudError,
    IntegrityError,
    ObjectNotFoundError,
    QuorumNotReachedError,
)
from repro.common.types import Permission, Principal
from repro.clouds.dispatch import (
    DispatchPolicy,
    InstantCoalescer,
    QuorumCall,
    QuorumCallStats,
    QuorumRequest,
)

#: Quorum ops with server-side effects: any of these changes what a
#: subsequent read quorum would return, so they expire the instant-coalescing
#: window (see :class:`~repro.clouds.dispatch.InstantCoalescer`).
_MUTATING_OPS = frozenset({"block_put", "meta_put", "block_delete", "acl"})
from repro.clouds.health import CloudHealthTracker, QuorumPlanner
from repro.clouds.object_store import ObjectStore, ObjectVersion
from repro.clouds.quorums import QuorumSystem, as_quorum, min_size as quorum_min_size
from repro.crypto.cipher import SymmetricCipher, generate_key
from repro.crypto.erasure import CodedBlock, ErasureCoder
from repro.crypto.hashing import content_digest
from repro.crypto.secret_sharing import SecretShare, combine_secret, split_secret
from repro.depsky.dataunit import VersionRecord
from repro.simenv.environment import Simulation

#: Block object header: share x-coordinate (1 byte) + share length (2 bytes).
_BLOCK_HEADER = struct.Struct(">BH")

#: The part of a block key after the unit's prefix: version, plaintext digest,
#: block index (see :meth:`DepSkyClient._block_key`).
_BLOCK_NAME = re.compile(r"v(\d{8,})-([0-9a-f]{64})-b(\d+)")

#: One cloud's answer to the head read: ``(cloud name, the head it serves)``.
Head = tuple[str, VersionRecord]


def block_blob_digest(share: "SecretShare", payload: bytes) -> str:
    """Digest of one stored block object — header ‖ share ‖ coded payload.

    The version record's ``block_digests`` cover the *whole* stored blob, not
    just the erasure-coded payload: the key share travels in the same object,
    and an unverified share lets a faulty cloud serve a perfectly valid block
    with a corrupted share, poisoning the reconstructed key (the decrypt then
    fails its authentication tag *after* the quorum already accepted the
    block).  Hashing the blob makes the share self-verifying, so a bad share
    fails the digest check and the fetch falls back to another cloud.
    """
    digest = hashlib.sha256()
    digest.update(_BLOCK_HEADER.pack(share.x, len(share.data)))
    digest.update(share.data)
    digest.update(payload)
    return digest.hexdigest()


#: Payload the preferred order compares the clouds' GETs at: one mid-sized
#: block.  The four §4.1 profiles rank identically at every size, GET and PUT.
_RANKING_PAYLOAD = 1 << 20


def _profile_get(cloud: ObjectStore, payload: int) -> float:
    """Expected GET latency the cloud's profile promises: no RNG draw, no
    degradation (the profile, not the cloud's current state)."""
    profile = getattr(cloud, "profile", None)
    return profile.object_get.expected(payload) if profile is not None else 0.0


def preferred_order(clouds: Iterable[ObjectStore]) -> list[ObjectStore]:
    """The clouds in DepSky's preferred order: block *i* lives on the *i*-th.

    Ranked by the GET latency the providers' profiles promise, ties broken
    by name, so the ``k`` systematic blocks sit on the clouds expected to
    answer first, the first ``n - f`` hold blocks and the rest take
    spill-over.  Writers and readers must agree on it, so it is a function of
    public configuration only — never of health, EWMAs or current degradation
    — and the order the clouds are handed in does not matter.
    """
    return sorted(clouds, key=lambda cloud: (_profile_get(cloud, _RANKING_PAYLOAD), cloud.name))


@dataclass
class DepSkyReadResult:
    """Result of a DepSky read: payload plus the version record it came from.

    ``path`` records which decode path served the read: ``"systematic"`` when
    the ``k`` systematic blocks were fetched from the preferred clouds (decode
    is a pure concatenation), ``"coded"`` when at least one parity block had
    to be fetched and a cached decode matrix was applied.  ``block_indices``
    lists the erasure-code rows actually used, in row order.  ``stats`` and
    ``meta_stats`` carry the dispatch-engine statistics of the block-fetch and
    head-read quorum calls (per-cloud outcome, per-stage wait, winner
    set), which the benchmark reports aggregate into preferred-quorum hit
    rates and hedging effectiveness; ``meta_stats`` is ``None`` for a read
    that was handed its version record and so made no head call.
    """

    data: bytes
    record: VersionRecord
    clouds_used: list[str] = field(default_factory=list)
    path: str = "systematic"
    block_indices: tuple[int, ...] = ()
    stats: QuorumCallStats | None = None
    meta_stats: QuorumCallStats | None = None


class DepSkyClient:
    """Client-side implementation of the DepSky protocols over ``n`` clouds.

    Parameters
    ----------
    sim:
        Shared simulation environment.
    clouds:
        The ``n`` object stores (one per provider); with the default ``f = 1``
        there must be at least four.  The client keeps them in
        :func:`preferred_order` (:attr:`clouds`), whatever order they come in.
    principal:
        The acting user (ACLs are enforced by each cloud individually).
    f:
        Number of tolerated faulty providers.
    encrypt:
        Encrypt payloads with a per-version random key (Figure 6).  Disabling
        encryption models DepSky-A (availability only).
    preferred_quorums:
        Store data blocks only on the first ``n - f`` clouds of the preferred
        order (the head still goes everywhere).  This is the cost
        optimisation the paper assumes in Figure 11(c): for f=1 two clouds
        store half the file each and a third stores one extra coded block,
        i.e. ~50 % storage overhead.
    charge_latency:
        Charge quorum latencies to the simulated clock (``False`` for clients
        that are not the system under test: the scenario checkers' reads, unit
        tests of pure protocol behaviour).  Fixed at construction; background
        work goes through :meth:`Simulation.background`, which the client obeys.
    policy:
        Dispatch policy applied to every quorum call of this client —
        per-request timeout, bounded retries and hedged fallback dispatch.
        Defaults to plain staged dispatch (no timeouts, no hedging).
    health:
        Optional :class:`~repro.clouds.health.CloudHealthTracker`.  When set,
        every quorum call is re-planned around its suspect list (suspected
        clouds are demoted out of the primary stage and probed in the
        background) and every resolved request feeds the tracker.
    quorum:
        Optional :class:`~repro.clouds.quorums.QuorumSystem` replacing the
        uniform threshold counts: write acknowledgements complete when the
        responder set satisfies the system's *quorum* predicate, and the
        ``f + 1`` matching-record checks of the head agreement generalize
        to the system's *certificate* predicate (a confirming set that cannot
        consist entirely of faulty providers).  ``None`` keeps the classic
        DepSky counts (``n - f`` / ``f + 1``) byte-identically.
    planner:
        Optional :class:`~repro.clouds.health.QuorumPlanner`.  When set, the
        head read and the block fetch pick their primary stage as the
        cheapest feasible quorum by expected cost × latency (the remaining
        clouds form the fallback stage); without it the stages keep the
        classic systematic-first ordering.
    """

    def __init__(
        self,
        sim: Simulation,
        clouds: list[ObjectStore],
        principal: Principal,
        f: int = 1,
        encrypt: bool = True,
        preferred_quorums: bool = True,
        charge_latency: bool = True,
        policy: DispatchPolicy | None = None,
        health: CloudHealthTracker | None = None,
        coalescer: InstantCoalescer | None = None,
        quorum: QuorumSystem | None = None,
        planner: QuorumPlanner | None = None,
    ):
        if f < 0:
            raise ValueError("f must be non-negative")
        if len(clouds) < 3 * f + 1:
            raise ValueError(f"DepSky with f={f} needs at least {3 * f + 1} clouds, got {len(clouds)}")
        if quorum is not None and set(quorum.universe) != {c.name for c in clouds}:
            raise ValueError(
                f"quorum system universe {sorted(quorum.universe)} does not "
                f"match the deployed clouds {sorted(c.name for c in clouds)}")
        self.sim = sim
        #: The clouds in :func:`preferred_order`: ``clouds[i]`` holds block ``i``.
        self.clouds = preferred_order(clouds)
        self.principal = principal
        self.f = f
        self.n = len(clouds)
        self.k = f + 1
        self.encrypt = encrypt
        self.preferred_quorums = preferred_quorums
        self.charge_latency = charge_latency
        self.policy = policy
        self.health = health
        self.quorum = quorum
        self.planner = planner
        #: Optional deployment-wide :class:`InstantCoalescer`: identical
        #: head read quorums issued in the same virtual instant (by this
        #: or any other client sharing the coalescer) are absorbed into the
        #: first call's result instead of re-dispatched.
        self.coalescer = coalescer
        self.coder = ErasureCoder(n=self.n, k=self.k)
        #: Highest version number this client wrote, per unit.  The heads are
        #: eventually consistent: re-read within the propagation window of our
        #: own put they still name the *previous* version, and a write numbered
        #: from them would reuse the number just spent.  The floor is all
        #: read-your-writes needs: nothing is read-modify-written.
        self._floor: dict[str, int] = {}
        #: Optional observer of every resolved quorum call, invoked as
        #: ``on_quorum(op, unit_id, stats)`` with ``op`` one of ``meta_read``,
        #: ``block_put``, ``meta_put``, ``block_get``, ``block_delete``,
        #: ``list``, ``acl``.  The scenario engine's trace recorder taps in here
        #: to record per-cloud outcomes alongside the file-system events.
        self.on_quorum = None

    # ------------------------------------------------------------------ keys

    @staticmethod
    def _meta_key(unit_id: str) -> str:
        return f"depsky/{unit_id}/metadata"

    @staticmethod
    def _block_key(unit_id: str, version: int, data_digest: str, index: int) -> str:
        """Name of block ``index`` of one version: written once, never rewritten."""
        return f"depsky/{unit_id}/v{version:08d}-{data_digest}-b{index}"

    @staticmethod
    def unit_prefix(unit_id: str) -> str:
        """Cloud key prefix holding every object of the data unit."""
        return f"depsky/{unit_id}/"

    # --------------------------------------------------------------- dispatch

    def _charge(self, *stats: QuorumCallStats) -> None:
        """Advance the clock by the simulated wait of quorum calls that ran in
        parallel: the slowest one's."""
        wait = max(call.charged for call in stats)
        if self.charge_latency and wait > 0 and not self.sim.in_background:
            self.sim.advance(wait)

    def _tap(self, op: str, unit_id: str, stats: QuorumCallStats) -> None:
        """Report one resolved quorum call to the attached observer (if any)."""
        if self.coalescer is not None and op in _MUTATING_OPS:
            # The sends of a quorum call execute against the simulated stores
            # during ``execute()``, so by the time the call is tapped the
            # mutation has happened: anything coalesced is stale.
            self.coalescer.invalidate()
        if self.on_quorum is not None:
            self.on_quorum(op, unit_id, stats)

    def _request_latency(self, cloud: ObjectStore, kind: str, payload: int) -> float:
        """Sample one request's latency against ``cloud`` (degradation-aware)."""
        sampler = getattr(cloud, "request_latency", None)
        if sampler is not None:
            return sampler(kind, payload)
        profile = getattr(cloud, "profile", None)
        if profile is None:
            return 0.0
        return getattr(profile, kind).sample(payload, self.sim.rng)

    def _call(self) -> QuorumCall:
        return QuorumCall(self.policy, health=self.health, now=self.sim.now())

    def _write_quorum(self):
        """Ack requirement of mutating calls: a quorum predicate, or the
        classic ``n - f`` count when no quorum system is configured."""
        return self.quorum.quorum() if self.quorum is not None else self.n - self.f

    def _certificate(self):
        """Confirmation requirement of the head agreement: a certificate
        predicate, or the classic ``f + 1`` count."""
        return self.quorum.certificate() if self.quorum is not None else self.k

    def _certifies(self, clouds: Iterable[str]) -> bool:
        """True when ``clouds`` cannot all be faulty: what they agree on is so.
        (A cloud counts once, however often it said it.)"""
        return as_quorum(self._certificate()).satisfied_by(tuple(dict.fromkeys(clouds)))

    def _get_request(self, cloud: ObjectStore, key: str, parse) -> QuorumRequest:
        """Build a GET request whose response must ``parse`` to count as a success.

        ``parse(blob)`` returns the request value or raises a
        :class:`~repro.common.errors.CloudError` subclass (Byzantine or
        corrupted responses fail their integrity check and therefore consume
        time without occupying a quorum slot).  The sampled latency always
        reflects the bytes actually transferred: a corrupted 1 MB block costs
        its full download time even though it fails verification, while a
        request the cloud rejected outright only costs the round trip.
        """
        transferred = [0]

        def send():
            transferred[0] = 0
            blob = cloud.get(key, self.principal)
            transferred[0] = len(blob)
            return parse(blob), len(blob)

        def latency(_value):
            return self._request_latency(cloud, "object_get", transferred[0])

        return QuorumRequest(cloud=cloud.name, send=send, latency=latency)

    def _planned_clouds(self, kind: str, payload: int,
                        required) -> tuple[list[ObjectStore], list[ObjectStore]]:
        """Primary/fallback split of the clouds for one read-side quorum call.

        Without a :attr:`planner` every cloud sits in the primary stage (the
        classic behaviour).  With one, the primary stage is the cheapest
        feasible quorum by expected cost × latency and the remaining clouds
        form a fallback stage, dispatched only when the primary round cannot
        satisfy the predicate (or a hedge fires).
        """
        if self.planner is None:
            return list(self.clouds), []
        plan = self.planner.plan([c.name for c in self.clouds], required, kind, payload)
        by_name = {c.name: c for c in self.clouds}
        return ([by_name[name] for name in plan.primary],
                [by_name[name] for name in plan.fallback])

    def _put_request(self, cloud: ObjectStore, key: str, blob: bytes) -> QuorumRequest:
        def send():
            cloud.put(key, blob, self.principal)
            return True

        def latency(_value):
            return self._request_latency(cloud, "object_put", len(blob))

        return QuorumRequest(cloud=cloud.name, send=send, latency=latency, mutating=True)

    # ------------------------------------------------------------------ heads

    def _read_heads(self, unit_id: str) -> tuple[tuple[Head, ...], QuorumCallStats]:
        """Read the clouds' copies of the unit's head through one quorum call.

        Returns every parseable head with the cloud that served it, plus the
        call's dispatch statistics.  The charged wait is the ``k``-th
        successful response; late copies still take part in the agreement
        (they model responses that trickle in while the client proceeds).
        What to *believe* of the heads is the caller's question —
        :meth:`_certified_head`, :meth:`_vouched_version`: never one copy alone.

        With a :attr:`coalescer` attached, a repeat of this read within the
        same virtual instant (same key and principal, no intervening
        mutation) is absorbed into the earlier call's result: it returns the
        identical heads with zero-cost statistics instead of re-dispatching
        the quorum.
        """
        key = self._meta_key(unit_id)
        required = self._certificate()
        coalesce_key = None
        if self.coalescer is not None:
            # Keyed per principal: cached heads must never satisfy a caller
            # the clouds' access checks would have denied.
            coalesce_key = (self.principal.name, key)
            absorbed = self.coalescer.lookup(coalesce_key)
            if absorbed is not None:
                return absorbed, self.coalescer.absorbed(quorum_min_size(required))

        def parse(blob: bytes) -> VersionRecord:
            try:
                return VersionRecord.from_bytes(blob)
            except ValueError as exc:
                raise IntegrityError(f"unparseable head copy of {unit_id!r}") from exc

        primary, fallback = self._planned_clouds("object_get", 0, required)
        call = self._call().stage([self._get_request(c, key, parse) for c in primary])
        if fallback:
            call.stage([self._get_request(c, key, parse) for c in fallback])
        stats = call.execute(required=required)
        self._tap("meta_read", unit_id, stats)
        heads = tuple((trace.cloud, trace.value[0]) for trace in stats.successes)
        if coalesce_key is not None:
            self.coalescer.store(coalesce_key, heads)
        return heads, stats

    def _certified_head(self, heads: Sequence[Head]) -> VersionRecord | None:
        """The highest record that a certificate of clouds serves identically.

        ``f`` faulty clouds cannot forge it, whatever they answer; a record
        only some correct clouds show yet (its puts still propagating) is not
        certified until a certificate of them does.
        """
        confirmations: dict[VersionRecord, list[str]] = {}
        for cloud, record in heads:
            confirmations.setdefault(record, []).append(cloud)
        return max((record for record, clouds in confirmations.items()
                    if self._certifies(clouds)),
                   key=lambda record: record.version, default=None)

    def _vouched_version(self, heads: Sequence[Head]) -> int:
        """The highest version number a certificate of clouds says was reached
        (the ``(f+1)``-th highest head version): at least one correct cloud
        vouches for it, so ``f`` clouds can neither roll the numbering back
        nor burn the version space with an inflated head.  0 without one.
        """
        clouds: list[str] = []
        for cloud, record in sorted(heads, key=lambda head: -head[1].version):
            clouds.append(cloud)
            if self._certifies(clouds):
                return record.version
        return 0

    # ------------------------------------------------------------------ write

    def write(self, unit_id: str, data: bytes, min_version: int | None = None) -> VersionRecord:
        """Write a new version of ``unit_id`` containing ``data``.

        Returns the version record (whose ``data_digest`` the SCFS metadata
        service will anchor in the coordination service).  The one-item case
        of :meth:`write_many`.

        ``min_version`` is a lower bound on the new version number, supplied
        by a caller holding a strongly consistent counter (SCFS passes the
        anchored ``data_version``).  It guards against the eventual
        consistency of the heads: two commits of the same unit by different
        clients within one propagation window would otherwise both read the
        stale head and mint the *same* version number.  The number is
        ``1 + max(min_version - 1, this client's floor, the vouched head
        version)`` (:meth:`_vouched_version`).
        """
        return self.write_many([(unit_id, data, min_version)])[0]

    def write_many(
            self, items: Sequence[tuple[str, bytes, int | None]]) -> list[VersionRecord]:
        """Write one new version of each of several (distinct) data units together.

        ``items`` are ``(unit_id, data, min_version)`` as for :meth:`write`:
        the writer has no anchor to number from, so it asks the clouds — one
        head-read quorum call per unit (``n`` GETs), all in parallel — and
        hands :meth:`write_numbered` ``1 + max(min_version - 1, the vouched
        head version)`` for each.  Three phases in lockstep, each costing the
        wait of its *slowest* member, once.
        """
        unit_ids = self._one_version_each(items)
        if not items:
            return []
        reads = [self._read_heads(unit_id) for unit_id in unit_ids]
        self._charge(*(meta_stats for _heads, meta_stats in reads))
        return self.write_numbered([
            (unit_id, data, 1 + max((min_version or 1) - 1, self._vouched_version(heads)))
            for (unit_id, data, min_version), (heads, _stats) in zip(items, reads, strict=True)])

    def write_numbered(self, items: Sequence[tuple[str, bytes, int]]) -> list[VersionRecord]:
        """Write ``version`` of each of several (distinct) data units together.

        ``items`` are ``(unit_id, data, version)``; the number comes from a
        caller that holds the unit's lock and has just validated the
        consistency anchor — the version after the one the anchored locator
        names — so no cloud is asked what the latest version is.  Only this
        client's own floor can raise it (a number it already spent on an
        upload that was never anchored).  The units move through the two put
        phases in lockstep: every block-put quorum call, then every head-put
        call — ``n - f`` block PUTs and ``n`` head PUTs per unit, each of a
        size that does not depend on the unit's past.  The calls of one phase
        run in parallel, so a phase costs the wait of its *slowest* member,
        once — never less than what independent writers would pay, since a
        fast unit waits for the slowest before entering the next phase.

        Why a Byzantine cloud gains nothing by the missing head read: no head
        takes part in the numbering, so ``f`` clouds — or all of them — can
        neither roll it back nor inflate it.  An orphan (the upload of an
        attempt that aborted before its commit point, by this client or
        another) can share a *number* with this write but never a *key*: the
        block name carries the plaintext digest, so different bytes land
        under different names, and a reader follows the anchored locator's
        ``(version, digest)`` and block digests, never the number alone.  (An
        orphan of the very same plaintext shares the name; its blocks are
        replaced, and no anchor ever pointed at them.)  The collector protects
        the anchored *digest*, not a number, so it keeps the anchored version
        and reclaims the orphan.

        A unit whose block-put misses its quorum raises
        :class:`QuorumNotReachedError` before any unit's head is touched: no
        version of the batch becomes readable.
        """
        unit_ids = self._one_version_each(items)
        if not items:
            return []
        required_acks = self._write_quorum()
        records: list[VersionRecord] = []
        block_stats: list[QuorumCallStats] = []
        for unit_id, data, version in items:
            record, block_puts = self._stage_version(
                unit_id, max(version, self._floor.get(unit_id, 0) + 1), data)
            records.append(record)
            put_stats = block_puts.execute(required=required_acks)
            self._tap("block_put", unit_id, put_stats)
            block_stats.append(put_stats)
        self._require_acks(unit_ids, block_stats, required_acks, "data blocks")
        self._charge(*block_stats)

        head_stats: list[QuorumCallStats] = []
        for unit_id, record in zip(unit_ids, records, strict=True):
            head = record.to_bytes()
            head_put_stats = self._call().stage(
                [self._put_request(c, self._meta_key(unit_id), head) for c in self.clouds]
            ).execute(required=required_acks)
            self._tap("meta_put", unit_id, head_put_stats)
            head_stats.append(head_put_stats)
        self._require_acks(unit_ids, head_stats, required_acks, "head")
        self._charge(*head_stats)
        for unit_id, record in zip(unit_ids, records, strict=True):
            self._floor[unit_id] = record.version
        return records

    @staticmethod
    def _one_version_each(items: Sequence[tuple[str, bytes, int | None]]) -> list[str]:
        """The unit ids of a batch, which must be distinct (checked before any request)."""
        unit_ids = [unit_id for unit_id, _data, _version in items]
        if len(set(unit_ids)) != len(unit_ids):
            raise ValueError("a batch takes one version per data unit")
        return unit_ids

    @staticmethod
    def _require_acks(unit_ids: list[str], stats: list[QuorumCallStats], required,
                      what: str) -> None:
        """Raise for the first unit whose ``what`` put missed its write quorum."""
        for unit_id, call in zip(unit_ids, stats, strict=True):
            if not call.reached:
                raise QuorumNotReachedError(
                    f"only {len(call.successes)} clouds acknowledged the {what} of {unit_id!r}",
                    responses=len(call.successes), required=quorum_min_size(required),
                )

    def _stage_version(self, unit_id: str, version: int,
                       data: bytes) -> tuple[VersionRecord, QuorumCall]:
        """Code ``data`` as ``version`` of ``unit_id``: its record and its block-put call."""
        # Streaming zero-copy pipeline (Figure 6 steps 1–4): the cipher
        # encrypts straight into the erasure coder's framed buffer (the
        # ciphertext lands exactly where the systematic blocks live), parity
        # is computed stripe by stripe into the same buffer, and every
        # finished stripe feeds the per-cloud incremental digests while it is
        # still cache-hot — the payload is never re-materialised for
        # ``block_blob_digest`` and never copied between the pipeline stages.
        shares: list[SecretShare] | None = None
        if self.encrypt:
            key = generate_key(self.sim.rng)
            cipher = SymmetricCipher(key)
            payload_len = len(data) + cipher.overhead()
        else:
            cipher = None
            payload_len = len(data)
        buffer, payload_view = self.coder.frame_into(payload_len)
        if cipher is not None:
            cipher.encrypt_into(data, payload_view, self.sim.rng)
            shares = split_secret(key, self.n, self.k, self.sim.rng)
        else:
            payload_view[:] = np.frombuffer(data, dtype=np.uint8)

        def share_for(index: int) -> SecretShare:
            return shares[index] if shares is not None else SecretShare(x=index + 1, data=b"")

        # One incremental digest per cloud, seeded with header ‖ share; each
        # encoded stripe is folded into all of them as it is produced (the
        # digest definition is unchanged — see :func:`block_blob_digest`).
        hashers = []
        for i in range(self.n):
            share = share_for(i)
            hasher = hashlib.sha256()
            hasher.update(_BLOCK_HEADER.pack(share.x, len(share.data)))
            hasher.update(share.data)
            hashers.append(hasher)
        for stripe in self.coder.encode_stripes(buffer):
            for i in range(self.n):
                hashers[i].update(stripe.blocks[i])

        data_digest = content_digest(data)
        record = VersionRecord(
            version=version,
            data_digest=data_digest,
            size=len(data),
            block_digests=tuple(hasher.hexdigest() for hasher in hashers),
            created_at=self.sim.now(),
            writer=self.principal.name,
        )

        # Each cloud's blob is header ‖ share ‖ its row of the encode buffer.
        # Materialisation (the single copy that builds the stored ``bytes``)
        # is deferred to the engine's dispatch-time ``prepare`` hook: requests
        # of the spill-over stage that never dispatch never pay it, and
        # retries reuse the already-built blob.
        blob_cache: list[bytes | None] = [None] * self.n

        def block_put(index: int) -> QuorumRequest:
            cloud = self.clouds[index]
            key = self._block_key(unit_id, version, data_digest, index)
            share = share_for(index)
            prefix = _BLOCK_HEADER.pack(share.x, len(share.data)) + share.data
            row = buffer[index]
            blob_len = len(prefix) + row.shape[0]

            def prepare():
                if blob_cache[index] is None:
                    blob_cache[index] = b"".join((prefix, row.data))

            def send():
                cloud.put(key, blob_cache[index], self.principal)
                return True

            def latency(_value):
                return self._request_latency(cloud, "object_put", blob_len)

            return QuorumRequest(cloud=cloud.name, send=send, latency=latency,
                                 prepare=prepare, mutating=True)

        # Preferred quorum: only the first n - f clouds receive data blocks,
        # which is where the ~1.5x storage factor of Figure 11(c) comes from.
        # The remaining clouds form a fallback stage, dispatched only when a
        # preferred cloud fails (or a hedge fires): the spill-over.
        data_targets = self._holders()
        call = self._call().stage([block_put(i) for i in range(data_targets)])
        if data_targets < self.n:
            call.stage([block_put(i) for i in range(data_targets, self.n)])
        return record, call

    # ------------------------------------------------------------------- read

    def _block_get_request(self, unit_id: str, record: VersionRecord, index: int) -> QuorumRequest:
        """Fetch-and-verify request for block ``index`` of one version."""
        cloud = self.clouds[index]
        key = self._block_key(unit_id, record.version, record.data_digest, index)

        def parse(blob: bytes) -> tuple[CodedBlock, SecretShare]:
            if len(blob) < _BLOCK_HEADER.size:
                raise IntegrityError(f"truncated block object {key!r} from {cloud.name}")
            # The digest covers the whole blob (header ‖ share ‖ payload), so
            # a corrupted *share* is rejected here too — not only a corrupted
            # coded payload (see :func:`block_blob_digest`).
            # A record without a digest for this block verifies nothing.
            expected = record.block_digests[index] if index < len(record.block_digests) else None
            if content_digest(blob) != expected:
                # Corrupted or Byzantine answer — this cloud's block does not
                # count towards the quorum (but its fetch still took time).
                raise IntegrityError(f"block {index} of {unit_id!r} failed its digest check at {cloud.name}")
            x, share_len = _BLOCK_HEADER.unpack_from(blob)
            share_data = blob[_BLOCK_HEADER.size:_BLOCK_HEADER.size + share_len]
            payload = blob[_BLOCK_HEADER.size + share_len:]
            return CodedBlock(index=index, payload=payload), SecretShare(x=x, data=share_data)

        return self._get_request(cloud, key, parse)

    def _holders(self) -> int:
        """How many clouds (the first of :attr:`clouds`) a write gives blocks to:
        ``n - f`` with preferred quorums (spill-over aside), else all ``n``."""
        return self.n - self.f if self.preferred_quorums else self.n

    def _visible_at(self, index: int, record: VersionRecord) -> float:
        """When block ``index`` of ``record`` is expected to be readable: the
        dispatch instant plus the propagation delay of that cloud's profile."""
        profile = getattr(self.clouds[index], "profile", None)
        return record.created_at + (profile.propagation_delay if profile is not None else 0.0)

    def readable_at(self, record: VersionRecord) -> float:
        """Simulated instant from which ``k`` block holders serve ``record``:
        the ``k``-th smallest of their visibility instants (from the providers'
        profiles, not the stores' state)."""
        return sorted(self._visible_at(i, record) for i in range(self._holders()))[self.k - 1]

    def _fetch_blocks(self, unit_id: str, record: VersionRecord) -> QuorumCallStats:
        """Fetch ``k`` verified blocks from the holders expected to deliver first.

        Stage 0 asks ``k`` block holders: those whose copy has already
        propagated (:meth:`_visible_at` at or before now) ahead of those whose
        copy has not, and within each group the fastest expected GET of one
        block first.  Past the propagation window that is the ``k`` fastest
        clouds, which hold the *systematic* blocks: the decode is a plain
        concatenation (the preferred-quorum read of the DepSky paper).  Inside
        it a visible parity holder beats an invisible systematic one.  The
        other holders, then the spill-over clouds, form the fallback stage,
        dispatched when stage 0 cannot deliver ``k`` verified blocks — or
        earlier, as hedged backup requests, when the policy sets a
        ``hedge_delay``.  The order uses profile expectations only: it draws
        nothing from the RNG (suspected clouds are demoted by the health
        tracker's plan, as for every call).

        With a :attr:`planner` attached, the primary stage is instead the
        cheapest feasible ``k``-set by expected cost × latency among the
        block-holding clouds (a degraded or expensive systematic cloud is
        planned around rather than hedged after the fact); the decode handles
        any ``k`` rows, so planning only shifts *which* blocks are fetched.
        """
        # With preferred quorums only the first n - f clouds hold data blocks
        # (spill-over aside): neither the staging nor the planner may put the
        # block-less tail in the primary stage.
        holders = self._holders()
        block = max(1, record.size // self.k)
        now = self.sim.now()
        ranked = sorted(range(holders), key=lambda i: (
            self._visible_at(i, record) > now, _profile_get(self.clouds[i], block), i))
        primary = ranked[:self.k]
        fallback = ranked[self.k:] + list(range(holders, self.n))
        if self.planner is not None:
            plan = self.planner.plan(
                [self.clouds[i].name for i in range(holders)], self.k, "object_get", block)
            index_of = {self.clouds[i].name: i for i in range(self.n)}
            primary = [index_of[name] for name in plan.primary]
            fallback = ([index_of[name] for name in plan.fallback]
                        + list(range(holders, self.n)))
        call = self._call().stage(
            [self._block_get_request(unit_id, record, i) for i in primary]
        )
        if fallback:
            call.stage([self._block_get_request(unit_id, record, i) for i in fallback])
        stats = call.execute(required=self.k)
        self._tap("block_get", unit_id, stats)
        return stats

    def _assemble(self, unit_id: str, record: VersionRecord,
                  meta_stats: QuorumCallStats | None = None) -> DepSkyReadResult:
        stats = self._fetch_blocks(unit_id, record)
        self._charge(stats)
        if not stats.reached:
            raise QuorumNotReachedError(
                f"could not gather {self.k} valid blocks of {unit_id!r} v{record.version}",
                responses=len(stats.successes), required=self.k,
            )
        # Winners land in completion order; decode and report in row order.
        winners = sorted(stats.winners, key=lambda trace: trace.value[0][0].index)
        blocks = [trace.value[0][0] for trace in winners]
        shares = [trace.value[0][1] for trace in winners]
        used = [trace.cloud for trace in winners]
        payload = self.coder.decode(blocks)
        if self.encrypt:
            key = combine_secret(shares, self.k)
            payload = SymmetricCipher(key).decrypt(payload)
        if content_digest(payload) != record.data_digest:
            raise IntegrityError(
                f"decoded payload of {unit_id!r} v{record.version} does not match its digest"
            )
        indices = tuple(b.index for b in blocks)
        path = "systematic" if all(i < self.k for i in indices) else "coded"
        return DepSkyReadResult(data=payload, record=record, clouds_used=used,
                                path=path, block_indices=indices,
                                stats=stats, meta_stats=meta_stats)

    def read_latest(self, unit_id: str) -> DepSkyReadResult:
        """Read the most recent version of ``unit_id`` (classic DepSky read).

        That is the certified head (:meth:`_certified_head`) — or a higher
        head only some clouds show yet, when its blocks actually assemble and
        verify (``k`` digest-checked blocks and a matching plaintext digest
        are proof enough; a faulty cloud's inflated head just fails to).  A
        version older than the certified one is never returned.
        """
        heads, meta_stats = self._read_heads(unit_id)
        self._charge(meta_stats)
        certified = self._certified_head(heads)
        floor = certified.version if certified is not None else 0
        candidates = sorted(dict.fromkeys(record for _cloud, record in heads
                                          if record.version > floor),
                            key=lambda record: -record.version)
        if certified is not None:
            candidates.append(certified)
        return self._assemble_first(unit_id, candidates, meta_stats,
                                    f"data unit {unit_id!r} has no visible version")

    def _assemble_first(self, unit_id: str, candidates, meta_stats: QuorumCallStats,
                        none: str) -> DepSkyReadResult:
        """The first of ``candidates`` whose blocks assemble and verify.

        An uncertified record proves itself that way or not at all: a forged
        one finds no ``k`` blocks matching its digests.  Raises the last
        failure, or :class:`ObjectNotFoundError` (``none``) without candidates.
        """
        failure: Exception = ObjectNotFoundError(none)
        for record in candidates:
            try:
                return self._assemble(unit_id, record, meta_stats)
            except (CloudError, QuorumNotReachedError) as exc:
                failure = exc
        raise failure

    def read_matching(self, unit_id: str, digest: str,
                      record: VersionRecord | None = None) -> DepSkyReadResult:
        """Read the version of ``unit_id`` whose plaintext digest is ``digest``.

        This is the operation added to DepSky for SCFS (§3.2): the digest comes
        from the consistency anchor.  When the anchor also hands over the
        version's ``record`` (see :meth:`VersionRecord.locator`) the read is the
        block fetch alone: one quorum call, ``k`` GETs.

        Without a record the version must be the one the heads name: a head
        carrying the anchored digest whose blocks assemble is self-verifying,
        so a single copy suffices (a lagging majority may not show it yet
        while one up-to-date cloud already does).  Raises
        :class:`ObjectNotFoundError` when no head names it (yet, or any more)
        — the caller retries, implementing the ``do ... while`` loop of
        Figure 3.
        """
        if record is None:
            heads, meta_stats = self._read_heads(unit_id)
            self._charge(meta_stats)
            return self._assemble_first(
                unit_id, dict.fromkeys(head for _cloud, head in heads
                                       if head.data_digest == digest), meta_stats,
                f"no cloud's head of {unit_id!r} names a version with digest {digest[:12]}…")
        if record.data_digest != digest or len(record.block_digests) != self.n:
            raise IntegrityError(
                f"the record handed over for {unit_id!r} does not describe a "
                f"{self.n}-block version with digest {digest[:12]}…")
        return self._assemble(unit_id, record)

    # ----------------------------------------------------------- maintenance

    def list_versions(self, unit_id: str) -> list[VersionRecord]:
        """The stored versions of ``unit_id``, oldest first, from one LIST per cloud.

        Block names carry ``(version, digest)``; a version is reported when a
        certificate of clouds lists blocks of it, so a faulty cloud can hide
        nothing (the others still list it) and invent nothing.  The records
        say what a listing can: ``size`` is the bytes the listed blocks occupy
        and ``created_at`` the median instant the clouds report; there are no
        block digests, so they locate a version for :meth:`delete_version` and
        retention policies, not for a read.
        """

        def list_request(cloud: ObjectStore) -> QuorumRequest:
            def send():
                return cloud.list_keys(self.unit_prefix(unit_id), self.principal)

            def latency(_value):
                return self._request_latency(cloud, "object_list", 0)

            return QuorumRequest(cloud=cloud.name, send=send, latency=latency)

        stats = self._call().stage(
            [list_request(c) for c in self.clouds]).execute(required=self._write_quorum())
        self._tap("list", unit_id, stats)
        self._charge(stats)
        listed: dict[tuple[int, str], list[tuple[str, ObjectVersion]]] = {}
        prefix_len = len(self.unit_prefix(unit_id))
        for trace in stats.successes:
            for entry in trace.value.entries:
                name = _BLOCK_NAME.fullmatch(entry.key, prefix_len)
                if name is not None:
                    listed.setdefault((int(name[1]), name[2]), []).append((trace.cloud, entry))
        versions = []
        for (version, data_digest), found in sorted(listed.items()):
            if self._certifies(cloud for cloud, _entry in found):
                instants = sorted(entry.created_at for _cloud, entry in found)
                versions.append(VersionRecord(
                    version=version, data_digest=data_digest,
                    size=sum(entry.size for _cloud, entry in found), block_digests=(),
                    created_at=instants[(len(instants) - 1) // 2], writer=""))
        return versions

    def delete_version(self, unit_id: str, version: int, data_digest: str) -> bool:
        """Delete the blocks of one version from every cloud (§2.5.3's collector).

        Block deletes only: nothing else names a version, so there is nothing
        to read first and nothing to rewrite.  Returns whether the deletes
        reached a write quorum.  An unreachable cloud keeps its (orphaned)
        block either way; :meth:`list_versions` shows the version again for
        as long as a certificate of clouds still holds blocks of it.  Deleting
        the version the head names leaves :meth:`read_latest` without one
        until the next write (SCFS reads through its anchor and never does).
        """

        def delete_request(index: int) -> QuorumRequest:
            cloud = self.clouds[index]

            def send():
                cloud.delete(self._block_key(unit_id, version, data_digest, index),
                             self.principal)
                return True

            def latency(_value):
                return self._request_latency(cloud, "object_delete", 0)

            return QuorumRequest(cloud=cloud.name, send=send, latency=latency, mutating=True)

        delete_stats = self._call().stage(
            [delete_request(i) for i in range(self.n)]
        ).execute(required=self._write_quorum())
        self._tap("block_delete", unit_id, delete_stats)
        self._charge(delete_stats)
        return delete_stats.reached

    def destroy_unit(self, unit_id: str) -> None:
        """Remove every object of the data unit from every cloud."""
        self._floor.pop(unit_id, None)
        if self.coalescer is not None:
            # Direct deletes bypass the quorum engine, so expire the
            # coalescing window by hand.
            self.coalescer.invalidate()
        prefix = self.unit_prefix(unit_id)
        for cloud in self.clouds:
            try:
                listing = cloud.list_keys(prefix, self.principal)
                for key in listing.keys:
                    cloud.delete(key, self.principal)
            except CloudError:
                continue

    def set_acl(self, unit_id: str, grantee: Principal, permission: Permission) -> None:
        """Grant ``permission`` on the whole data unit to ``grantee`` in every cloud.

        Uses one prefix (bucket-policy) grant per cloud so that future versions
        are covered too — the cloud-side half of SCFS's ``setfacl`` (§2.6).
        """

        def acl_request(cloud: ObjectStore) -> QuorumRequest:
            canonical = grantee.canonical_id(cloud.name)

            def send():
                set_policy = getattr(cloud, "set_bucket_policy", None)
                if set_policy is not None:
                    set_policy(self.unit_prefix(unit_id), canonical, permission, self.principal)
                else:  # pragma: no cover - only for exotic ObjectStore impls
                    for key in cloud.list_keys(self.unit_prefix(unit_id), self.principal).keys:
                        cloud.set_acl(key, canonical, permission, self.principal)
                return True

            def latency(_value):
                return self._request_latency(cloud, "metadata_op", 0)

            return QuorumRequest(cloud=cloud.name, send=send, latency=latency, mutating=True)

        stats = self._call().stage(
            [acl_request(c) for c in self.clouds]
        ).execute(required=self._write_quorum())
        self._tap("acl", unit_id, stats)
        self._charge(stats)

    def stored_bytes(self, unit_id: str) -> int:
        """Total bytes stored for ``unit_id`` across all clouds (cost analysis)."""
        total = 0
        for cloud in self.clouds:
            try:
                listing = cloud.list_keys(self.unit_prefix(unit_id), self.principal)
                total += listing.total_bytes
            except CloudError:
                continue
        return total
