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
DepSky accesses its clouds *in parallel*, so a request's wait belongs to the
quorum call waiting for it, not to the cloud: every per-cloud request is sent
as background work (:meth:`~repro.simenv.environment.Simulation.background`)
and the store charges nothing.  Every multi-cloud operation is executed
through the quorum dispatch engine
(:class:`~repro.clouds.dispatch.QuorumCall`), which models the parallel
requests on a virtual timeline and resolves when the *m*-th **successful**
response lands; the client then advances the simulated clock by exactly that
wait, unless the caller is itself background work.  The stage semantics are:

* stage 0 dispatches at the call's start — the ``k`` visible block holders
  expected first of a read, the ``n - f`` preferred clouds of a write;
* a fallback stage (parity clouds of a read, spill-over clouds of a write)
  dispatches at the *end of the round that triggered it* — the instant the
  previous round's last request resolved without satisfying the quorum — so
  degraded-mode operations are strictly slower than fault-free ones;
* failed, timed-out and Byzantine responses consume time but never occupy
  quorum slots;
* the client's :class:`~repro.clouds.dispatch.DispatchPolicyConfig` adds
  per-request timeouts, bounded retries and *hedging*: dispatching the
  fallback stage ``hedge_delay`` seconds after the current stage started
  whenever the quorum has not been reached by then, which lets backup
  requests beat a DEGRADED straggler;
* when that policy sets a ``suspicion_threshold``, the client's
  :class:`~repro.clouds.health.CloudHealthTracker` (built from the same
  object) remembers which providers are misbehaving: suspected clouds are
  demoted out of the primary stage (fallback clouds take their slots), probed
  in the background with exponential backoff, and restored on the first
  successful response — so repeated reads stop paying a downed provider's
  timeout on every call.

Each operation's :class:`~repro.clouds.dispatch.QuorumCallStats` (per-cloud
outcome, per-stage wait, winner set) is threaded into
:class:`DepSkyReadResult` and, through the storage backend, into the
benchmark reports.
The estimates :meth:`DepSkyClient.expected_write` and
:meth:`DepSkyClient.expected_read` dry-run the very calls the operations build.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.common.errors import (
    CloudError,
    IntegrityError,
    ObjectNotFoundError,
    QuorumNotReachedError,
)
from repro.common.types import Permission, Principal
from repro.clouds.dispatch import (
    DispatchPolicyConfig,
    InstantCoalescer,
    QuorumCall,
    QuorumCallStats,
    QuorumRequest,
)

#: Quorum ops with server-side effects: any of these changes what a
#: subsequent read quorum would return, so they expire the instant-coalescing
#: window (see :class:`~repro.clouds.dispatch.InstantCoalescer`).
_MUTATING_OPS = frozenset({"block_put", "meta_put", "block_delete", "acl"})
from repro.clouds.health import CloudHealthTracker, QuorumPlanner, expected_latency
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.object_store import ObjectVersion
from repro.clouds.quorums import (
    QuorumPredicate,
    QuorumSystem,
    ThresholdQuorumSystem,
    WeightedQuorumSystem,
)
from repro.crypto.cipher import KEY_SIZE, NONCE_SIZE, TAG_SIZE, SymmetricCipher, generate_key
from repro.crypto.erasure import CodedBlock, ErasureCoder
from repro.crypto.hashing import content_digest
from repro.crypto.secret_sharing import SecretShare, combine_secret, split_secret
from repro.depsky.dataunit import VersionRecord
from repro.simenv.environment import Simulation

#: Block object header: share x-coordinate (1 byte) + share length (2 bytes).
_BLOCK_HEADER = struct.Struct(">BH")

#: The part of a block key after the unit's prefix: version, plaintext digest,
#: block index (see :meth:`DepSkyClient.block_key`).
_BLOCK_NAME = re.compile(r"v(\d{8,})-([0-9a-f]{64})-b(\d+)")

#: One cloud's answer to the head read: ``(cloud name, the head it serves)``.
Head = tuple[str, VersionRecord]


def _unsent() -> None:
    """The ``send`` of a request that is only ever dry-run."""
    raise AssertionError("a request built for an estimate was sent")


def frame_block(share: SecretShare, payload: bytes | memoryview) -> bytes:
    """One stored block object: header ‖ key share ‖ coded payload."""
    return b"".join((_BLOCK_HEADER.pack(share.x, len(share.data)), share.data, payload))


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


def _profile_get(cloud: EventuallyConsistentStore, payload: int) -> float:
    """Expected GET latency the cloud's profile promises: no RNG draw, no
    degradation (the profile, not the cloud's current state)."""
    return cloud.profile.object_get.expected(payload)


def preferred_order(clouds: Iterable[EventuallyConsistentStore]) -> list[EventuallyConsistentStore]:
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
    lists the erasure-code rows actually used, in row order.  ``stats``
    carries the dispatch-engine statistics of the block-fetch quorum call
    (per-cloud outcome, per-stage wait, winner set); the head read's, when
    there is one, reach :attr:`DepSkyClient.on_quorum` as ``meta_read``.
    """

    data: bytes
    record: VersionRecord
    clouds_used: list[str] = field(default_factory=list)
    path: str = "systematic"
    block_indices: tuple[int, ...] = ()
    stats: QuorumCallStats | None = None


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
    policy:
        The :class:`~repro.clouds.dispatch.DispatchPolicyConfig` every quorum
        call of this client reads — per-request timeout, bounded retries and
        hedged fallback dispatch.  Defaults to plain staged dispatch (no
        timeouts, no hedging).  When it tracks health, the client builds its
        :attr:`health` tracker from the same object: every quorum call is
        re-planned around the suspect list (suspected clouds are demoted out
        of the primary stage and probed in the background) and every resolved
        request feeds the tracker.
    quorum:
        The :class:`~repro.clouds.quorums.QuorumSystem` over the clouds:
        write acknowledgements complete when the responder set satisfies its
        *quorum* predicate, and the head agreement's matching-record checks
        need its *certificate* predicate (a confirming set that cannot
        consist entirely of faulty providers).  ``None`` is the classic
        DepSky :class:`~repro.clouds.quorums.ThresholdQuorumSystem`
        (``n - f`` / ``f + 1``).  A
        :class:`~repro.clouds.quorums.WeightedQuorumSystem` gets a
        :class:`~repro.clouds.health.QuorumPlanner` (:attr:`planner`): the
        head read and the block fetch pick their primary stage as the
        cheapest feasible quorum by expected cost × latency (the remaining
        clouds form the fallback stage); a threshold system keeps the classic
        systematic-first ordering.
    """

    def __init__(
        self,
        sim: Simulation,
        clouds: list[EventuallyConsistentStore],
        principal: Principal,
        f: int = 1,
        encrypt: bool = True,
        policy: DispatchPolicyConfig = DispatchPolicyConfig(),
        coalescer: InstantCoalescer | None = None,
        quorum: QuorumSystem | None = None,
    ):
        if f < 0:
            raise ValueError("f must be non-negative")
        if len(clouds) < 3 * f + 1:
            raise ValueError(f"DepSky with f={f} needs at least {3 * f + 1} clouds, got {len(clouds)}")
        names = tuple(c.name for c in clouds)
        #: The quorum system every call's acknowledgements and certificates use.
        self.quorum: QuorumSystem = quorum or ThresholdQuorumSystem(names, f)
        if set(self.quorum.universe) != set(names):
            raise ValueError(
                f"quorum system universe {sorted(self.quorum.universe)} does not "
                f"match the deployed clouds {sorted(names)}")
        self.sim = sim
        #: The clouds in :func:`preferred_order`: ``clouds[i]`` holds block ``i``.
        self.clouds = preferred_order(clouds)
        self.principal = principal
        self.f = f
        self.n = len(clouds)
        self.k = f + 1
        self.encrypt = encrypt
        self.policy = policy
        self.health: CloudHealthTracker | None = (
            CloudHealthTracker(policy) if policy.tracks_health else None)
        self.planner: QuorumPlanner | None = None
        if isinstance(self.quorum, WeightedQuorumSystem):
            stores = {cloud.name: cloud for cloud in clouds}
            self.planner = QuorumPlanner(
                latency_of=lambda cloud, kind, payload: expected_latency(
                    stores[cloud], kind, payload, self.health, policy.timeout),
                cost_of=lambda cloud, kind, payload: stores[
                    cloud].costs.pricing.request_cost(kind, payload),
                tracker=self.health,
            )
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
    def head_key(unit_id: str) -> str:
        """Name of the unit's head: its latest :class:`VersionRecord`, rewritten per version."""
        return f"depsky/{unit_id}/metadata"

    @staticmethod
    def block_key(unit_id: str, version: int, data_digest: str, index: int) -> str:
        """Name of block ``index`` of one version: written once, never rewritten."""
        return f"depsky/{unit_id}/v{version:08d}-{data_digest}-b{index}"

    @staticmethod
    def unit_prefix(unit_id: str) -> str:
        """Cloud key prefix holding every object of the data unit."""
        return f"depsky/{unit_id}/"

    # --------------------------------------------------------------- dispatch

    def _charge(self, *stats: QuorumCallStats) -> None:
        """Advance the clock by the simulated wait of quorum calls that ran in
        parallel: the slowest one's (nothing for background work)."""
        wait = max(call.charged for call in stats)
        if wait > 0 and not self.sim.in_background:
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

    def _call(self) -> QuorumCall:
        return QuorumCall(self.policy, health=self.health, now=self.sim.now())

    def _certifies(self, clouds: Iterable[str]) -> bool:
        """True when ``clouds`` cannot all be faulty: what they agree on is so.
        (A cloud counts once, however often it said it.)"""
        return self.quorum.certifies(dict.fromkeys(clouds))

    def _request(self, cloud: EventuallyConsistentStore, kind: str, size: int, send: Callable[[], Any],
                 latency: Callable[[Any], float] | None = None,
                 prepare: Callable[[], None] | None = None,
                 mutating: bool = False) -> QuorumRequest:
        """One ``kind`` request to ``cloud`` moving ``size`` bytes: its latency is
        sampled when sent (unless ``latency`` is given),
        :func:`~repro.clouds.health.expected_latency` when dry-run.  Its
        healthy bound is the provider profile's, never the fault schedule's
        or the tracker's: a straggler must overrun it to be hedged.

        ``send`` runs as background work: the quorum call waits for its
        requests in parallel and :meth:`_charge` charges that one wait."""

        def send_in_background():
            with self.sim.background():
                return send()

        return QuorumRequest(
            cloud=cloud.name, send=send_in_background, prepare=prepare, mutating=mutating,
            latency=latency or (lambda _value: cloud.request_latency(kind, size)),
            expected=lambda: expected_latency(cloud, kind, size, self.health, self.policy.timeout),
            bound=getattr(cloud.profile, kind).bound(size))

    def _get_request(self, cloud: EventuallyConsistentStore, key: str, parse, size: int = 0) -> QuorumRequest:
        """Build a GET request whose response must ``parse`` to count as a success.

        ``parse(blob)`` returns the request value or raises a
        :class:`~repro.common.errors.CloudError` subclass (Byzantine or
        corrupted responses fail their integrity check and therefore consume
        time without occupying a quorum slot).  The sampled latency always
        reflects the bytes actually transferred: a corrupted 1 MB block costs
        its full download time even though it fails verification, while a
        request the cloud rejected outright only costs the round trip.
        ``size`` is the response a dry run expects.
        """
        transferred = [0]

        def send():
            transferred[0] = 0
            blob = cloud.get(key, self.principal)
            transferred[0] = len(blob)
            return parse(blob), len(blob)

        def latency(_value):
            return cloud.request_latency("object_get", transferred[0])

        return self._request(cloud, "object_get", size, send, latency=latency)

    def _planned_clouds(self, kind: str, payload: int,
                        required) -> tuple[list[EventuallyConsistentStore], list[EventuallyConsistentStore]]:
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

    def _put_request(self, cloud: EventuallyConsistentStore, key: str, blob: bytes) -> QuorumRequest:
        def send():
            cloud.put(key, blob, self.principal)
            return True

        return self._request(cloud, "object_put", len(blob), send, mutating=True)

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
        key = self.head_key(unit_id)
        required = self.quorum.certificate()
        coalesce_key = None
        if self.coalescer is not None:
            # Keyed per principal: cached heads must never satisfy a caller
            # the clouds' access checks would have denied.
            coalesce_key = (self.principal.name, key)
            absorbed = self.coalescer.lookup(coalesce_key)
            if absorbed is not None:
                return absorbed, self.coalescer.absorbed(required.min_size)

        def parse(blob: bytes) -> VersionRecord:
            try:
                return VersionRecord.from_bytes(blob)
            except ValueError as exc:
                raise IntegrityError(f"unparseable head copy of {unit_id!r}") from exc

        # A head is the same size whatever the version: the bound and the plan include it.
        size = len(self._shape(0, 0.0).to_bytes())
        primary, fallback = self._planned_clouds("object_get", size, required)
        call = self._call().stage([self._get_request(c, key, parse, size) for c in primary])
        if fallback:
            call.stage([self._get_request(c, key, parse, size) for c in fallback])
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
        service will anchor in the coordination service).  The writer has no
        anchor to number from, so it asks the clouds — one head-read quorum
        call (``n`` GETs) — and hands :meth:`write_numbered` the number below.

        ``min_version`` is a lower bound on the new version number, supplied
        by a caller holding a strongly consistent counter.  It guards against
        the eventual consistency of the heads: two commits of the same unit by
        different clients within one propagation window would otherwise both
        read the stale head and mint the *same* version number.  The number is
        ``1 + max(min_version - 1, this client's floor, the vouched head
        version)`` (:meth:`_vouched_version`).
        """
        heads, meta_stats = self._read_heads(unit_id)
        self._charge(meta_stats)
        version = 1 + max((min_version or 1) - 1, self._vouched_version(heads))
        return self.write_numbered([(unit_id, data, version)])[0]

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
        unit_ids = [unit_id for unit_id, _data, _version in items]
        required_acks = self.quorum.quorum()
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
            head_put_stats = self._head_put_call(unit_id, record).execute(required=required_acks)
            self._tap("meta_put", unit_id, head_put_stats)
            head_stats.append(head_put_stats)
        self._require_acks(unit_ids, head_stats, required_acks, "head")
        self._charge(*head_stats)
        for unit_id, record in zip(unit_ids, records, strict=True):
            self._floor[unit_id] = record.version
        return records

    def expected_write(self, num_bytes: int) -> float:
        """Seconds :meth:`write_numbered` of one ``num_bytes`` version is expected
        to charge: a dry run of its block-put and head-put calls, built by the
        same code.  Nothing is coded or sent."""
        blob_size = self._blob_size(num_bytes)
        required = self.quorum.quorum()
        blocks = self._block_put_call(lambda index: self._request(
            self.clouds[index], "object_put", blob_size, _unsent, mutating=True))
        heads = self._head_put_call("", self._shape(num_bytes, self.sim.now()))
        return blocks.dry_run(required) + heads.dry_run(required)

    def _blob_size(self, num_bytes: int) -> int:
        """Bytes of one stored block object of a ``num_bytes`` version:
        header ‖ key share ‖ coded block (of the ciphertext, when encrypting)."""
        if self.encrypt:
            return (_BLOCK_HEADER.size + KEY_SIZE
                    + self.coder.block_size(num_bytes + NONCE_SIZE + TAG_SIZE))
        return _BLOCK_HEADER.size + self.coder.block_size(num_bytes)

    def _shape(self, num_bytes: int, created_at: float) -> VersionRecord:
        """A stand-in record of a ``num_bytes`` version written at
        ``created_at``: a real record's sizes, no content."""
        digest = "0" * 64
        return VersionRecord(version=1, data_digest=digest, size=num_bytes,
                             block_digests=(digest,) * self.n, created_at=created_at)

    def _block_put_call(self, block_put: Callable[[int], QuorumRequest]) -> QuorumCall:
        """A write's block-put call; ``block_put(i)`` sends block ``i`` to ``clouds[i]``.

        Preferred quorum: only the first ``n - f`` clouds receive data blocks,
        which is where the ~1.5x storage factor of Figure 11(c) comes from.
        The remaining clouds form a fallback stage, dispatched only when a
        preferred cloud fails (or a hedge fires): the spill-over.
        """
        holders = self._holders()
        call = self._call().stage([block_put(i) for i in range(holders)])
        if holders < self.n:
            call.stage([block_put(i) for i in range(holders, self.n)])
        return call

    def _head_put_call(self, unit_id: str, record: VersionRecord) -> QuorumCall:
        """A write's head-put call: the encoded ``record`` to every cloud."""
        head = record.to_bytes()
        key = self.head_key(unit_id)
        return self._call().stage([self._put_request(c, key, head) for c in self.clouds])

    @staticmethod
    def _require_acks(unit_ids: list[str], stats: list[QuorumCallStats],
                      required: QuorumPredicate, what: str) -> None:
        """Raise for the first unit whose ``what`` put missed its write quorum."""
        for unit_id, call in zip(unit_ids, stats, strict=True):
            if not call.reached:
                raise QuorumNotReachedError(
                    f"only {len(call.successes)} clouds acknowledged the {what} of {unit_id!r}",
                    responses=len(call.successes), required=required.min_size,
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
        )

        # Each cloud's blob is header ‖ share ‖ its row of the encode buffer.
        # Materialisation (the single copy that builds the stored ``bytes``)
        # is deferred to the engine's dispatch-time ``prepare`` hook: requests
        # of the spill-over stage that never dispatch never pay it, and
        # retries reuse the already-built blob.
        blob_cache: list[bytes | None] = [None] * self.n
        blob_size = self._blob_size(len(data))

        def block_put(index: int) -> QuorumRequest:
            cloud = self.clouds[index]
            key = self.block_key(unit_id, version, data_digest, index)
            share = share_for(index)
            row = buffer[index]

            def prepare():
                if blob_cache[index] is None:
                    blob_cache[index] = frame_block(share, row.data)

            def send():
                cloud.put(key, blob_cache[index], self.principal)
                return True

            return self._request(cloud, "object_put", blob_size, send,
                                 prepare=prepare, mutating=True)

        return record, self._block_put_call(block_put)

    # ------------------------------------------------------------------- read

    def _block_get_request(self, unit_id: str, record: VersionRecord, index: int) -> QuorumRequest:
        """Fetch-and-verify request for block ``index`` of one version."""
        cloud = self.clouds[index]
        key = self.block_key(unit_id, record.version, record.data_digest, index)

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
            # A view, not a copy: the decode copies the payloads once.
            payload = memoryview(blob)[_BLOCK_HEADER.size + share_len:]
            return CodedBlock(index=index, payload=payload), SecretShare(x=x, data=share_data)

        return self._get_request(cloud, key, parse, self._blob_size(record.size))

    def _holders(self) -> int:
        """How many clouds (the first of :attr:`clouds`) a write gives blocks to:
        ``n - f``, spill-over aside (the preferred quorum of Figure 11(c))."""
        return self.n - self.f

    def _visible_at(self, index: int, record: VersionRecord) -> float:
        """When block ``index`` of ``record`` is expected to be readable: the
        dispatch instant plus the propagation delay of that cloud's profile."""
        return record.created_at + self.clouds[index].profile.propagation_delay

    def readable_at(self, record: VersionRecord) -> float:
        """Simulated instant from which ``k`` block holders serve ``record``:
        the ``k``-th smallest of their visibility instants (from the providers'
        profiles, not the stores' state)."""
        return sorted(self._visible_at(i, record) for i in range(self._holders()))[self.k - 1]

    def _fetch_blocks(self, unit_id: str, record: VersionRecord) -> QuorumCall:
        """The call fetching ``k`` verified blocks from the holders expected to deliver first.

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
        # Only the first n - f clouds hold data blocks (spill-over aside):
        # neither the staging nor the planner may put the block-less tail in
        # the primary stage.
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
        return call

    def expected_read(self, num_bytes: int) -> float:
        """Seconds a locator read of a propagated ``num_bytes`` version is
        expected to charge: a dry run of the block fetch :meth:`_assemble` sends."""
        return self._fetch_blocks("", self._shape(num_bytes, -math.inf)).dry_run(self.k)

    def _assemble(self, unit_id: str, record: VersionRecord) -> DepSkyReadResult:
        stats = self._fetch_blocks(unit_id, record).execute(required=self.k)
        self._tap("block_get", unit_id, stats)
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
        decoded = self.coder.decode(blocks)
        if self.encrypt:
            key = combine_secret(shares, self.k)
            payload = SymmetricCipher(key).decrypt(decoded)
        else:
            payload = bytes(decoded)
        if content_digest(payload) != record.data_digest:
            raise IntegrityError(
                f"decoded payload of {unit_id!r} v{record.version} does not match its digest"
            )
        indices = tuple(b.index for b in blocks)
        path = "systematic" if all(i < self.k for i in indices) else "coded"
        return DepSkyReadResult(data=payload, record=record, clouds_used=used,
                                path=path, block_indices=indices, stats=stats)

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
        return self._assemble_first(unit_id, candidates,
                                    f"data unit {unit_id!r} has no visible version")

    def _assemble_first(self, unit_id: str, candidates, none: str) -> DepSkyReadResult:
        """The first of ``candidates`` whose blocks assemble and verify.

        An uncertified record proves itself that way or not at all: a forged
        one finds no ``k`` blocks matching its digests.  Raises the last
        failure, or :class:`ObjectNotFoundError` (``none``) without candidates.
        """
        failure: Exception = ObjectNotFoundError(none)
        for record in candidates:
            try:
                return self._assemble(unit_id, record)
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
                                       if head.data_digest == digest),
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

        def list_request(cloud: EventuallyConsistentStore) -> QuorumRequest:
            def send():
                return cloud.list_keys(self.unit_prefix(unit_id), self.principal)

            return self._request(cloud, "object_list", 0, send)

        stats = self._call().stage(
            [list_request(c) for c in self.clouds]).execute(required=self.quorum.quorum())
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
                    created_at=instants[(len(instants) - 1) // 2]))
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
                cloud.delete(self.block_key(unit_id, version, data_digest, index),
                             self.principal)
                return True

            return self._request(cloud, "object_delete", 0, send, mutating=True)

        delete_stats = self._call().stage(
            [delete_request(i) for i in range(self.n)]
        ).execute(required=self.quorum.quorum())
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
        with self.sim.background():  # no quorum waits for these: nothing is charged
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

        def acl_request(cloud: EventuallyConsistentStore) -> QuorumRequest:
            canonical = grantee.canonical_id(cloud.name)

            def send():
                cloud.set_bucket_policy(self.unit_prefix(unit_id), canonical, permission,
                                        self.principal)
                return True

            return self._request(cloud, "metadata_op", 0, send, mutating=True)

        stats = self._call().stage(
            [acl_request(c) for c in self.clouds]
        ).execute(required=self.quorum.quorum())
        self._tap("acl", unit_id, stats)
        self._charge(stats)
