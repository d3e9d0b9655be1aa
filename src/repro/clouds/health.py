"""Per-cloud health tracking: suspect lists, probe windows and straggler flags.

SCFS assumes that individual clouds crash, gray-fail and lag.  Without client
state about *which* provider is misbehaving, every quorum call re-probes every
cloud: a downed provider costs a failed round trip — or, worse, a full
per-request timeout — on every single operation, forever.  This module makes
provider health first-class client state, in the spirit of accrual failure
detectors and the suspect lists of generalized Byzantine quorum systems.

Suspicion model
---------------
A :class:`CloudHealthTracker` ingests the
:class:`~repro.clouds.dispatch.RequestTrace` of every request the dispatch
engine resolves (DepSky feeds it all of its quorum calls) and keeps one
:class:`CloudHealth` record per provider:

* **suspect** — ``suspicion_threshold`` *consecutive* failures or timeouts
  put a cloud on the suspect list (:attr:`CloudHealth.suspected`).  Only
  *provider faults* count: authoritative answers (not-found, access-denied —
  ``trace.benign``) prove liveness and clear the failure streak, so reading
  absent keys or polling a not-yet-visible version never suspects a healthy
  provider.  Suspected
  clouds are *demoted* out of the primary dispatch stage by
  :meth:`CloudHealthTracker.plan`: the engine promotes fallback clouds in
  their place, so quorum calls stop paying the dead provider's timeout tax.
  Demotion is conservative, by one rule for the engine and the
  :class:`QuorumPlanner` alike (:meth:`CloudHealthTracker.drop_suspects`):
  when too few unsuspected clouds remain to satisfy the quorum, the suspects
  stay rather than fail the call outright.  *Mutating* requests
  (PUT/DELETE/ACL) are never skipped: they are dispatched in the background
  instead, so replication never silently shrinks on the say-so of a
  suspicion.
* **probe** — a suspected cloud is not retried on the hot path.  Instead,
  once its *probe window* elapses, its request is dispatched as a background
  probe: it runs concurrently with stage 0 but never gates the call's charged
  latency.  Each failed probe widens the window exponentially
  (``probe_backoff * probe_backoff_factor^i``, capped at
  ``probe_backoff_max``), so a long outage converges to a trickle of probes.
* **recover** — any successful response (probe or regular request) clears the
  suspicion immediately: the cloud rejoins the primary stage on the next call.
* **degraded** — an exponentially weighted moving average of per-request
  latency is kept per cloud.  A cloud whose EWMA exceeds
  ``DEGRADED_FACTOR`` times the median of its peers is
  :meth:`~CloudHealthTracker.is_degraded` (a gray failure: it answers,
  slowly).  When a degraded cloud sits in a dispatched stage and the policy
  sets no explicit ``hedge_delay``, the tracker supplies an automatic one
  (``HEDGE_MULTIPLE`` times the healthy median EWMA) so backup requests are
  hedged proactively instead of waiting out the straggler.

Knobs
-----
The tracker reads the agent's
:class:`~repro.clouds.dispatch.DispatchPolicyConfig` — the object the
dispatch engine reads its timeout, retries and hedge delay from.
``suspicion_threshold`` trades detection speed against false suspicion under
jitter; ``probe_backoff``/``probe_backoff_factor``/``probe_backoff_max``
bound how stale a suspicion can get (and therefore the worst-case recovery
lag after an outage ends).  The straggler path runs on the module constants
``DEGRADED_FACTOR``, ``EWMA_ALPHA``, ``MIN_SAMPLES`` and ``HEDGE_MULTIPLE``.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.clouds.quorums import as_quorum, minimal_quorums
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.clouds.dispatch import DispatchPolicyConfig, QuorumRequest, RequestTrace
    from repro.clouds.eventual import EventuallyConsistentStore

logger = logging.getLogger(__name__)


#: A cloud whose latency EWMA exceeds this multiple of the peer median is
#: flagged degraded.
DEGRADED_FACTOR = 3.0
#: Weight of the newest sample in the latency EWMA.
EWMA_ALPHA = 0.3
#: Samples required before the EWMA participates in degradation checks.
MIN_SAMPLES = 4
#: Automatic hedge delay for stages containing a DEGRADED cloud, as a multiple
#: of the healthy peers' median EWMA (used only when the dispatch policy sets
#: no explicit ``hedge_delay``).
HEDGE_MULTIPLE = 2.0


@dataclass
class CloudHealth:
    """Mutable health record of one provider."""

    cloud: str
    #: On the suspect list: demoted from the primary stage until a background
    #: probe (or any other request) succeeds.
    suspected: bool = False
    consecutive_failures: int = 0
    #: Next simulated time a background probe may be dispatched.
    probe_at: float | None = None
    #: Current probe window width (grows exponentially while probes fail).
    probe_interval: float = 0.0
    #: Latency EWMA over successful responses (None before the first sample).
    ewma_latency: float | None = None
    samples: int = 0


@dataclass
class HealthStats:
    """The counters of one tracker (the only copy), for reports and benchmarks."""

    #: Clouds put on the suspect list / taken off it again.
    suspicions: int = 0
    recoveries: int = 0
    #: Background probes dispatched at suspected clouds.
    probes: int = 0
    #: Requests demoted out of their planned stage because of a suspicion.
    demoted_requests: int = 0
    #: Times the suspects stayed because dropping them would have left the
    #: quorum unsatisfiable (:meth:`CloudHealthTracker.drop_suspects`).
    conservative_reverts: int = 0


@dataclass
class PlannedStages:
    """Result of health-aware request planning for one quorum call."""

    stages: list[list["QuorumRequest"]]
    #: Requests of suspected clouds whose probe window is due: dispatched as
    #: background probes (concurrent with stage 0, never gating the call).
    probes: list["QuorumRequest"] = field(default_factory=list)
    #: Clouds demoted out of their planned stage this call.
    demoted: tuple[str, ...] = ()


class CloudHealthTracker:
    """Per-client tracker turning request traces into dispatch planning.

    ``policy`` is the client's
    :class:`~repro.clouds.dispatch.DispatchPolicyConfig`; the tracker reads
    its suspicion threshold and probe backoff.  A policy that tracks no health
    (``suspicion_threshold = 0``) is refused: it would suspect a cloud at its
    first failure.
    """

    def __init__(self, policy: "DispatchPolicyConfig"):
        policy.validate()
        if not policy.tracks_health:
            raise ConfigurationError(
                "a health tracker needs a positive suspicion threshold")
        self.policy = policy
        self._clouds: dict[str, CloudHealth] = {}
        self.stats = HealthStats()
        #: Optional observer of suspect-list transitions, invoked as
        #: ``on_transition(cloud, state, now)`` with state ``"suspected"`` or
        #: ``"recovered"`` (the scenario engine records these in its trace).
        self.on_transition = None

    # ------------------------------------------------------------- inspection

    def health(self, cloud: str) -> CloudHealth:
        """The (lazily created) health record of ``cloud``."""
        record = self._clouds.get(cloud)
        if record is None:
            record = self._clouds[cloud] = CloudHealth(cloud=cloud)
        return record

    def is_suspected(self, cloud: str) -> bool:
        """True while ``cloud`` sits on the suspect list."""
        record = self._clouds.get(cloud)
        return record is not None and record.suspected

    def probe_due(self, cloud: str, now: float) -> bool:
        """True when a suspected cloud's probe window has elapsed."""
        record = self._clouds.get(cloud)
        return (
            record is not None
            and record.suspected
            and record.probe_at is not None
            and now >= record.probe_at
        )

    def _peer_median(self, cloud: str) -> float | None:
        peers = [
            r.ewma_latency for r in self._clouds.values()
            if r.cloud != cloud
            and not r.suspected
            and r.ewma_latency is not None
            and r.samples >= MIN_SAMPLES
        ]
        return statistics.median(peers) if peers else None

    def is_degraded(self, cloud: str) -> bool:
        """True when ``cloud`` answers but lags far behind its peers."""
        record = self._clouds.get(cloud)
        if (
            record is None
            or record.suspected
            or record.ewma_latency is None
            or record.samples < MIN_SAMPLES
        ):
            return False
        median = self._peer_median(cloud)
        return median is not None and record.ewma_latency > DEGRADED_FACTOR * median

    def auto_hedge_delay(self, clouds: Sequence[str]) -> float | None:
        """Hedge delay for a stage containing a DEGRADED cloud, else ``None``.

        Derived from the healthy peers' median EWMA so the hedge fires shortly
        after a healthy response *should* have arrived.
        """
        degraded = [c for c in clouds if self.is_degraded(c)]
        if not degraded:
            return None
        median = self._peer_median(degraded[0])
        if median is None or median <= 0:
            return None
        return HEDGE_MULTIPLE * median

    # --------------------------------------------------------------- planning

    def drop_suspects(self, clouds: Sequence[str], required,
                      dry: bool = False) -> list[str] | None:
        """``clouds`` without the suspects, or ``None`` when the suspects must stay.

        The one suspect rule: suspicion must never make a call unsatisfiable
        that would otherwise be tried, so when the unsuspected clouds cannot
        satisfy ``required`` (a response count or any quorum predicate from
        :mod:`repro.clouds.quorums`) the caller keeps every cloud.  Such a
        revert is logged and counted in :attr:`HealthStats.conservative_reverts`,
        unless ``dry`` (a dry run's plan, or the :class:`QuorumPlanner`'s pass
        ahead of the call that counts it).
        """
        kept = [cloud for cloud in clouds if not self.is_suspected(cloud)]
        if len(kept) == len(clouds) or as_quorum(required).satisfied_by(kept):
            return kept
        if not dry:
            self.stats.conservative_reverts += 1
            logger.warning(
                "suspicion reverted: dropping suspected clouds %s would leave "
                "the quorum unsatisfiable; keeping them",
                sorted(set(clouds) - set(kept)))
        return None

    def plan(self, stages: Sequence[Sequence["QuorumRequest"]], required,
             now: float, dry: bool = False) -> PlannedStages:
        """Re-plan a call's stages around the current suspect list.

        ``required`` is a response count or any quorum predicate from
        :mod:`repro.clouds.quorums`.  Suspected clouds are removed from every
        stage; fallback requests are promoted forward to refill earlier stages
        (preserving the original stage sizes), so the primary round keeps
        enough healthy clouds to satisfy the quorum without waiting for a
        fallback dispatch.  Suspected clouds whose probe window is due come
        back as background probes.  When the unsuspected requests cannot
        satisfy the quorum predicate, the plan keeps the original stages
        (:meth:`drop_suspects`, which logs and counts the revert).  A ``dry``
        plan (a dry run's) makes the same plan and counts and logs nothing.
        """
        requests = [request for stage in stages for request in stage]
        kept = self.drop_suspects([request.cloud for request in requests], required, dry)
        if kept is None or len(kept) == len(requests):
            return PlannedStages(stages=[list(stage) for stage in stages])
        suspected = [request for request in requests if self.is_suspected(request.cloud)]
        remaining = [request for request in requests if not self.is_suspected(request.cloud)]

        # Mutating requests (PUT/DELETE/ACL) are never skipped: replication
        # must not silently shrink just because a provider is suspected — the
        # attempt runs in the background, storing the copy whenever the
        # provider actually permits, while the call's charged latency stays
        # free of the suspect.  Read requests come back only when the probe
        # window is due.
        probes = [request for request in suspected
                  if request.mutating or self.probe_due(request.cloud, now)]
        demoted = [request.cloud for request in suspected]

        planned: list[list[QuorumRequest]] = []
        queue = list(remaining)
        for stage in stages:
            if not queue:
                break
            take, queue = queue[:len(stage)], queue[len(stage):]
            planned.append(take)
        if queue:  # pragma: no cover - sizes always cover the queue
            planned.append(queue)
        if not dry:
            self.stats.probes += len(probes)
            self.stats.demoted_requests += len(demoted)
        return PlannedStages(stages=planned, probes=probes, demoted=tuple(demoted))

    # -------------------------------------------------------------- ingestion

    def record_trace(self, trace: "RequestTrace", base_time: float) -> None:
        """Ingest one resolved request of a quorum call.

        ``base_time`` is the absolute simulated time at which the call started
        (trace timestamps are call-relative).  A *benign* failure (not-found,
        access-denied) is an authoritative answer: it proves the provider is
        alive, so it counts as a contact success for health purposes even
        though it occupied no quorum slot — otherwise reading absent keys (or
        polling a not-yet-visible version under eventual consistency) would
        put perfectly healthy clouds on the suspect list.
        """
        latency = max(0.0, trace.resolved_at - trace.dispatched_at)
        self.observe(trace.cloud, succeeded=trace.succeeded or trace.benign,
                     latency=latency, now=base_time + trace.resolved_at)

    def observe(self, cloud: str, succeeded: bool, latency: float, now: float) -> None:
        """Ingest one request outcome (one resolved trace of :meth:`record_trace`)."""
        record = self.health(cloud)
        if succeeded:
            record.samples += 1
            if record.ewma_latency is None:
                record.ewma_latency = latency
            else:
                alpha = EWMA_ALPHA
                record.ewma_latency = alpha * latency + (1.0 - alpha) * record.ewma_latency
            record.consecutive_failures = 0
            if record.suspected:
                record.suspected = False
                record.probe_at = None
                record.probe_interval = 0.0
                self.stats.recoveries += 1
                if self.on_transition is not None:
                    self.on_transition(cloud, "recovered", now)
            return
        record.consecutive_failures += 1
        if record.suspected:
            # A probe (or a reverted-plan request) failed: widen the window.
            record.probe_interval = min(
                record.probe_interval * self.policy.probe_backoff_factor,
                self.policy.probe_backoff_max,
            )
            record.probe_at = now + record.probe_interval
        elif record.consecutive_failures >= self.policy.suspicion_threshold:
            record.suspected = True
            record.probe_interval = self.policy.probe_backoff
            record.probe_at = now + record.probe_interval
            self.stats.suspicions += 1
            if self.on_transition is not None:
                self.on_transition(cloud, "suspected", now)

    # ---------------------------------------------------------------- reports

    def suspected_clouds(self) -> tuple[str, ...]:
        """Names of the clouds currently on the suspect list."""
        return tuple(r.cloud for r in self._clouds.values() if r.suspected)


def expected_latency(store: "EventuallyConsistentStore", kind: str, payload: int,
                     tracker: CloudHealthTracker | None = None,
                     timeout: float | None = None) -> float:
    """Expected seconds of one ``kind`` request moving ``payload`` bytes at ``store``.

    The one per-cloud expectation every estimate uses: the provider profile's
    (no RNG draw), raised to the ``tracker``'s latency EWMA once it has
    ``MIN_SAMPLES`` (a gray failure the profile cannot know), floored at the
    attempt deadline while the tracker suspects the cloud (the wait a call
    that insists on it pays: ``timeout``, or the request's healthy bound if
    that is longer).  It uses only what a client could know: a fault raises
    it once requests have observed it, never before.  The tracker is only
    read.
    """
    expected = getattr(store.profile, kind).expected(payload)
    record = tracker._clouds.get(store.name) if tracker is not None else None
    if record is None:
        return expected
    if record.ewma_latency is not None and record.samples >= MIN_SAMPLES:
        expected = max(expected, record.ewma_latency)
    if record.suspected and timeout is not None:
        expected = max(expected, timeout, getattr(store.profile, kind).bound(payload))
    return expected


@dataclass(frozen=True)
class QuorumPlan:
    """One planned quorum: the primary stage and the fallback stage."""

    #: Clouds of the cheapest feasible quorum, in candidate order (stage 0).
    primary: tuple[str, ...]
    #: Remaining candidates, dispatched only as a fallback stage.
    fallback: tuple[str, ...]


class QuorumPlanner:
    """Ranks candidate quorums by expected cost × latency.

    The planner turns quorum *selection* into an optimization problem: given
    per-cloud estimators for expected request latency (typically the health
    tracker's EWMA blended with the provider profile) and request cost
    (derived from :class:`~repro.clouds.pricing.StoragePricing` via each
    provider's :class:`~repro.clouds.accounting.CostTracker`), it enumerates
    the *minimal* satisfying quorums of the candidate pool and picks the one
    minimizing ``cost × latency`` — dispatching a minimal quorum as stage 0
    and everything else as fallback.  Suspected clouds are dropped from the
    pool first, by the tracker's one rule (:meth:`CloudHealthTracker.drop_suspects`):
    when that leaves the predicate unsatisfiable the planner plans over the
    full pool (never trading liveness for economy).  The planner's pass of the
    rule is ``dry``: it counts and logs nothing, because the call built from
    its plan applies the rule again (:meth:`CloudHealthTracker.plan`), and
    only that pass counts a revert.
    """

    def __init__(self, latency_of: Callable[[str, str, int], float],
                 cost_of: Callable[[str, str, int], float],
                 tracker: "CloudHealthTracker | None" = None):
        self.latency_of = latency_of
        self.cost_of = cost_of
        self.tracker = tracker

    def plan(self, candidates: Sequence[str], required, kind: str,
             payload: int) -> QuorumPlan:
        """Split ``candidates`` into the cheapest feasible quorum and the rest.

        ``required`` is a response count or quorum predicate; ``kind`` and
        ``payload`` parameterize the per-cloud latency/cost estimators
        (``"object_get"`` with the expected transfer size, etc.).  A minimal
        quorum scores its cost sum × its slowest member's latency; the lowest
        score is the primary stage.
        """
        quorum = as_quorum(required)
        names = list(candidates)
        pool = names if self.tracker is None else self.tracker.drop_suspects(
            names, quorum, dry=True)
        if pool is None:
            pool = names
        latency = {cloud: self.latency_of(cloud, kind, payload) for cloud in pool}
        cost = {cloud: self.cost_of(cloud, kind, payload) for cloud in pool}

        def score(members: tuple[str, ...]) -> tuple[float, float, tuple[str, ...]]:
            slowest = max(latency[cloud] for cloud in members)
            return (sum(cost[cloud] for cloud in members) * slowest, slowest, members)

        best = min(map(score, minimal_quorums(pool, quorum)), default=None)
        if best is None:
            # Even the full pool cannot satisfy the predicate (the config
            # validator should have rejected this); dispatch everything so
            # the engine reports the failure with complete evidence.
            return QuorumPlan(primary=tuple(names), fallback=())
        chosen = set(best[2])
        return QuorumPlan(primary=tuple(cloud for cloud in names if cloud in chosen),
                          fallback=tuple(cloud for cloud in names if cloud not in chosen))
