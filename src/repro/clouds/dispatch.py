"""Quorum dispatch engine: parallel cloud requests on the simulated timeline.

Every multi-cloud operation of the DepSky protocols — metadata reads, block
puts with preferred-quorum spill-over, two-phase block fetches, deletes, ACL
updates — is a *quorum call*: dispatch one request per cloud in parallel and
return when the *m*-th **successful** response lands.  This module models that
call shape once, instead of each call site hand-rolling a latency list:

* each request's latency is sampled at dispatch (the moment its stage starts
  on the virtual timeline), so a stage dispatched later starts later;
* failures consume time but never occupy quorum slots: the call completes at
  the *m*-th success, not the *m*-th response;
* requests honour the :class:`DispatchPolicyConfig`'s per-request
  ``timeout`` — never shorter than the request's healthy bound — and bounded
  ``retries`` (each retry re-invokes the request at the time the previous
  attempt resolved);
* *staged fallback*: a call may declare fallback stages (e.g. the parity
  clouds of a preferred-quorum read).  A stage is dispatched only when the
  rounds before it cannot satisfy the quorum, at the time the triggering
  round *ended* (its last request resolved) — fallback work is never free;
* *hedging*: with ``hedge_delay`` set, the next stage is dispatched early —
  ``hedge_delay`` after the current stage started, or later, at the *stage
  bound* (when the stage's requests, each answering at its healthy bound,
  would satisfy the quorum) — whenever the quorum has not been reached by
  then.  Backup requests beat a degraded straggler without waiting for it to
  fail or time out, and a healthy stage of big requests is never hedged;
* *health-aware planning*: with a :class:`~repro.clouds.health.CloudHealthTracker`
  attached, suspected clouds are demoted out of their stage (fallback requests
  are promoted in their place) and come back only as *background probes* that
  never gate the call, DEGRADED stragglers trigger proactive hedging even
  without an explicit ``hedge_delay``, and every resolved request is fed back
  into the tracker.

The engine runs entirely on the virtual timeline: request side effects
(``send``) execute immediately against the simulated stores, while the
*charged* time is derived from the sampled latencies.  Callers advance the
simulated clock by :attr:`QuorumCallStats.charged` once the call resolves.

Every latency *estimate* is a :meth:`QuorumCall.dry_run` of the call the real
operation builds: this timeline, with expected latencies and nothing sent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import AccessDeniedError, CloudError, ConfigurationError, ObjectNotFoundError
from repro.clouds.quorums import as_quorum

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.clouds.health import CloudHealthTracker

#: CloudError subclasses that are *authoritative answers*, not provider faults:
#: the provider was reachable and responded (the key does not exist, the caller
#: lacks permission).  They fail the quorum slot but prove liveness, so health
#: tracking must not count them towards suspicion.
BENIGN_ERRORS = (ObjectNotFoundError, AccessDeniedError)


class RequestStatus(enum.Enum):
    """Final state of one dispatched request."""

    #: Successful response, part of the winning quorum.
    OK = "ok"
    #: Successful response that landed after the quorum was already complete.
    LATE = "late"
    #: Every attempt raised a :class:`~repro.common.errors.CloudError`.
    FAILED = "failed"
    #: Every attempt exceeded the per-request timeout and was abandoned.
    TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class QuorumRequest:
    """One per-cloud request of a quorum call.

    ``send`` performs the request against the simulated store and returns its
    value, raising :class:`~repro.common.errors.CloudError` (or a subclass,
    e.g. an integrity failure) when the response must not count towards the
    quorum.  ``latency`` samples the wall time of one attempt given the value
    ``send`` returned (``None`` for a failed attempt, whose latency typically
    has no payload term).

    ``prepare``, when set, is invoked exactly once per request, at the moment
    the engine dispatches it — before the first ``send`` attempt.  It lets a
    caller defer expensive payload materialisation (e.g. assembling a block
    blob from the streaming encoder's buffers) to dispatch time: requests of
    a fallback stage that is never dispatched never pay the cost, and unlike
    work hidden inside ``send`` it is not repeated on retries.

    ``expected`` returns the deterministic expected latency of one attempt;
    only :meth:`QuorumCall.dry_run` calls it.

    ``bound``, when set, is the request's *healthy bound*: the longest a
    healthy answer can take (the profile's expectation at the top of its
    jitter range, no fault degradation).  No deadline of the engine — the
    per-attempt timeout or a hedge — fires before it.
    """

    cloud: str
    send: Callable[[], Any]
    latency: Callable[[Any | None], float]
    prepare: Callable[[], None] | None = None
    expected: Callable[[], float] | None = None
    #: True for requests with server-side effects (PUT/DELETE/ACL).  Health
    #: planning never *skips* a mutating request of a suspected cloud — it is
    #: dispatched in the background instead, so a version written during a
    #: suspicion still reaches the provider whenever the provider permits
    #: (replication must not silently shrink on the say-so of a suspicion).
    mutating: bool = False
    bound: float | None = None

    def deadline(self, timeout: float | None) -> float | None:
        """When one attempt is abandoned under ``timeout``: never before its bound."""
        if timeout is None or self.bound is None:
            return timeout
        return max(timeout, self.bound)


@dataclass(frozen=True)
class DispatchPolicyConfig:
    """The one dispatch policy: per-request knobs of the engine and the suspicion model.

    :class:`QuorumCall` reads ``timeout``, ``retries`` and ``hedge_delay``;
    :class:`~repro.clouds.health.CloudHealthTracker` reads
    ``suspicion_threshold`` and the probe-backoff knobs; the DepSky client
    passes the same object to both.  ``suspicion_threshold = 0`` (the
    default) builds no tracker; the default policy is plain staged dispatch
    (no timeouts, no retries, no hedging).
    """

    #: Abandon any single attempt whose sampled latency exceeds this many
    #: seconds, or the request's healthy bound if that is longer (it resolves
    #: as a timeout exactly at that deadline after dispatch).  ``None`` waits
    #: indefinitely.
    timeout: float | None = None
    #: Extra attempts after a failed or timed-out one; each retry re-invokes
    #: ``send`` and re-samples the latency at the previous attempt's
    #: resolution time.
    retries: int = 0
    #: Dispatch the next fallback stage at least this many seconds after the
    #: current stage started — and not before the stage bound, when its
    #: requests answering healthily would have reached the quorum — whenever
    #: the quorum has not been reached by then (straggler mitigation).
    #: ``None``: a fallback stage goes out only when the rounds before it
    #: cannot reach the quorum.
    hedge_delay: float | None = None
    #: Consecutive failures/timeouts that put a cloud on the suspect list
    #: (0 disables health tracking altogether).
    suspicion_threshold: int = 0
    #: First probe window after a suspicion, in simulated seconds.
    probe_backoff: float = 10.0
    #: Multiplier applied to the probe window after each failed probe.
    probe_backoff_factor: float = 2.0
    #: Upper bound of the probe window (keeps recovery lag bounded).
    probe_backoff_max: float = 300.0

    @property
    def tracks_health(self) -> bool:
        """True when this policy enables suspect-list tracking."""
        return self.suspicion_threshold > 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical dispatch knobs (NaN and infinities too)."""
        if self.timeout is not None and not _positive(self.timeout):
            raise ConfigurationError("the per-request timeout must be finite and positive")
        if self.retries < 0:
            raise ConfigurationError("the retry count must be non-negative")
        if self.hedge_delay is not None and not _positive(self.hedge_delay):
            raise ConfigurationError("the hedge delay must be finite and positive")
        if self.suspicion_threshold < 0:
            raise ConfigurationError("the suspicion threshold must be non-negative")
        if not self.tracks_health:
            return
        if not _positive(self.probe_backoff):
            raise ConfigurationError("the probe backoff must be finite and positive")
        if not (math.isfinite(self.probe_backoff_factor) and self.probe_backoff_factor >= 1.0):
            raise ConfigurationError("the probe backoff factor must be finite and >= 1")
        if not (math.isfinite(self.probe_backoff_max)
                and self.probe_backoff_max >= self.probe_backoff):
            raise ConfigurationError(
                "the probe backoff cap must be finite and >= the initial backoff")


def _positive(value: float) -> bool:
    """True for a finite value above zero: NaN and infinities are not."""
    return math.isfinite(value) and value > 0


@dataclass
class RequestTrace:
    """Outcome of one request: when it was dispatched, when and how it resolved."""

    cloud: str
    stage: int
    dispatched_at: float
    resolved_at: float
    status: RequestStatus
    attempts: int = 1
    hedged: bool = False
    #: Dispatched as a background probe of a suspected cloud: runs concurrently
    #: with stage 0 but never gates the call's charged latency.
    probe: bool = False
    #: FAILED with an authoritative answer (not-found / access-denied): the
    #: provider is alive, so health tracking treats this as a contact success.
    benign: bool = False
    value: Any = field(default=None, repr=False)

    @property
    def succeeded(self) -> bool:
        """True for any successful response, winning or late."""
        return self.status in (RequestStatus.OK, RequestStatus.LATE)


@dataclass
class QuorumCallStats:
    """Everything a caller (or a benchmark report) wants to know about one call."""

    required: int
    #: Time from call start to the ``required``-th success; ``None`` when the
    #: quorum was never reached.
    elapsed: float | None
    #: Time at which the call gave up: every dispatched request resolved.
    gave_up_at: float
    traces: list[RequestTrace]
    #: Dispatch time of each stage that actually ran (stage 0 is always 0.0).
    stage_started_at: tuple[float, ...]
    #: The winning quorum, in completion order.
    winners: tuple[RequestTrace, ...]
    #: Number of requests dispatched as hedges (early fallback stages).
    hedged: int = 0
    #: Number of background probes dispatched at suspected clouds.
    probes: int = 0
    #: Clouds demoted out of their planned stage by the health tracker.
    demoted: tuple[str, ...] = ()

    @property
    def charged(self) -> float:
        """Simulated seconds the caller should charge for this call."""
        return self.elapsed if self.elapsed is not None else self.gave_up_at

    @property
    def reached(self) -> bool:
        """True when the quorum was satisfied."""
        return self.elapsed is not None

    @property
    def successes(self) -> list[RequestTrace]:
        """Every successful response (winners and late arrivals)."""
        return [t for t in self.traces if t.succeeded]

    @property
    def winner_clouds(self) -> tuple[str, ...]:
        """Names of the clouds forming the winning quorum, completion order."""
        return tuple(t.cloud for t in self.winners)

    @property
    def fallback_dispatched(self) -> bool:
        """True when any stage beyond the first was dispatched."""
        return len(self.stage_started_at) > 1


class QuorumCall:
    """Builder/executor for one staged parallel quorum call.

    ``policy`` supplies the timeout, retries and hedge delay of every request
    (the default is plain staged dispatch).  ``health`` attaches a
    :class:`~repro.clouds.health.CloudHealthTracker` built from that same
    policy object: the call is re-planned around its suspect list before
    dispatch and every resolved request is fed back into it.  ``now`` is the
    absolute simulated time at which the call starts (the engine's internal
    timeline is call-relative) — it anchors probe windows and trace ingestion.
    """

    def __init__(self, policy: DispatchPolicyConfig = DispatchPolicyConfig(),
                 health: "CloudHealthTracker | None" = None, now: float = 0.0):
        if health is not None and health.policy is not policy:
            raise ConfigurationError(
                "the health tracker must read the call's own dispatch policy")
        self.policy = policy
        self.health = health
        self.now = now
        self._stages: list[list[QuorumRequest]] = []

    def stage(self, requests: Sequence[QuorumRequest]) -> "QuorumCall":
        """Append one dispatch round (stage 0 is primary, later ones fallback)."""
        self._stages.append(list(requests))
        return self

    # ------------------------------------------------------------------ core

    def _resolve(self, request: QuorumRequest, stage: int, start: float,
                 hedged: bool, probe: bool = False, dry: bool = False) -> RequestTrace:
        """Run one request (with retries) and place its resolution on the timeline
        (``dry``: send nothing, every attempt succeeds after ``request.expected()``)."""
        policy = self.policy
        deadline = request.deadline(policy.timeout)
        now = start
        attempts = 0
        status = RequestStatus.FAILED
        value: Any = None
        benign = False
        if request.prepare is not None and not dry:
            request.prepare()
        while attempts <= policy.retries:
            attempts += 1
            if dry:
                result, ok, benign = None, True, False
                latency = request.expected()
            else:
                try:
                    result, ok, benign = request.send(), True, False
                except CloudError as exc:
                    result, ok, benign = None, False, isinstance(exc, BENIGN_ERRORS)
                latency = request.latency(result)
            latency = max(0.0, latency)
            if deadline is not None and latency > deadline:
                # The response would arrive, but the client abandons the
                # attempt at the deadline (the side effect may still have
                # happened server-side, as with a real slow PUT).
                now += deadline
                status = RequestStatus.TIMED_OUT
                ok = False
                benign = False
            else:
                now += latency
                status = RequestStatus.OK if ok else RequestStatus.FAILED
            if ok:
                value = result
                break
        return RequestTrace(cloud=request.cloud, stage=stage, dispatched_at=start,
                            resolved_at=now, status=status, attempts=attempts,
                            hedged=hedged, probe=probe, benign=benign, value=value)

    @staticmethod
    def _ordered_successes(traces: list[RequestTrace]) -> list[RequestTrace]:
        return sorted((t for t in traces if t.status is RequestStatus.OK),
                      key=lambda t: (t.resolved_at, t.dispatched_at))

    @classmethod
    def _satisfying_prefix(cls, traces: list[RequestTrace],
                           quorum) -> list[RequestTrace] | None:
        """Shortest success prefix (in resolution order) satisfying ``quorum``.

        The predicate is monotone, so the first prefix that satisfies it marks
        the instant the call completes.  For a :class:`~repro.clouds.quorums.
        CountQuorum` this is exactly the legacy m-th-success semantics.
        """
        ordered = cls._ordered_successes(traces)
        responders: list[str] = []
        for count, trace in enumerate(ordered, start=1):
            responders.append(trace.cloud)
            if quorum.satisfied_by(responders):
                return ordered[:count]
        return None

    @classmethod
    def _quorum_time(cls, traces: list[RequestTrace], quorum) -> float | None:
        prefix = cls._satisfying_prefix(traces, quorum)
        return prefix[-1].resolved_at if prefix is not None else None

    @classmethod
    def _stage_bound(cls, requests: list[QuorumRequest], quorum) -> float:
        """When ``requests``, each answering at its bound, satisfy ``quorum``
        (stage-relative; 0 when their bounded requests never would)."""
        answers = [RequestTrace(cloud=r.cloud, stage=0, dispatched_at=0.0, resolved_at=r.bound,
                                status=RequestStatus.OK)
                   for r in requests if r.bound is not None]
        return cls._quorum_time(answers, quorum) or 0.0

    def execute(self, required) -> QuorumCallStats:
        """Dispatch the stages and return the call's statistics.

        ``required`` is either the classic response count (a bare ``int``) or
        any quorum predicate from :mod:`repro.clouds.quorums` — the call then
        completes when the set of successful responders *satisfies* the
        predicate, not at a fixed m-th success.

        Never raises on quorum failure — callers inspect
        :attr:`QuorumCallStats.reached` and raise their protocol-level error
        (typically :class:`~repro.common.errors.QuorumNotReachedError`).
        """
        return self._run(required, dry=False)

    def dry_run(self, required) -> float:
        """The wait :meth:`execute` is expected to charge, sending nothing.

        The same timeline as :meth:`execute` — policy timeouts and retries,
        hedges (explicit or the tracker's automatic delay), fallback stages at
        the end of the round, suspected clouds demoted by the same re-plan —
        with every attempt succeeding after its request's ``expected``
        latency.  Calls no ``prepare`` or ``send``, draws nothing from the
        RNG, dispatches no probe and leaves the tracker as it was (no counter,
        no trace, no revert warning).
        """
        return self._run(required, dry=True).charged

    def _run(self, required, dry: bool) -> QuorumCallStats:
        """The staged timeline of :meth:`execute`, or of :meth:`dry_run` when ``dry``."""
        quorum = as_quorum(required)
        if quorum.min_size <= 0:
            raise ValueError("a quorum call needs required >= 1")
        if not self._stages or not self._stages[0]:
            raise ValueError("a quorum call needs at least one non-empty stage")
        policy = self.policy
        stages: list[list[QuorumRequest]] = self._stages
        probe_requests: list[QuorumRequest] = []
        demoted: tuple[str, ...] = ()
        if self.health is not None:
            planned = self.health.plan(stages, quorum, self.now, dry=dry)
            stages, demoted = planned.stages, planned.demoted
            probe_requests = [] if dry else planned.probes

        traces: list[RequestTrace] = []
        stage_starts: list[float] = []
        hedged_count = 0
        # Background probes of suspected clouds: dispatched at the call's start,
        # concurrently with stage 0.  Their successes may still win quorum
        # slots (the cloud recovered), but they never gate the charged wait.
        for request in probe_requests:
            traces.append(self._resolve(request, len(stages), 0.0, False, probe=True))

        for index, requests in enumerate(stages):
            if index == 0:
                start, hedged = 0.0, False
            else:
                quorum_at = self._quorum_time(traces, quorum)
                round_end = max(t.resolved_at for t in traces if not t.probe)
                start, hedged = None, False
                if quorum_at is None:
                    # The previous rounds cannot satisfy the quorum: dispatch
                    # the fallback at the end of the round that triggered it.
                    start = round_end
                hedge_delay = policy.hedge_delay
                if hedge_delay is None and self.health is not None:
                    # Proactive hedging: a DEGRADED straggler in the previous
                    # stage supplies an automatic hedge delay.
                    hedge_delay = self.health.auto_hedge_delay(
                        [r.cloud for r in stages[index - 1]]
                    )
                if hedge_delay is not None:
                    # Hedge stragglers, not big requests: never before the
                    # previous stage could have answered healthily.
                    hedge_at = stage_starts[-1] + max(
                        hedge_delay, self._stage_bound(stages[index - 1], quorum))
                    if (quorum_at is None or quorum_at > hedge_at) and (
                            start is None or hedge_at < start):
                        start, hedged = hedge_at, True
                if start is None:
                    break  # quorum reached fast enough: stage never dispatched
            stage_starts.append(start)
            for request in requests:
                traces.append(self._resolve(request, index, start, hedged, dry=dry))
            if hedged:
                hedged_count += len(requests)

        prefix = self._satisfying_prefix(traces, quorum)
        elapsed: float | None = None
        winners: tuple[RequestTrace, ...] = ()
        if prefix is not None:
            elapsed = prefix[-1].resolved_at
            winners = tuple(prefix)
            for trace in self._ordered_successes(traces)[len(prefix):]:
                trace.status = RequestStatus.LATE
        # A dead cloud's probe must not inflate the time a failed call charges.
        gave_up_at = max((t.resolved_at for t in traces if not t.probe),
                         default=max(t.resolved_at for t in traces))
        if self.health is not None and not dry:
            for trace in traces:
                self.health.record_trace(trace, self.now)
        return QuorumCallStats(
            required=quorum.min_size, elapsed=elapsed, gave_up_at=gave_up_at,
            traces=traces, stage_started_at=tuple(stage_starts),
            winners=winners, hedged=hedged_count,
            probes=len(probe_requests), demoted=demoted,
        )


class InstantCoalescer:
    """Coalesce identical read quorum calls issued in the same virtual instant.

    At scale, many logical operations resolve at the *same* point of the
    virtual timeline (uncharged background work, several agents woken by
    equal-timestamp events, the read-modify-write sequence inside one op).
    Re-dispatching an identical read quorum — same key, same principal, no
    intervening mutation — within one instant models nothing: the simulated
    stores cannot have changed, so the second call would return byte-identical
    responses and charge a wait the first call already paid.  The coalescer
    absorbs such repeats into the first call's in-flight result.

    The cache is valid for one virtual instant between two mutations: it is
    cleared whenever the simulated clock moves *and* whenever
    :meth:`invalidate` reports a mutation (any mutating quorum call, or a
    fault-injection step that changes what the clouds serve).
    Entries are keyed by the caller (so a cached agreement never crosses an
    access-control boundary) plus the cloud key.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Coalesced (absorbed) lookups / lookups that dispatched a real call.
        self.hits = 0
        self.misses = 0
        self._stamp: float | None = None
        self._cache: dict[Any, Any] = {}

    def _window(self) -> None:
        """Drop every entry from a previous instant (the clock moved)."""
        now = self.sim.now()
        if now != self._stamp:
            self._stamp = now
            if self._cache:
                self._cache.clear()

    def invalidate(self) -> None:
        """The simulated world changed: nothing cached may be served again."""
        self._cache.clear()

    def lookup(self, key: Any) -> Any | None:
        """The value stored for ``key`` this instant, or ``None`` on a miss."""
        self._window()
        value = self._cache.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: Any, value: Any) -> None:
        """Publish one resolved call's result for the rest of this instant."""
        self._window()
        self._cache[key] = value

    @staticmethod
    def absorbed(required: int) -> QuorumCallStats:
        """Zero-cost statistics of a coalesced call.

        The absorbed call rode on a quorum that already resolved at this
        instant, so it reaches its quorum immediately (``elapsed = 0``) and
        dispatches no requests of its own.
        """
        return QuorumCallStats(
            required=required, elapsed=0.0, gave_up_at=0.0, traces=[],
            stage_started_at=(0.0,), winners=(),
        )
