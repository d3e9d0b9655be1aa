"""Property: ``QuorumCall.dry_run()`` is ``execute()`` without its side effects.

Every latency estimate is a dry run of the call the real operation builds, so
the dry run must walk the very timeline ``execute`` walks.  Hypothesis draws
one to three stages of one to five requests (each to one of the four clouds),
a count quorum no larger than the number of requests, one policy whose
``timeout``, ``retries`` and ``hedge_delay`` may each be absent, and a health
tracker reading the same policy that has seen some clouds slow (so stragglers
can supply automatic hedges) and suspects some (so the re-plan demotes them,
or reverts when too few are left).  Every request's latency is deterministic — the one per-cloud
expectation, which is also what the dry run puts on its timeline — and its send
succeeds: a GET of a stored object, published to a coalescer.  Then:

* ``dry_run()`` equals ``execute(required).charged`` exactly;
* the dry run sent nothing and left everything as it found it: the RNG (a
  jittered GET draws), the stores' billed requests, the tracker's
  counters, records and transitions, and the coalescer.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.clouds.dispatch import DispatchPolicyConfig, InstantCoalescer, QuorumCall, QuorumRequest
from repro.clouds.health import MIN_SAMPLES, CloudHealthTracker, expected_latency
from repro.clouds.providers import make_cloud_of_clouds
from repro.common.types import Principal
from repro.simenv.environment import Simulation

KEY = "object"
PAYLOAD = 4096

_case = st.fixed_dictionaries({
    "stages": st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=5),
                       min_size=1, max_size=3),
    "required": st.integers(1, 15),
    "timeout": st.none() | st.floats(0.05, 1.5),
    "retries": st.none() | st.integers(0, 2),
    "hedge_delay": st.none() | st.floats(0.01, 0.5),
    "slow": st.dictionaries(st.integers(0, 3), st.floats(0.01, 3.0)),
    "suspects": st.sets(st.integers(0, 3)),
})


def _world(case: dict):
    """The clouds (each holding :data:`KEY`), a tracker in the drawn state, and the call."""
    sim = Simulation(seed=5)
    clouds = make_cloud_of_clouds(sim, jitter=0.2)
    reader = Principal("reader")
    for cloud in clouds:
        cloud.put(KEY, bytes(PAYLOAD), reader)
    sim.advance(3.0)
    policy = DispatchPolicyConfig(timeout=case["timeout"], retries=case["retries"] or 0,
                                  hedge_delay=case["hedge_delay"], suspicion_threshold=3)
    tracker = CloudHealthTracker(policy)
    for index, latency in sorted(case["slow"].items()):
        for _ in range(MIN_SAMPLES):
            tracker.observe(clouds[index].name, succeeded=True, latency=latency, now=sim.now())
    for index in sorted(case["suspects"]):
        for _ in range(policy.suspicion_threshold):
            tracker.observe(clouds[index].name, succeeded=False, latency=0.0, now=sim.now())
    transitions: list[tuple] = []
    tracker.on_transition = lambda *event: transitions.append(event)
    coalescer = InstantCoalescer(sim)
    # An entry of this instant, so that a dry run that cleared the cache shows.
    coalescer.store(("elsewhere", KEY), b"")

    def request(cloud) -> QuorumRequest:
        def send():
            blob = cloud.get(KEY, reader)
            coalescer.store((cloud.name, KEY), blob)
            return blob

        def expected() -> float:
            return expected_latency(cloud, "object_get", PAYLOAD, tracker, policy.timeout)

        return QuorumRequest(cloud=cloud.name, send=send, latency=lambda _value: expected(),
                             expected=expected)

    call = QuorumCall(policy, health=tracker, now=sim.now())
    for stage in case["stages"]:
        call.stage([request(clouds[index]) for index in stage])
    return sim, clouds, tracker, transitions, coalescer, call


def _state(sim, clouds, tracker, transitions, coalescer) -> tuple:
    """Everything a dry run must leave as it found it."""
    return (
        sim.rng.getstate(),
        [dataclasses.replace(cloud.costs.usage) for cloud in clouds],
        dataclasses.replace(tracker.stats),
        sorted(dataclasses.astuple(record) for record in tracker._clouds.values()),
        list(transitions),
        (coalescer.hits, coalescer.misses, dict(coalescer._cache)),
    )


@settings(max_examples=300, deadline=None)
@given(case=_case)
def test_a_dry_run_is_execute_without_side_effects(case):
    sim, clouds, tracker, transitions, coalescer, call = _world(case)
    required = 1 + (case["required"] - 1) % sum(len(stage) for stage in case["stages"])
    before = _state(sim, clouds, tracker, transitions, coalescer)
    estimate = call.dry_run(required)
    assert _state(sim, clouds, tracker, transitions, coalescer) == before
    assert estimate == call.execute(required).charged
