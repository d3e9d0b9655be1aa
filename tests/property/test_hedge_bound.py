"""Property: the engine hedges stragglers, not big requests.

Every request of a DepSky quorum call carries its *healthy bound*, the longest
a healthy answer can take, and no deadline of the engine fires before it: a
hedge goes out at ``stage start + max(hedge_delay, stage bound)``, the stage
bound being when the stage's requests, each answering at its bound, would
satisfy the quorum.  Hypothesis draws one to three stages of one to five
requests, each with its own bound, and a count quorum the first stage can
reach by itself.  Every latency is deterministic (it is also the request's
expectation, so ``dry_run`` walks the same timeline).  Then:

* when every request answers within its bound, under any ``hedge_delay``,
  ``timeout`` and ``retries``, nothing is hedged or timed out, and the call
  charges what the plain policy (no hedge, no timeout) charges;
* when one first-stage request is degraded past its bound, the next stage is
  hedged exactly at ``max(hedge_delay, stage bound)`` if the quorum has not
  been reached by then, and not at all otherwise;
* ``dry_run()`` equals ``execute().charged`` in both.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clouds.dispatch import DispatchPolicyConfig, QuorumCall, QuorumRequest, RequestStatus

_bounded = st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 1.0))  # (bound, share of it used)

_case = st.fixed_dictionaries({
    "stages": st.lists(st.lists(_bounded, min_size=1, max_size=5), min_size=1, max_size=3),
    "required": st.integers(1, 5),
    "timeout": st.none() | st.floats(0.05, 1.5),
    "retries": st.integers(0, 2),
    "hedge_delay": st.none() | st.floats(0.01, 5.0),
})


def _request(name: str, bound: float, latency: float) -> QuorumRequest:
    return QuorumRequest(cloud=name, send=lambda: name, latency=lambda _value: latency,
                         expected=lambda: latency, bound=bound)


def _call(policy: DispatchPolicyConfig, stages) -> QuorumCall:
    """``stages`` of ``(bound, latency)`` pairs as a call under ``policy``."""
    call = QuorumCall(policy)
    for index, stage in enumerate(stages):
        call.stage([_request(f"cloud-{index}-{position}", bound, latency)
                    for position, (bound, latency) in enumerate(stage)])
    return call


@settings(max_examples=300, deadline=None)
@given(case=_case)
def test_healthy_answers_are_never_hedged_or_timed_out(case):
    stages = [[(bound, bound * share) for bound, share in stage] for stage in case["stages"]]
    required = 1 + (case["required"] - 1) % len(stages[0])
    policy = DispatchPolicyConfig(timeout=case["timeout"], retries=case["retries"],
                                  hedge_delay=case["hedge_delay"])
    stats = _call(policy, stages).execute(required)
    assert stats.hedged == 0 and stats.stage_started_at == (0.0,)
    assert all(t.status is not RequestStatus.TIMED_OUT for t in stats.traces)
    assert stats.charged == _call(DispatchPolicyConfig(), stages).execute(required).charged
    assert _call(policy, stages).dry_run(required) == stats.charged


@settings(max_examples=300, deadline=None)
@given(case=_case, straggler=st.integers(0, 4), factor=st.floats(1.01, 20.0))
def test_a_straggler_past_its_bound_is_hedged_at_the_stage_bound(case, straggler, factor):
    stages = [[(bound, bound * share) for bound, share in stage] for stage in case["stages"]]
    if len(stages) == 1:
        stages.append([(0.1, 0.1)])
    first = stages[0]
    straggler %= len(first)
    bound = first[straggler][0]
    first[straggler] = (bound, bound * factor)
    required = 1 + (case["required"] - 1) % len(first)
    delay = case["hedge_delay"] if case["hedge_delay"] is not None else 0.25
    policy = DispatchPolicyConfig(hedge_delay=delay)

    stats = _call(policy, stages).execute(required)
    stage_bound = sorted(bound for bound, _latency in first)[required - 1]
    quorum_at = sorted(latency for _bound, latency in first)[required - 1]
    hedge_at = max(delay, stage_bound)
    if quorum_at > hedge_at:
        assert stats.stage_started_at[:2] == (0.0, hedge_at)
        assert stats.hedged >= len(stages[1])
    else:
        assert stats.hedged == 0 and stats.stage_started_at == (0.0,)
    assert _call(policy, stages).dry_run(required) == stats.charged
