"""Property-based tests of the quorum-system abstraction.

* every valid weighted system upholds the dissemination-quorum laws under
  its fault structure "any f providers": any two quorums intersect outside
  every tolerated fault set, certificates never fit inside one, and a quorum
  survives every one of them (availability);
* the planner's primary stage always satisfies the quorum predicate it was
  planned for, never contains a suspected cloud unless the unsuspected ones
  cannot form a quorum,
  and never beats the true cost×latency optimum among minimal quorums;
* threshold systems agree with the bare-integer counts they generalize.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from repro.clouds.dispatch import DispatchPolicyConfig
from repro.clouds.health import CloudHealthTracker, QuorumPlanner
from repro.clouds.quorums import (
    CountQuorum,
    ThresholdQuorumSystem,
    WeightedQuorumSystem,
    minimal_quorums,
)

NAMES = ("c0", "c1", "c2", "c3", "c4", "c5", "c6")

#: Weights drawn from a small grid keeps the structure interesting (ties
#: among the heaviest, budgets landing on the bars) without float-noise flakiness.
weight_values = st.sampled_from((0.5, 1.0, 1.2, 1.5, 2.0))


@st.composite
def weighted_systems(draw):
    """A *valid* weighted quorum system over 4–7 providers."""
    count = draw(st.integers(min_value=4, max_value=7))
    universe = NAMES[:count]
    weights = tuple((name, draw(weight_values)) for name in universe)
    system = WeightedQuorumSystem(universe=universe, weights=weights,
                                  f=draw(st.integers(min_value=1, max_value=2)))
    try:
        system.validate()
    except ValueError:
        assume(False)
    return system


def fault_sets_of(system: WeightedQuorumSystem):
    """Every tolerated fault set: any ``f`` providers or fewer."""
    for size in range(system.f + 1):
        for combo in itertools.combinations(system.universe, size):
            yield set(combo)


class TestWeightedSystemLaws:
    @settings(max_examples=60, deadline=None)
    @given(system=weighted_systems())
    def test_quorum_intersections_survive_every_fault_set(self, system):
        quorums = list(minimal_quorums(system.universe, system.quorum()))
        assert quorums, "a valid system must have at least one quorum"
        faults = list(fault_sets_of(system))
        for first, second in itertools.combinations_with_replacement(quorums, 2):
            overlap = set(first) & set(second)
            for fault_set in faults:
                assert overlap - fault_set, (
                    f"quorums {first} and {second} intersect entirely inside "
                    f"tolerated fault set {sorted(fault_set)}")

    @settings(max_examples=60, deadline=None)
    @given(system=weighted_systems())
    def test_certificates_never_fit_inside_a_fault_set(self, system):
        certificate = system.certificate()
        for fault_set in fault_sets_of(system):
            assert not certificate.satisfied_by(tuple(fault_set)), (
                f"fault set {sorted(fault_set)} certifies on its own")

    @settings(max_examples=60, deadline=None)
    @given(system=weighted_systems())
    def test_a_quorum_survives_every_fault_set(self, system):
        for fault_set in fault_sets_of(system):
            survivors = [name for name in system.universe if name not in fault_set]
            assert system.satisfied_by(survivors), (
                f"no quorum survives tolerated fault set {sorted(fault_set)}")


class TestPlannerProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        system=weighted_systems(),
        latencies=st.lists(st.floats(0.01, 2.0), min_size=7, max_size=7),
        costs=st.lists(st.floats(0.001, 1.0), min_size=7, max_size=7),
        suspected_mask=st.integers(min_value=0, max_value=127),
    )
    def test_planned_primary_satisfies_the_quorum_predicate(
            self, system, latencies, costs, suspected_mask):
        latency = dict(zip(NAMES, latencies, strict=True))
        cost = dict(zip(NAMES, costs, strict=True))
        tracker = CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1))
        suspected = {name for i, name in enumerate(system.universe)
                     if suspected_mask & (1 << i)}
        for name in suspected:
            tracker.observe(name, succeeded=False, latency=0.1, now=0.0)
        planner = QuorumPlanner(
            latency_of=lambda c, kind, payload: latency[c],
            cost_of=lambda c, kind, payload: cost[c],
            tracker=tracker,
        )
        plan = planner.plan(system.universe, system.quorum(), "object_get", 0)
        # The chosen primary is always a real quorum of the system.
        assert system.satisfied_by(plan.primary)
        # Primary + fallback partition the candidates.
        assert sorted(plan.primary + plan.fallback) == sorted(system.universe)
        # The suspects stay only when the unsuspected clouds alone cannot
        # form a quorum; otherwise no suspected cloud rides in the primary.
        unsuspected = [n for n in system.universe if n not in suspected]
        if system.satisfied_by(unsuspected):
            assert not (set(plan.primary) & suspected)
        # The planner's pass of the suspect rule counts nothing: the call
        # built from the plan counts its own revert.
        assert tracker.stats.conservative_reverts == 0

    @settings(max_examples=60, deadline=None)
    @given(
        system=weighted_systems(),
        latencies=st.lists(st.floats(0.01, 2.0), min_size=7, max_size=7),
        costs=st.lists(st.floats(0.001, 1.0), min_size=7, max_size=7),
    )
    def test_planner_matches_the_exhaustive_optimum(self, system, latencies, costs):
        latency = dict(zip(NAMES, latencies, strict=True))
        cost = dict(zip(NAMES, costs, strict=True))
        planner = QuorumPlanner(
            latency_of=lambda c, kind, payload: latency[c],
            cost_of=lambda c, kind, payload: cost[c],
        )
        plan = planner.plan(system.universe, system.quorum(), "object_get", 0)
        best = min(
            sum(cost[c] for c in members) * max(latency[c] for c in members)
            for members in minimal_quorums(system.universe, system.quorum())
        )
        achieved = (sum(cost[c] for c in plan.primary)
                    * max(latency[c] for c in plan.primary))
        assert achieved <= best * (1.0 + 1e-9)


class TestThresholdAgreement:
    @settings(max_examples=40, deadline=None)
    @given(f=st.integers(min_value=0, max_value=2),
           extra=st.integers(min_value=0, max_value=3),
           mask=st.integers(min_value=0, max_value=1023))
    def test_threshold_system_agrees_with_bare_counts(self, f, extra, mask):
        n = 3 * f + 1 + extra
        universe = tuple(f"c{i}" for i in range(n))
        system = ThresholdQuorumSystem(universe=universe, f=f)
        system.validate()
        responders = [name for i, name in enumerate(universe) if mask & (1 << i)]
        assert system.satisfied_by(responders) == CountQuorum(n - f).satisfied_by(responders)
        assert system.certifies(responders) == CountQuorum(f + 1).satisfied_by(responders)
