"""Quorum-system abstraction: predicates, validity checks, planner, config.

* the legacy ``CountQuorum`` reproduces m-th-success counting exactly;
* threshold and weighted systems enforce the Malkhi–Reiter consistency and
  availability conditions at validation time;
* the planner picks the cheapest feasible quorum, demotes suspects and
  keeps them when demotion would kill feasibility;
* one function builds every system, the fault budget derived as the weight
  of the f heaviest providers; the config rejects infeasible weights before
  any deployment is built, and the deployment threads the system end to end
  (with a planner exactly when it is weighted).
"""

import math
from fractions import Fraction

import pytest

from repro.clouds.dispatch import DispatchPolicyConfig
from repro.clouds.health import CloudHealthTracker, QuorumPlanner
from repro.clouds.quorums import (
    CountQuorum,
    ThresholdQuorumSystem,
    WeightedCountQuorum,
    WeightedQuorumSystem,
    as_quorum,
    minimal_quorums,
    quorum_system,
)
from repro.common.errors import ConfigurationError
from repro.core.config import SCFSConfig
from repro.core.deployment import SCFSDeployment

CLOUDS = ("amazon-s3", "google-storage", "rackspace-files", "windows-azure")
WEIGHTS = (("amazon-s3", 1.2), ("google-storage", 1.0),
           ("rackspace-files", 1.0), ("windows-azure", 1.0))


class TestCountQuorum:
    def test_counts_responses_not_distinct_clouds(self):
        quorum = CountQuorum(3)
        # The legacy engine counts the m-th *success*, so duplicates count.
        assert quorum.satisfied_by(["a", "a", "a"])
        assert not quorum.satisfied_by(["a", "b"])
        assert quorum.min_size == 3

    def test_as_quorum_wraps_a_bare_count(self):
        assert as_quorum(2) == CountQuorum(2)
        assert as_quorum(CountQuorum(2)) == CountQuorum(2)


class TestWeightedCountQuorum:
    def test_duplicate_responders_weigh_once(self):
        quorum = WeightedCountQuorum(weights=WEIGHTS, threshold_weight=2.7)
        assert not quorum.satisfied_by(["amazon-s3", "amazon-s3", "amazon-s3"])
        assert quorum.satisfied_by(["amazon-s3", "google-storage", "rackspace-files"])

    def test_min_size_takes_heaviest_first(self):
        quorum = WeightedCountQuorum(weights=WEIGHTS, threshold_weight=2.0)
        # amazon (1.2) + google (1.0) = 2.2 > 2.0 with two clouds.
        assert quorum.min_size == 2

    def test_unsatisfiable_bar_reports_oversized_min(self):
        quorum = WeightedCountQuorum(weights=WEIGHTS, threshold_weight=10.0)
        assert quorum.min_size == len(WEIGHTS) + 1
        assert not quorum.satisfied_by(list(CLOUDS))

    def test_weight_arithmetic_is_exact_on_the_bar(self):
        # Hypothesis-found counterexample: W = 6.6, B = 1.2 (f = 1), quorum
        # bar (W+B)/2 = 3.9.  Both sets below have true weight exactly 3.9,
        # but float accumulation (0.5+1.2+1.2+1.0 = 3.9000000000000004)
        # pushed them over the strict bar — and they intersect only in c1
        # (weight 1.2 <= B), which a tolerated fault set can cover entirely.
        # The exact-rational comparison must reject both.
        weights = (("c0", 0.5), ("c1", 1.2), ("c2", 1.2), ("c3", 1.2),
                   ("c4", 0.5), ("c5", 1.0), ("c6", 1.0))
        system = WeightedQuorumSystem(
            universe=tuple(name for name, _ in weights), weights=weights, f=1)
        system.validate()
        assert not system.satisfied_by(("c0", "c1", "c2", "c5"))
        assert not system.satisfied_by(("c1", "c3", "c4", "c6"))


class TestMinimalQuorums:
    def test_enumerates_only_minimal_sets_deterministically(self):
        found = list(minimal_quorums(CLOUDS, 2))
        assert all(len(combo) == 2 for combo in found)
        assert found == sorted(found, key=lambda c: [CLOUDS.index(n) for n in c])
        # Supersets of a satisfying set are not minimal.
        assert all(len(combo) < 3 for combo in found)

    def test_weighted_minimality(self):
        quorum = WeightedCountQuorum(weights=WEIGHTS, threshold_weight=2.0)
        found = list(minimal_quorums(CLOUDS, quorum))
        for combo in found:
            assert quorum.satisfied_by(combo)
            for i in range(len(combo)):
                assert not quorum.satisfied_by(combo[:i] + combo[i + 1:])


class TestThresholdSystem:
    def test_quorum_and_certificate_counts(self):
        system = ThresholdQuorumSystem(universe=CLOUDS, f=1)
        system.validate()
        assert system.quorum() == CountQuorum(3)
        assert system.certificate() == CountQuorum(2)
        assert system.satisfied_by(CLOUDS[:3])
        assert not system.certifies(CLOUDS[:1])

    def test_rejects_too_few_providers(self):
        with pytest.raises(ValueError, match="at least 4"):
            ThresholdQuorumSystem(universe=CLOUDS[:3], f=1).validate()

    def test_rejects_duplicate_providers(self):
        with pytest.raises(ValueError, match="twice"):
            ThresholdQuorumSystem(universe=("a", "a", "b", "c"), f=1).validate()


class TestWeightedSystem:
    def system(self) -> WeightedQuorumSystem:
        return WeightedQuorumSystem(universe=CLOUDS, weights=WEIGHTS, f=1)

    def test_valid_heterogeneous_system(self):
        system = self.system()
        system.validate()
        # W = 4.2, B = 1.2: quorum bar 2.7 (any three clouds), cert bar 1.2.
        assert system.satisfied_by(("google-storage", "rackspace-files", "windows-azure"))
        assert not system.satisfied_by(("amazon-s3", "google-storage"))
        # The heavy cloud alone cannot certify: its weight equals the budget.
        assert not system.certifies(("amazon-s3",))
        assert system.certifies(("amazon-s3", "google-storage"))
        assert system.certifies(("google-storage", "rackspace-files"))

    def test_the_weighted_byzantine_bars_are_exact(self):
        # The mix's weights at f = 1: the bars the explicit budget 1.2 gave.
        system = self.system()
        assert system.quorum().threshold_weight == (Fraction(1.2) + 3 + Fraction(1.2)) / 2
        assert system.certificate().threshold_weight == Fraction(1.2)
        assert float(system.quorum().threshold_weight) == 2.7

    @pytest.mark.parametrize("f", [0, 1, 2, 3])
    def test_the_budget_is_the_weight_of_the_f_heaviest(self, f):
        weights = (("a", 0.5), ("b", 2.0), ("c", 1.0), ("d", 1.5), ("e", 1.0))
        system = WeightedQuorumSystem(universe=("a", "b", "c", "d", "e"), weights=weights, f=f)
        heaviest = sorted((Fraction(w) for _, w in weights), reverse=True)[:f]
        assert system.fault_budget == sum(heaviest, start=Fraction(0))
        assert system.certificate().threshold_weight == system.fault_budget

    def test_rejects_a_heaviest_provider_of_a_third_of_the_weight(self):
        # 1.5 of 4.5: the heaviest cloud alone could leave no quorum.
        with pytest.raises(ValueError, match="unavailable"):
            WeightedQuorumSystem(
                universe=CLOUDS, weights=(("amazon-s3", 1.5), *WEIGHTS[1:]), f=1).validate()

    def test_rejects_weights_not_covering_universe(self):
        with pytest.raises(ValueError, match="cover the universe"):
            WeightedQuorumSystem(universe=CLOUDS, weights=WEIGHTS[:3], f=1).validate()

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_weights_that_are_not_finite_and_positive(self, weight):
        with pytest.raises(ValueError, match="finite and positive"):
            WeightedQuorumSystem(
                universe=CLOUDS, weights=(("amazon-s3", weight), *WEIGHTS[1:]), f=1).validate()

    def test_rejects_a_negative_f(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightedQuorumSystem(universe=CLOUDS, weights=WEIGHTS, f=-1).validate()


class TestQuorumPlanner:
    def planner(self, latencies: dict, costs: dict,
                tracker: CloudHealthTracker | None = None) -> QuorumPlanner:
        return QuorumPlanner(
            latency_of=lambda cloud, kind, payload: latencies[cloud],
            cost_of=lambda cloud, kind, payload: costs[cloud],
            tracker=tracker,
        )

    def test_picks_cheapest_feasible_quorum(self):
        latencies = {"amazon-s3": 0.18, "google-storage": 0.17,
                     "rackspace-files": 0.09, "windows-azure": 0.095}
        costs = dict.fromkeys(CLOUDS, 1.0)
        plan = self.planner(latencies, costs).plan(CLOUDS, 2, "object_get", 0)
        assert set(plan.primary) == {"rackspace-files", "windows-azure"}
        assert set(plan.fallback) == {"amazon-s3", "google-storage"}

    def test_primary_preserves_candidate_order(self):
        latencies = dict.fromkeys(CLOUDS, 0.1)
        costs = dict.fromkeys(CLOUDS, 1.0)
        plan = self.planner(latencies, costs).plan(CLOUDS, 3, "object_get", 0)
        assert plan.primary == tuple(c for c in CLOUDS if c in plan.primary)

    def test_demotes_suspected_clouds(self):
        tracker = CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1))
        tracker.observe("rackspace-files", succeeded=False, latency=0.1, now=0.0)
        latencies = {"amazon-s3": 0.18, "google-storage": 0.17,
                     "rackspace-files": 0.01, "windows-azure": 0.095}
        costs = dict.fromkeys(CLOUDS, 1.0)
        plan = self.planner(latencies, costs, tracker).plan(CLOUDS, 2, "object_get", 0)
        assert "rackspace-files" not in plan.primary
        assert "rackspace-files" in plan.fallback

    def test_keeps_the_suspects_when_demotion_kills_feasibility(self, caplog):
        tracker = CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1))
        for cloud in CLOUDS[1:]:
            tracker.observe(cloud, succeeded=False, latency=0.1, now=0.0)
        latencies = dict.fromkeys(CLOUDS, 0.1)
        costs = dict.fromkeys(CLOUDS, 1.0)
        planner = self.planner(latencies, costs, tracker)
        with caplog.at_level("WARNING"):
            plan = planner.plan(CLOUDS, 3, "object_get", 0)
        # Only one cloud is unsuspected, so the primary keeps two suspects.
        assert len(plan.primary) == 3
        assert len(set(plan.primary) & set(CLOUDS[1:])) >= 2
        # The planner's pass is dry: the call built from the plan applies the
        # rule again and is the one that counts and logs the revert.
        assert tracker.stats.conservative_reverts == 0
        assert not caplog.records

    def test_weighted_predicate_planning(self):
        system = WeightedQuorumSystem(universe=CLOUDS, weights=WEIGHTS, f=1)
        latencies = {"amazon-s3": 0.18, "google-storage": 0.17,
                     "rackspace-files": 0.09, "windows-azure": 0.095}
        costs = dict.fromkeys(CLOUDS, 1.0)
        plan = self.planner(latencies, costs).plan(
            CLOUDS, system.quorum(), "object_get", 0)
        assert system.satisfied_by(plan.primary)
        # Any three clouds clear the 2.7 bar; the cheapest triple wins.
        assert "amazon-s3" not in plan.primary


class TestQuorumSystemBuilder:
    def test_without_weights_it_builds_the_threshold_system(self):
        assert quorum_system(CLOUDS, 1) == ThresholdQuorumSystem(CLOUDS, 1)

    def test_with_weights_it_builds_the_weighted_system_over_the_universe(self):
        assert quorum_system(CLOUDS, 1, WEIGHTS) == WeightedQuorumSystem(CLOUDS, WEIGHTS, 1)

    def test_an_infeasible_system_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="at least 4"):
            quorum_system(CLOUDS[:3], 1)
        with pytest.raises(ConfigurationError, match="cover the universe"):
            quorum_system(("amazon-s3", "google-storage", "rackspace-files", "elastic-hosts"),
                          1, WEIGHTS)

    # Weight tables infeasible at f = 1: the heaviest cloud carries a third of
    # the total weight or more, or a weight is not finite and positive.
    @pytest.mark.parametrize("weights, message", [
        ((("amazon-s3", 1.5), *WEIGHTS[1:]), "unavailable"),
        ((("amazon-s3", 3.0), *WEIGHTS[1:]), "unavailable"),
        ((("amazon-s3", -1.0), *WEIGHTS[1:]), "finite and positive"),
        ((("amazon-s3", math.inf), *WEIGHTS[1:]), "finite and positive"),
    ], ids=["a-third", "half", "negative", "infinite"])
    def test_infeasible_weights_rejected_at_config_time(self, weights, message):
        with pytest.raises(ConfigurationError, match=message):
            SCFSConfig(quorum_weights=weights).validate()

    def test_weights_require_the_coc_backend(self):
        with pytest.raises(ConfigurationError, match="cloud-of-clouds"):
            SCFSConfig.for_variant("SCFS-AWS-NB", quorum_weights=WEIGHTS)


class TestWeightedDeployment:
    def deployment(self) -> SCFSDeployment:
        return SCFSDeployment.for_variant("SCFS-CoC-B", seed=7, quorum_weights=WEIGHTS)

    def test_end_to_end_write_read_under_weighted_quorums(self):
        deployment = self.deployment()
        alice = deployment.create_agent("alice")
        alice.write_file("/doc.txt", b"weighted quorums, threshold bytes")
        assert alice.read_file("/doc.txt") == b"weighted quorums, threshold bytes"
        deployment.unmount_all()

    def test_only_a_weighted_system_is_planned(self):
        weighted = self.deployment().create_agent("alice").backend.client
        assert isinstance(weighted.quorum, WeightedQuorumSystem)
        assert weighted.planner is not None
        threshold = SCFSDeployment.for_variant("SCFS-CoC-B", seed=7).create_agent(
            "alice").backend.client
        assert threshold.quorum == ThresholdQuorumSystem(CLOUDS, 1)
        assert threshold.planner is None

    def test_client_rejects_mismatched_universe(self):
        from repro.depsky.protocol import DepSkyClient
        from repro.clouds.providers import make_cloud_of_clouds
        from repro.common.types import Principal
        from repro.simenv.environment import Simulation

        sim = Simulation(seed=3)
        clouds = make_cloud_of_clouds(sim, CLOUDS)
        system = WeightedQuorumSystem(
            universe=("one", "two", "three", "four"),
            weights=(("one", 1.0), ("two", 1.0), ("three", 1.0), ("four", 1.0)), f=1)
        with pytest.raises(ValueError, match="does not\n?.*match the deployed"):
            DepSkyClient(sim, clouds, Principal(name="alice"), quorum=system)
