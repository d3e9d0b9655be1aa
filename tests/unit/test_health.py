"""Unit tests for cloud health tracking: suspect lists, probes, config plumbing."""

from dataclasses import replace

import pytest

from repro.clouds.dispatch import QuorumCall, QuorumRequest, RequestStatus
from repro.clouds.health import (
    HEDGE_MULTIPLE,
    MIN_SAMPLES,
    CloudHealthTracker,
    HealthStats,
)
from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import CloudUnavailableError, ConfigurationError
from repro.common.types import Permission, Principal
from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend
from repro.core.config import DispatchPolicyConfig, QuorumConfig, SCFSConfig
from repro.core.deployment import SCFSDeployment
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind


def request(cloud: str, latency: float = 1.0, fail: bool = False, counter: dict | None = None):
    """Synthetic quorum request with a fixed latency."""

    def send():
        if counter is not None:
            counter[cloud] = counter.get(cloud, 0) + 1
        if fail:
            raise CloudUnavailableError(cloud)
        return cloud

    return QuorumRequest(cloud=cloud, send=send, latency=lambda _value: latency)


def tracker(threshold=2, backoff=10.0, factor=2.0, cap=40.0) -> CloudHealthTracker:
    return CloudHealthTracker(DispatchPolicyConfig(
        suspicion_threshold=threshold, probe_backoff=backoff,
        probe_backoff_factor=factor, probe_backoff_max=cap,
    ))


#: The straggler tests' policy: suspicion on, nothing else set.
TRACKED = DispatchPolicyConfig(suspicion_threshold=3)


class TestSuspicionLifecycle:
    def test_consecutive_failures_suspect_then_success_recovers(self):
        t = tracker(threshold=3)
        for _ in range(2):
            t.observe("a", succeeded=False, latency=0.5, now=0.0)
        assert not t.is_suspected("a")
        t.observe("a", succeeded=False, latency=0.5, now=1.0)
        assert t.is_suspected("a")
        assert t.health("a").suspected
        assert t.stats.suspicions == 1
        t.observe("a", succeeded=True, latency=0.2, now=2.0)
        assert not t.is_suspected("a")
        assert t.stats.recoveries == 1
        assert t.health("a").consecutive_failures == 0

    def test_success_resets_consecutive_failure_count(self):
        t = tracker(threshold=3)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        t.observe("a", succeeded=False, latency=0.5, now=0.1)
        t.observe("a", succeeded=True, latency=0.2, now=0.2)
        t.observe("a", succeeded=False, latency=0.5, now=0.3)
        assert not t.is_suspected("a")

    def test_probe_window_backs_off_exponentially_and_caps(self):
        # One policy object drives both layers: the call's timeout, retry and
        # hedge, and the tracker's threshold and probe backoff.
        policy = DispatchPolicyConfig(timeout=2.0, retries=1, hedge_delay=0.5,
                                      suspicion_threshold=2, probe_backoff=10.0,
                                      probe_backoff_factor=2.0, probe_backoff_max=30.0)
        t = CloudHealthTracker(policy)
        assert t.policy is policy
        for now in (0.0, 10.0):
            stats = (QuorumCall(policy, health=t, now=now)
                     .stage([request("a", 5.0)])
                     .stage([request("b", 1.0)])
                     .execute(1))
            slow, backup = stats.traces
            # Two attempts, each abandoned at the 2 s timeout...
            assert slow.status is RequestStatus.TIMED_OUT and slow.attempts == 2
            assert slow.resolved_at == pytest.approx(4.0)
            # ...while the hedge went out 0.5 s in and won.
            assert backup.hedged and backup.dispatched_at == pytest.approx(0.5)
            assert stats.elapsed == pytest.approx(1.5)
            # Suspected at the second consecutive failure, not the first.
            assert t.is_suspected("a") == (now == 10.0)
        health = t.health("a")
        # The first probe comes probe_backoff after the suspicion (at 14 s).
        assert health.probe_at == pytest.approx(24.0)
        assert not t.probe_due("a", 20.0)
        assert t.probe_due("a", 24.0)
        # Failed probes widen the window by the factor: 20, then capped at 30.
        t.observe("a", succeeded=False, latency=0.5, now=24.0)
        assert health.probe_at == pytest.approx(44.0)
        t.observe("a", succeeded=False, latency=0.5, now=44.0)
        assert health.probe_at == pytest.approx(74.0)

    def test_degraded_flagged_against_peer_median(self):
        t = CloudHealthTracker(TRACKED)
        for now in range(MIN_SAMPLES):
            t.observe("slow", succeeded=True, latency=2.0, now=float(now))
            t.observe("b", succeeded=True, latency=0.2, now=float(now))
            t.observe("c", succeeded=True, latency=0.25, now=float(now))
        assert t.is_degraded("slow")
        assert not t.is_degraded("b")
        assert t.auto_hedge_delay(["slow", "b"]) is not None
        assert t.auto_hedge_delay(["b", "c"]) is None

    def test_one_failure_at_threshold_one_is_one_suspicion(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        assert t.stats.suspicions == 1 and t.suspected_clouds() == ("a",)
        assert t.stats == HealthStats(suspicions=1)

    def test_policy_validation(self):
        # A policy that tracks no health would suspect a cloud at its first
        # failure, and would skip the probe-knob checks below.
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=0))
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig())
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=-1))
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1, probe_backoff=0.0))
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1,
                                                    probe_backoff_factor=0.5))
        with pytest.raises(ConfigurationError):
            CloudHealthTracker(DispatchPolicyConfig(suspicion_threshold=1, probe_backoff=10.0,
                                                    probe_backoff_max=5.0))

    def test_a_call_takes_only_its_own_policy_s_tracker(self):
        policy = DispatchPolicyConfig(suspicion_threshold=2)
        t = CloudHealthTracker(policy)
        QuorumCall(policy, health=t)
        with pytest.raises(ConfigurationError, match="own dispatch policy"):
            QuorumCall(DispatchPolicyConfig(suspicion_threshold=2), health=t)
        with pytest.raises(ConfigurationError, match="own dispatch policy"):
            QuorumCall(health=t)


class TestDropSuspects:
    """The one suspect rule that the engine's plan and the planner share."""

    def test_nothing_suspected_keeps_every_cloud(self):
        t = tracker(threshold=1)
        assert t.drop_suspects(["a", "b", "c"], 3) == ["a", "b", "c"]
        assert t.stats.conservative_reverts == 0

    def test_suspects_go_when_the_rest_satisfy_the_quorum(self):
        t = tracker(threshold=1)
        t.observe("b", succeeded=False, latency=0.5, now=0.0)
        assert t.drop_suspects(["a", "b", "c", "d"], 3) == ["a", "c", "d"]
        assert t.stats.conservative_reverts == 0

    def test_suspects_stay_loudly_when_the_rest_cannot(self, caplog):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        t.observe("b", succeeded=False, latency=0.5, now=0.0)
        with caplog.at_level("WARNING"):
            assert t.drop_suspects(["a", "b", "c"], 2) is None
        assert t.stats.conservative_reverts == 1
        assert any("reverted" in record.message for record in caplog.records)

    def test_a_dry_revert_counts_and_logs_nothing(self, caplog):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        with caplog.at_level("WARNING"):
            assert t.drop_suspects(["a", "b"], 2, dry=True) is None
        assert t.stats.conservative_reverts == 0
        assert not caplog.records

    def test_a_weighted_read_counts_its_revert_once_and_an_estimate_never(self, caplog):
        sim = Simulation(seed=1)
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(
            sim, clouds, Principal("alice"),
            dispatch=DispatchPolicyConfig(suspicion_threshold=1),
            quorum=QuorumConfig(weights=tuple((cloud.name, 1.0) for cloud in clouds),
                                fault_budget=1.0))
        assert backend.client.planner is not None
        backend.write_version("file", b"payload" * 100, version=1)
        sim.advance(3.0)
        for cloud in backend.client.clouds:
            backend.health.observe(cloud.name, succeeded=False, latency=0.1, now=sim.now())
        before = replace(backend.health.stats)
        # The estimate dry-runs the block fetch: the planner's pass and the
        # call's pass both keep the suspects, and neither counts or logs.
        with caplog.at_level("WARNING"):
            assert backend.estimate_read_latency(64 * 1024) > 0
        assert backend.health.stats == before
        assert not caplog.records
        # A real read's head call keeps them too and counts that once; its
        # answers clear the suspicions the block fetch would have kept.
        backend.client.read_latest("file")
        assert backend.health.stats.conservative_reverts == before.conservative_reverts + 1


class TestHealthAwareDispatch:
    def test_suspected_cloud_demoted_out_of_stage0(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        counter: dict[str, int] = {}
        stats = (QuorumCall(t.policy, health=t, now=1.0)
                 .stage([request("a", 5.0, fail=True, counter=counter), request("b", 1.0, counter=counter)])
                 .stage([request("c", 1.0, counter=counter), request("d", 1.0, counter=counter)])
                 .execute(2))
        # "a" was demoted (probe not due), "c" promoted into stage 0.
        assert stats.demoted == ("a",)
        assert "a" not in counter
        assert all(trace.cloud != "a" for trace in stats.traces)
        stage0 = {trace.cloud for trace in stats.traces if trace.stage == 0}
        assert stage0 == {"b", "c"}
        # Both stage-0 clouds answer in 1 s: no fallback round, no timeout tax.
        assert stats.elapsed == pytest.approx(1.0)
        assert not stats.fallback_dispatched

    def test_probe_dispatched_in_background_when_window_due(self):
        t = tracker(threshold=1, backoff=10.0)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        counter: dict[str, int] = {}
        stats = (QuorumCall(t.policy, health=t, now=20.0)
                 .stage([request("a", 9.0, fail=True, counter=counter), request("b", 1.0, counter=counter)])
                 .stage([request("c", 1.0, counter=counter)])
                 .execute(2))
        assert stats.probes == 1 and counter["a"] == 1
        probe = next(trace for trace in stats.traces if trace.cloud == "a")
        assert probe.probe
        # The quorum comes from b+c; the slow failed probe gates neither the
        # elapsed time nor the give-up time.
        assert stats.elapsed == pytest.approx(1.0)
        assert stats.gave_up_at < 9.0
        # The failed probe widened the window: no probe on the next call.
        assert not t.probe_due("a", 21.0)

    def test_probe_success_recovers_cloud(self):
        t = tracker(threshold=1, backoff=5.0)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        stats = (QuorumCall(t.policy, health=t, now=6.0)
                 .stage([request("a", 0.5, counter=None), request("b", 1.0)])
                 .stage([request("c", 1.0)])
                 .execute(2))
        assert stats.probes == 1
        assert not t.is_suspected("a")
        assert t.stats.recoveries == 1

    def test_plan_reverts_when_quorum_would_be_unreachable(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        t.observe("b", succeeded=False, latency=0.5, now=0.0)
        counter: dict[str, int] = {}
        stats = (QuorumCall(t.policy, health=t, now=1.0)
                 .stage([request("a", 1.0, counter=counter), request("b", 1.0, counter=counter),
                         request("c", 1.0, counter=counter)])
                 .execute(2))
        # Demoting both suspects would leave 1 < required requests: revert.
        assert stats.demoted == ()
        assert counter == {"a": 1, "b": 1, "c": 1}
        assert stats.reached
        assert t.stats.conservative_reverts == 1

    def test_degraded_straggler_hedged_without_explicit_hedge_delay(self):
        t = CloudHealthTracker(TRACKED)
        for now in range(MIN_SAMPLES):
            t.observe("slow", succeeded=True, latency=2.0, now=float(now))
            t.observe("b", succeeded=True, latency=0.2, now=float(now))
            t.observe("c", succeeded=True, latency=0.2, now=float(now))
        stats = (QuorumCall(t.policy, health=t, now=10.0)
                 .stage([request("slow", 8.0)])
                 .stage([request("c", 0.2)])
                 .execute(1))
        # Auto-hedge at HEDGE_MULTIPLE x 0.2 s: the backup beats the straggler
        # by far.
        assert stats.hedged == 1
        assert stats.elapsed == pytest.approx(HEDGE_MULTIPLE * 0.2 + 0.2)

    def test_without_health_behaviour_unchanged(self):
        stats = QuorumCall().stage([request("a", 1.0), request("b", 2.0)]).execute(2)
        assert stats.probes == 0 and stats.demoted == ()
        assert stats.elapsed == pytest.approx(2.0)


class TestDepSkySuspicionEndToEnd:
    def _client(self, seed=5):
        sim = Simulation(seed=seed)
        clouds = make_cloud_of_clouds(sim, jitter=0.1)
        policy = DispatchPolicyConfig(timeout=1.5, suspicion_threshold=2, probe_backoff=10.0,
                                      probe_backoff_factor=2.0)
        client = DepSkyClient(sim, clouds, Principal("alice"), f=1, policy=policy)
        # The client builds its tracker from the one policy object.
        assert client.health.policy is policy
        # In the client's preferred order: ``clouds[i]`` holds block ``i``.
        return sim, client.clouds, client, client.health

    def test_repeated_reads_stop_probing_downed_cloud(self):
        sim, clouds, client, health = self._client()
        client.write("unit", b"payload" * 500)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())

        start = sim.now()
        first = client.read_latest("unit")
        first_elapsed = sim.now() - start
        # One read = metadata call + block call: two consecutive failures.
        assert health.is_suspected(clouds[0].name)
        assert any(t.cloud == clouds[0].name for t in first.stats.traces)

        start = sim.now()
        calls = []
        client.on_quorum = lambda _op, _unit, stats: calls.append(stats)
        second = client.read_latest("unit")
        second_elapsed = sim.now() - start
        # Regression: the suspected cloud must be demoted out of stage 0 of
        # both the metadata and the block quorum call.
        assert len(calls) == 2 and calls[-1] is second.stats
        for stats in calls:
            assert clouds[0].name in stats.demoted
            assert all(t.cloud != clouds[0].name for t in stats.traces)
        assert second_elapsed < first_elapsed
        assert not second.stats.fallback_dispatched

    def test_probe_recovers_cloud_after_outage_ends(self):
        sim, clouds, client, health = self._client()
        client.write("unit", b"payload" * 500)
        sim.advance(3.0)
        outage_start = sim.now()
        clouds[0].failures.add_outage(outage_start, 5.0)
        client.read_latest("unit")
        assert health.is_suspected(clouds[0].name)
        # Wait out both the outage and the probe window, then read again: the
        # probe succeeds and the cloud leaves the suspect list.
        sim.advance(12.0)
        calls = []
        client.on_quorum = lambda _op, _unit, stats: calls.append(stats)
        client.read_latest("unit")
        assert sum(stats.probes for stats in calls) >= 1
        assert not health.is_suspected(clouds[0].name)
        # The next read is served by the preferred quorum again.
        follow_up = client.read_latest("unit")
        assert follow_up.path == "systematic"

    def test_absent_reads_do_not_suspect_healthy_clouds(self):
        # A not-found answer is authoritative: the provider is alive.  Reading
        # nonexistent units must never build suspicion against healthy clouds.
        from repro.common.errors import ObjectNotFoundError

        sim, clouds, client, health = self._client()
        for _ in range(3):
            with pytest.raises(ObjectNotFoundError):
                client.read_latest("no-such-unit")
        assert health.stats.suspicions == 0
        assert all(not health.is_suspected(c.name) for c in clouds)

    def test_suspected_cloud_still_receives_background_writes(self):
        # Replication must not silently shrink: a PUT at a suspected cloud is
        # dispatched in the background, so a *hanging* (slow but functional)
        # provider still stores the new version server-side.
        sim, clouds, client, health = self._client()
        client.write("unit", b"v1" * 200)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.DEGRADED, start=sim.now(), factor=600.0)
        client.read_latest("unit")  # two timeouts build the suspicion
        assert health.is_suspected(clouds[0].name)
        start = sim.now()
        client.write("unit", b"v2" * 200)
        elapsed = sim.now() - start
        # The charged write latency excludes the hanging cloud entirely...
        assert elapsed < 2.0
        # ...yet its background PUT attempts still stored block 0 and the
        # new head server-side (timeout abandons the wait, not the side effect).
        assert any(kind == "put" and "/v00000002-" in key and key.endswith("-b0")
                   for kind, key, _ in clouds[0].request_log)
        head = clouds[0].raw_object("depsky/unit/metadata")
        assert VersionRecord.from_bytes(head).version == 2

    def test_writes_spill_over_without_waiting_for_suspected_cloud(self):
        sim, clouds, client, health = self._client()
        client.write("warmup", b"x" * 400)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        client.read_latest("warmup")  # builds the suspicion
        assert health.is_suspected(clouds[0].name)
        record = client.write("unit", b"y" * 400)
        assert record.version == 1
        # The suspected cloud received no block PUT; the fourth cloud did.
        assert not any(kind == "put" and "unit" in key
                       for kind, key, _ in clouds[0].request_log)
        assert any(kind == "put" and "-b3" in key
                   for kind, key, _ in clouds[3].request_log)


class TestDegradedBlockHolderEndToEnd:
    """A faulty *first preferred* cloud — a systematic block holder — across
    blocking close/read rounds: ×8 DEGRADED, then UNAVAILABLE, then healed
    (the fault script of the layer benchmark's ``faulty_1m``, at small size)."""

    def _round(self, deployment, writer, reader) -> bool:
        """Replace the file, read it cold once every copy is in; whether the
        version's blocks spilled over to the last cloud of the order."""
        data = deployment.sim.fresh_id("payload").encode() * 2048
        writer.write_file("/shared.bin", data)
        deployment.sim.advance(2.0)  # past every holder's propagation window
        reader.memory_cache.clear()
        reader.disk_cache.clear()
        assert reader.read_file("/shared.bin") == data
        meta = reader.stat("/shared.bin")
        record = VersionRecord.from_locator(meta.locator, meta.digest)
        spill = reader.backend.client.clouds[-1]
        return spill.raw_object(DepSkyClient.block_key(
            meta.file_id, record.version, record.data_digest, 3)) is not None

    def test_hedges_spills_over_decodes_and_recovers(self):
        dispatch = DispatchPolicyConfig(timeout=2.0, retries=1, hedge_delay=0.25,
                                        suspicion_threshold=3)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17, dispatch=dispatch)
        writer, reader = deployment.create_agent("writer"), deployment.create_agent("reader")
        writer.write_file("/shared.bin", b"first", shared=True)
        writer.setfacl("/shared.bin", "reader", Permission.READ)
        backend = reader.backend
        first = backend.client.clouds[0]
        paths, health = backend.read_paths, backend.health
        calls = []  # the reader's client only reads: every call is a read's
        backend.client.on_quorum = lambda _op, _unit, stats: calls.append(stats)

        first.failures.add(FaultKind.DEGRADED, start=deployment.sim.now(), factor=8.0)
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        # The straggler is hedged around, on both sides of the close.
        assert all(spilled)
        assert sum(call.hedged for call in calls) > 0 and paths.coded == 4
        assert health.is_degraded(first.name)

        first.failures.clear()
        first.failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        assert all(spilled)
        assert paths.coded == 8 and paths.systematic == 0
        assert health.is_suspected(first.name)
        assert health.stats.demoted_requests > 0

        first.failures.clear()
        deployment.sim.advance(30.0)  # past the probe window
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        assert not any(spilled[1:])
        assert health.stats.recoveries >= 1 and not health.is_suspected(first.name)
        assert paths.systematic == 4 and health.stats.probes >= 1


class TestDispatchConfigPlumbing:
    def test_dispatch_config_validation(self):
        DispatchPolicyConfig().validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(timeout=0.0).validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(retries=-1).validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(hedge_delay=-0.5).validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(suspicion_threshold=-1).validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(suspicion_threshold=2, probe_backoff=0.0).validate()
        with pytest.raises(ConfigurationError):
            DispatchPolicyConfig(suspicion_threshold=2, probe_backoff=10.0,
                                 probe_backoff_max=1.0).validate()

    def test_scfs_config_rejects_a_bad_lease(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(lock_lease=0.0).validate()
        with pytest.raises(ConfigurationError):
            SCFSConfig(lock_lease=-1.0).validate()

    @pytest.mark.parametrize("knob", [
        {"timeout": 1.0}, {"retries": 1}, {"hedge_delay": 0.25}, {"suspicion_threshold": 3},
        {"probe_backoff": 5.0}, {"probe_backoff_factor": 3.0}, {"probe_backoff_max": 600.0},
    ], ids=lambda knob: next(iter(knob)))
    def test_dispatch_knob_requires_the_cloud_of_clouds_backend(self, knob):
        # A single cloud has no quorum call to time out, retry, hedge or
        # re-plan around a suspect.
        with pytest.raises(ConfigurationError):
            SCFSConfig.for_variant("SCFS-AWS-B", dispatch=DispatchPolicyConfig(**knob))
        SCFSConfig.for_variant("SCFS-AWS-B", dispatch=DispatchPolicyConfig())
        config = SCFSConfig.for_variant("SCFS-CoC-B", dispatch=DispatchPolicyConfig(**knob))
        assert config.dispatch == DispatchPolicyConfig(**knob)

    def test_tracker_factory_disabled_by_default(self):
        assert not DispatchPolicyConfig().tracks_health
        for threshold, tracked in ((0, False), (3, True)):
            sim = Simulation(seed=1)
            backend = CloudOfCloudsBackend(
                sim, make_cloud_of_clouds(sim), Principal("alice"),
                dispatch=DispatchPolicyConfig(suspicion_threshold=threshold), quorum=QuorumConfig())
            assert (backend.health is not None) is tracked
            assert (backend.health_stats() is not None) is tracked

    def test_config_reaches_depsky_client_through_agent(self):
        dispatch = DispatchPolicyConfig(timeout=1.2, retries=1, hedge_delay=0.3,
                                        suspicion_threshold=2)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, dispatch=dispatch)
        fs = deployment.create_agent("alice")
        backend = fs.backend
        assert isinstance(backend, CloudOfCloudsBackend)
        # Config-driven hedging reaches the DepSky client end-to-end.
        assert backend.client.policy.hedge_delay == pytest.approx(0.3)
        assert backend.client.policy.timeout == pytest.approx(1.2)
        assert backend.client.policy.retries == 1
        assert backend.client.health is backend.health is not None
        # One policy object: the quorum calls and the tracker read the config's own.
        assert backend.client.policy is backend.health.policy is dispatch
        assert backend.health_stats() == HealthStats()

    def test_config_driven_suspicion_through_filesystem_io(self):
        dispatch = DispatchPolicyConfig(timeout=1.5, suspicion_threshold=2)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, dispatch=dispatch)
        fs = deployment.create_agent("alice")
        fs.write_file("/f.txt", b"payload" * 400)
        # Past every block's propagation window a read asks the systematic
        # pair first, clouds[0] among them: two cold reads, two failures.
        deployment.sim.advance(3.0)
        clouds = fs.backend.client.clouds
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        for _ in range(2):
            # Evict local caches so the reads must hit the clouds.
            fs.memory_cache.clear()
            fs.disk_cache.clear()
            fs.metadata_cache.clear()
            assert fs.read_file("/f.txt") == b"payload" * 400
        assert fs.backend.health_stats().suspicions >= 1
        assert fs.backend.health.is_suspected(clouds[0].name)


    def test_not_yet_visible_polling_does_not_suspect_a_cloud(self):
        sim = Simulation(seed=1)
        backend = CloudOfCloudsBackend(
            sim, make_cloud_of_clouds(sim), Principal("alice"),
            dispatch=DispatchPolicyConfig(suspicion_threshold=2), quorum=QuorumConfig())
        ref = backend.write_version("file", b"data", version=1)
        from repro.common.errors import ObjectNotFoundError, QuorumNotReachedError

        for _ in range(3):  # eventual-consistency misses, not provider faults
            with pytest.raises((ObjectNotFoundError, QuorumNotReachedError)):
                backend.read_version("file", ref.digest, ref.locator)
        assert backend.health_stats().suspicions == 0
        assert not any(backend.health.is_suspected(c.name) for c in backend.client.clouds)

    def test_single_cloud_backend_tracks_no_health(self):
        # One cloud has no quorum to re-plan around a suspect.
        sim = Simulation(seed=1)
        store = make_provider(sim, "amazon-s3")
        backend = SingleCloudBackend(sim, store, Principal("alice"))
        ref = backend.write_version("file", b"data", version=1)
        store.failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        for _ in range(2):
            with pytest.raises(CloudUnavailableError):
                backend.read_version("file", ref.digest)
        assert backend.health is None and backend.health_stats() is None


class TestSuspicionStats:
    def test_the_tracker_counts_each_demotion_the_calls_report(self):
        sim = Simulation(seed=5)
        backend = CloudOfCloudsBackend(
            sim, make_cloud_of_clouds(sim), Principal("alice"),
            dispatch=DispatchPolicyConfig(timeout=1.5, suspicion_threshold=2),
            quorum=QuorumConfig())
        clouds = backend.client.clouds
        calls = []
        backend.client.on_quorum = lambda _op, _unit, stats: calls.append(stats)
        ref = backend.write_version("file", b"f" * 400, version=1)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        backend.read_version("file", ref.digest)  # builds the suspicion
        backend.read_version("file", ref.digest)  # demoted read
        stats = backend.health.stats
        assert stats.demoted_requests >= 2  # metadata + block call demotions
        assert stats.demoted_requests == sum(len(call.demoted) for call in calls)
        assert stats.probes == sum(call.probes for call in calls)


class TestStorageAccountingSinceCreation:
    def test_stored_since_initialized_from_creation_clock(self):
        from repro.clouds.eventual import StoredObject

        obj = StoredObject(key="k", data=b"x", owner="o", created_at=100.0, visible_at=100.0)
        assert obj.stored_since == pytest.approx(100.0)

    def test_byte_seconds_charged_from_creation_not_simulation_start(self):
        sim = Simulation(seed=4)
        store = make_provider(sim, "amazon-s3")
        alice = Principal("alice")
        sim.advance(1000.0)  # long idle prefix before the object exists
        store.put("k", b"x" * 1000, alice)
        created = sim.now()
        sim.advance(50.0)
        store.delete("k", alice)
        deleted = sim.now()
        expected = 1000 * (deleted - created)
        assert store.costs.usage.byte_seconds_stored == pytest.approx(expected)
        assert store.costs.usage.byte_seconds_stored < 1000 * deleted / 2


class TestFailureScheduleHelpers:
    def test_add_outage_bounds_window(self):
        schedule = FailureSchedule()
        schedule.add_outage(10.0, 5.0)
        assert schedule.is_active(FaultKind.UNAVAILABLE, 12.0)
        assert not schedule.is_active(FaultKind.UNAVAILABLE, 15.0)
        with pytest.raises(ValueError):
            schedule.add_outage(0.0, 0.0)

    def test_next_transition(self):
        schedule = FailureSchedule()
        schedule.add_outage(10.0, 5.0)
        schedule.add(FaultKind.DEGRADED, start=20.0, factor=2.0)
        assert schedule.next_transition(0.0) == pytest.approx(10.0)
        assert schedule.next_transition(10.0) == pytest.approx(15.0)
        assert schedule.next_transition(15.0) == pytest.approx(20.0)
        assert schedule.next_transition(20.0) is None
