"""Unit tests for cloud health tracking: suspect lists, probes, config plumbing."""

import pytest

from repro.clouds.dispatch import DispatchPolicy, QuorumRequest, dispatch_quorum
from repro.clouds.health import (
    CloudHealthTracker,
    CloudStatus,
    HealthStats,
    SuspicionPolicy,
)
from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import (
    CloudUnavailableError,
    ConfigurationError,
    IntegrityError,
)
from repro.common.types import Permission, Principal
from repro.core.backend import CloudOfCloudsBackend, ReadPathStats, SingleCloudBackend
from repro.core.config import DispatchPolicyConfig, SCFSConfig
from repro.core.consistency import AnchoredStorage, DictConsistencyAnchor
from repro.core.deployment import SCFSDeployment
from repro.crypto.hashing import content_digest
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
    return CloudHealthTracker(SuspicionPolicy(
        threshold=threshold, probe_backoff=backoff,
        probe_backoff_factor=factor, probe_backoff_max=cap,
    ))


class TestSuspicionLifecycle:
    def test_consecutive_failures_suspect_then_success_recovers(self):
        t = tracker(threshold=3)
        for _ in range(2):
            t.observe("a", succeeded=False, latency=0.5, now=0.0)
        assert not t.is_suspected("a")
        t.observe("a", succeeded=False, latency=0.5, now=1.0)
        assert t.is_suspected("a")
        assert t.status("a") is CloudStatus.SUSPECTED
        assert t.suspicions == 1
        t.observe("a", succeeded=True, latency=0.2, now=2.0)
        assert not t.is_suspected("a")
        assert t.recoveries == 1
        assert t.health("a").consecutive_failures == 0

    def test_success_resets_consecutive_failure_count(self):
        t = tracker(threshold=3)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        t.observe("a", succeeded=False, latency=0.5, now=0.1)
        t.observe("a", succeeded=True, latency=0.2, now=0.2)
        t.observe("a", succeeded=False, latency=0.5, now=0.3)
        assert not t.is_suspected("a")

    def test_probe_window_backs_off_exponentially_and_caps(self):
        t = tracker(threshold=1, backoff=10.0, factor=2.0, cap=30.0)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        health = t.health("a")
        assert health.probe_at == pytest.approx(10.0)
        assert not t.probe_due("a", 5.0)
        assert t.probe_due("a", 10.0)
        # Failed probes widen the window: 20, then capped at 30.
        t.observe("a", succeeded=False, latency=0.5, now=10.0)
        assert health.probe_at == pytest.approx(30.0)
        t.observe("a", succeeded=False, latency=0.5, now=30.0)
        assert health.probe_at == pytest.approx(60.0)  # 30 (cap) after the fail

    def test_degraded_flagged_against_peer_median(self):
        t = CloudHealthTracker(SuspicionPolicy(degraded_factor=3.0, min_samples=2))
        for now in range(4):
            t.observe("slow", succeeded=True, latency=2.0, now=float(now))
            t.observe("b", succeeded=True, latency=0.2, now=float(now))
            t.observe("c", succeeded=True, latency=0.25, now=float(now))
        assert t.is_degraded("slow")
        assert not t.is_degraded("b")
        assert t.status("slow") is CloudStatus.DEGRADED
        assert "slow" in t.degraded_clouds()
        assert t.auto_hedge_delay(["slow", "b"]) is not None
        assert t.auto_hedge_delay(["b", "c"]) is None

    def test_snapshot_and_merge(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        snap = t.snapshot()
        assert snap.suspicions == 1 and snap.suspected_now == ("a",)
        merged = snap.merge(HealthStats(suspicions=2, suspected_now=("a", "b")))
        assert merged.suspicions == 3
        assert merged.suspected_now == ("a", "b")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SuspicionPolicy(threshold=0).validate()
        with pytest.raises(ValueError):
            SuspicionPolicy(probe_backoff=0.0).validate()
        with pytest.raises(ValueError):
            SuspicionPolicy(probe_backoff=10.0, probe_backoff_max=5.0).validate()
        with pytest.raises(ValueError):
            SuspicionPolicy(degraded_factor=1.0).validate()


class TestHealthAwareDispatch:
    def test_suspected_cloud_demoted_out_of_stage0(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        counter: dict[str, int] = {}
        stats = dispatch_quorum(
            [[request("a", 5.0, fail=True, counter=counter), request("b", 1.0, counter=counter)],
             [request("c", 1.0, counter=counter), request("d", 1.0, counter=counter)]],
            required=2, health=t, now=1.0,
        )
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
        stats = dispatch_quorum(
            [[request("a", 9.0, fail=True, counter=counter), request("b", 1.0, counter=counter)],
             [request("c", 1.0, counter=counter)]],
            required=2, health=t, now=20.0,
        )
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
        stats = dispatch_quorum(
            [[request("a", 0.5, counter=None), request("b", 1.0)], [request("c", 1.0)]],
            required=2, health=t, now=6.0,
        )
        assert stats.probes == 1
        assert not t.is_suspected("a")
        assert t.recoveries == 1

    def test_plan_reverts_when_quorum_would_be_unreachable(self):
        t = tracker(threshold=1)
        t.observe("a", succeeded=False, latency=0.5, now=0.0)
        t.observe("b", succeeded=False, latency=0.5, now=0.0)
        counter: dict[str, int] = {}
        stats = dispatch_quorum(
            [[request("a", 1.0, counter=counter), request("b", 1.0, counter=counter),
              request("c", 1.0, counter=counter)]],
            required=2, health=t, now=1.0,
        )
        # Demoting both suspects would leave 1 < required requests: revert.
        assert stats.demoted == ()
        assert counter == {"a": 1, "b": 1, "c": 1}
        assert stats.reached

    def test_degraded_straggler_hedged_without_explicit_hedge_delay(self):
        t = CloudHealthTracker(SuspicionPolicy(degraded_factor=3.0, min_samples=2,
                                               hedge_multiple=2.0))
        for now in range(4):
            t.observe("slow", succeeded=True, latency=2.0, now=float(now))
            t.observe("b", succeeded=True, latency=0.2, now=float(now))
            t.observe("c", succeeded=True, latency=0.2, now=float(now))
        stats = dispatch_quorum(
            [[request("slow", 8.0)], [request("c", 0.2)]],
            required=1, health=t, now=10.0,
        )
        # Auto-hedge at 2 x 0.2 s: the backup beats the straggler by far.
        assert stats.hedged == 1
        assert stats.elapsed == pytest.approx(0.6)

    def test_without_health_behaviour_unchanged(self):
        stats = dispatch_quorum([[request("a", 1.0), request("b", 2.0)]], required=2)
        assert stats.probes == 0 and stats.demoted == ()
        assert stats.elapsed == pytest.approx(2.0)


class TestDepSkySuspicionEndToEnd:
    def _client(self, seed=5, **suspicion_overrides):
        sim = Simulation(seed=seed)
        clouds = make_cloud_of_clouds(sim, jitter=0.1)
        policy_kwargs = dict(threshold=2, probe_backoff=10.0, probe_backoff_factor=2.0)
        policy_kwargs.update(suspicion_overrides)
        health = CloudHealthTracker(SuspicionPolicy(**policy_kwargs))
        client = DepSkyClient(sim, clouds, Principal("alice"), f=1,
                              policy=DispatchPolicy(timeout=1.5), health=health)
        # In the client's preferred order: ``clouds[i]`` holds block ``i``.
        return sim, client.clouds, client, health

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
        second = client.read_latest("unit")
        second_elapsed = sim.now() - start
        # Regression: the suspected cloud must be demoted out of stage 0 of
        # both the metadata and the block quorum call.
        for stats in (second.stats, second.meta_stats):
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
        result = client.read_latest("unit")
        assert result.stats.probes + result.meta_stats.probes >= 1
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
        assert health.suspicions == 0
        assert all(not health.is_suspected(c.name) for c in clouds)

    def test_not_yet_visible_polling_does_not_suspect_single_cloud(self):
        sim = Simulation(seed=1)
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(sim, store, Principal("alice"),
                                     dispatch=DispatchPolicyConfig(suspicion_threshold=2))
        ref = backend.write_version("file", b"data")  # propagation delay: 1 s
        from repro.common.errors import ObjectNotFoundError

        for _ in range(3):  # eventual-consistency misses, not provider faults
            with pytest.raises(ObjectNotFoundError):
                backend.read_version("file", ref.digest)
        assert not backend.health.is_suspected(store.name)
        assert backend.health_stats().suspicions == 0

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
        reader.agent.memory_cache.clear()
        reader.agent.disk_cache.clear()
        assert reader.read_file("/shared.bin") == data
        meta = reader.stat("/shared.bin")
        record = VersionRecord.from_locator(meta.locator, meta.digest)
        spill = reader.agent.backend.client.clouds[-1]
        return spill.raw_object(DepSkyClient._block_key(
            meta.file_id, record.version, record.data_digest, 3)) is not None

    def test_hedges_spills_over_decodes_and_recovers(self):
        dispatch = DispatchPolicyConfig(timeout=2.0, retries=1, hedge_delay=0.25,
                                        suspicion_threshold=3)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17, dispatch=dispatch)
        writer, reader = deployment.create_agent("writer"), deployment.create_agent("reader")
        writer.write_file("/shared.bin", b"first", shared=True)
        writer.setfacl("/shared.bin", "reader", Permission.READ)
        backend = reader.agent.backend
        first = backend.client.clouds[0]
        paths, health = backend.read_paths, backend.health

        first.failures.add(FaultKind.DEGRADED, start=deployment.sim.now(), factor=8.0)
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        # The straggler is hedged around, on both sides of the close.
        assert all(spilled)
        assert paths.hedged_requests > 0 and paths.coded == 4
        assert first.name in health.snapshot().degraded_now

        first.failures.clear()
        first.failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        assert all(spilled)
        assert paths.coded == 8 and paths.systematic == 0
        assert first.name in health.snapshot().suspected_now
        assert paths.demoted_requests > 0

        first.failures.clear()
        deployment.sim.advance(30.0)  # past the probe window
        spilled = [self._round(deployment, writer, reader) for _ in range(4)]
        assert not any(spilled[1:])
        assert health.recoveries >= 1 and first.name not in health.snapshot().suspected_now
        assert paths.systematic == 4 and paths.probe_requests >= 1


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

    def test_scfs_config_rejects_bad_lease_and_retry_limit(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(lock_lease=0.0).validate()
        with pytest.raises(ConfigurationError):
            SCFSConfig(lock_lease=-1.0).validate()
        with pytest.raises(ConfigurationError):
            SCFSConfig(read_retry_limit=-1).validate()

    def test_hedge_delay_requires_fallback_stage(self):
        # The single-cloud backend has no fallback stage to hedge with.
        with pytest.raises(ConfigurationError):
            SCFSConfig.for_variant("SCFS-AWS-B",
                                   dispatch=DispatchPolicyConfig(hedge_delay=0.25))
        config = SCFSConfig.for_variant("SCFS-CoC-B",
                                        dispatch=DispatchPolicyConfig(hedge_delay=0.25))
        assert config.dispatch.hedge_delay == 0.25

    def test_tracker_factory_disabled_by_default(self):
        config = DispatchPolicyConfig()
        assert not config.tracks_health
        assert config.make_tracker() is None
        enabled = DispatchPolicyConfig(suspicion_threshold=3)
        assert enabled.make_tracker() is not None

    def test_config_reaches_depsky_client_through_agent(self):
        dispatch = DispatchPolicyConfig(timeout=1.2, retries=1, hedge_delay=0.3,
                                        suspicion_threshold=2)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, dispatch=dispatch)
        fs = deployment.create_agent("alice")
        backend = fs.agent.backend
        assert isinstance(backend, CloudOfCloudsBackend)
        # Config-driven hedging reaches the DepSky client end-to-end.
        assert backend.client.policy.hedge_delay == pytest.approx(0.3)
        assert backend.client.policy.timeout == pytest.approx(1.2)
        assert backend.client.policy.retries == 1
        assert backend.client.health is backend.health is not None
        assert backend.health.policy.threshold == 2
        assert backend.health_stats() is not None

    def test_config_driven_suspicion_through_filesystem_io(self):
        dispatch = DispatchPolicyConfig(timeout=1.5, suspicion_threshold=2)
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, dispatch=dispatch)
        fs = deployment.create_agent("alice")
        fs.write_file("/f.txt", b"payload" * 400)
        # Past every block's propagation window a read asks the systematic
        # pair first, clouds[0] among them: two cold reads, two failures.
        deployment.sim.advance(3.0)
        clouds = fs.agent.backend.client.clouds
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        for _ in range(2):
            # Evict local caches so the reads must hit the clouds.
            fs.agent.memory_cache.clear()
            fs.agent.disk_cache.clear()
            fs.agent.metadata_cache.clear()
            assert fs.read_file("/f.txt") == b"payload" * 400
        snapshot = fs.agent.backend.health_stats()
        assert snapshot.suspicions >= 1
        assert clouds[0].name in snapshot.suspected_now

    def test_single_cloud_backend_tracks_outages(self):
        sim = Simulation(seed=1)
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(sim, store, Principal("alice"),
                                     dispatch=DispatchPolicyConfig(suspicion_threshold=2))
        ref = backend.write_version("file", b"data")
        store.failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        for _ in range(2):
            with pytest.raises(CloudUnavailableError):
                backend.read_version("file", ref.digest)
        assert backend.health.is_suspected(store.name)
        assert backend.health_stats().suspicions == 1


class TestReadPathSuspicionStats:
    def test_demotions_and_probes_flow_into_read_path_stats(self):
        sim = Simulation(seed=5)
        backend = CloudOfCloudsBackend(
            sim, make_cloud_of_clouds(sim), Principal("alice"),
            dispatch=DispatchPolicyConfig(timeout=1.5, suspicion_threshold=2),
        )
        clouds = backend.client.clouds
        ref = backend.write_version("file", b"f" * 400)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        backend.read_version("file", ref.digest)  # builds the suspicion
        backend.read_version("file", ref.digest)  # demoted read
        stats = backend.read_paths
        assert stats.demoted_requests >= 2  # metadata + block call demotions
        merged = stats.merge(stats)
        assert merged.demoted_requests == 2 * stats.demoted_requests

    def test_render_read_paths_includes_suspicion_columns(self):
        from repro.bench.report import render_read_paths

        stats = ReadPathStats(systematic=3, coded=1, demoted_requests=4, probe_requests=2)
        table = render_read_paths("paths", {"CoC": stats})
        assert "demoted" in table and "probes" in table
        assert "4" in table and "2" in table


class TestConsistencyAnchorIntegrity:
    def test_digest_mismatch_raises_integrity_error_not_none(self):
        # A backend that always returns wrong data for the anchored digest must
        # surface an IntegrityError once the retry budget is exhausted, not a
        # silent None (which is indistinguishable from "file absent").
        sim = Simulation(seed=2)

        class StaleBackend:
            def estimate_readable_at(self, locator):
                return 0.0

            def read_version(self, file_id, digest, locator=""):
                return b"stale version"

            def write_version(self, file_id, data):
                raise NotImplementedError

        anchored = AnchoredStorage(sim, DictConsistencyAnchor(), StaleBackend(),
                                   retry_interval=0.1, retry_limit=3)
        anchored.anchor.write_hash("obj", content_digest(b"anchored version"))
        with pytest.raises(IntegrityError):
            anchored.read("obj")

    def test_mismatch_keeps_polling_until_fresh_version_visible(self):
        sim = Simulation(seed=2)

        class EventuallyFreshBackend:
            def __init__(self):
                self.calls = 0

            def estimate_readable_at(self, locator):
                return 0.0

            def read_version(self, file_id, digest, locator=""):
                self.calls += 1
                return b"stale" if self.calls < 3 else b"fresh"

        backend = EventuallyFreshBackend()
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(), backend,
                                   retry_interval=0.5, retry_limit=10)
        anchored.anchor.write_hash("obj", content_digest(b"fresh"))
        start = sim.now()
        assert anchored.read("obj") == b"fresh"
        # Two stale responses -> two retry waits on the simulated clock.
        assert sim.now() - start == pytest.approx(1.0)

    def test_absent_object_still_returns_none(self):
        sim = Simulation(seed=2)
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(),
                                   SingleCloudBackend(sim, store, Principal("alice")))
        assert anchored.read("ghost") is None


class TestStorageAccountingSinceCreation:
    def test_stored_since_initialized_from_creation_clock(self):
        from repro.clouds.eventual import _StoredObject
        from repro.clouds.access_control import ObjectACL

        obj = _StoredObject(key="k", data=b"x", acl=ObjectACL(owner="o"),
                            created_at=100.0, visible_at=100.0, digest="d")
        assert obj.stored_since == pytest.approx(100.0)

    def test_byte_seconds_charged_from_creation_not_simulation_start(self):
        sim = Simulation(seed=4)
        store = make_provider(sim, "amazon-s3", charge_latency=False)
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
