"""Unit tests for the quorum dispatch engine and its DepSky wiring."""

import dataclasses

import pytest

from repro.clouds.dispatch import (
    DispatchPolicyConfig,
    QuorumCall,
    QuorumRequest,
    RequestStatus,
)
from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import CloudUnavailableError, QuorumNotReachedError
from repro.common.types import Principal
from repro.core.deployment import SCFSDeployment
from repro.depsky.protocol import DepSkyClient
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import LatencyModel


def request(cloud: str, latencies, fail=False, counter=None):
    """Synthetic request: ``latencies`` is one value or a per-attempt sequence."""
    sequence = list(latencies) if isinstance(latencies, (list, tuple)) else [latencies]
    state = {"attempt": 0}

    def send():
        if counter is not None:
            counter[cloud] = counter.get(cloud, 0) + 1
        if fail:
            raise CloudUnavailableError(cloud)
        return cloud

    def latency(_value):
        index = min(state["attempt"], len(sequence) - 1)
        state["attempt"] += 1
        return sequence[index]

    return QuorumRequest(cloud=cloud, send=send, latency=latency)


class TestQuorumCallEngine:
    def test_completes_at_mth_success(self):
        stats = (QuorumCall()
                 .stage([request("a", 3.0), request("b", 1.0), request("c", 2.0)])
                 .execute(2))
        assert stats.reached
        assert stats.elapsed == pytest.approx(2.0)
        assert stats.winner_clouds == ("b", "c")
        # The slowest success is LATE, not a winner.
        late = [t for t in stats.traces if t.cloud == "a"]
        assert late[0].status is RequestStatus.LATE

    def test_failures_do_not_occupy_quorum_slots(self):
        # A fast failure plus a slow success: the call must wait for the
        # success, not complete at the failure's (earlier) resolution.
        stats = QuorumCall().stage([request("bad", 0.1, fail=True), request("ok", 5.0)]).execute(1)
        assert stats.elapsed == pytest.approx(5.0)
        assert stats.winner_clouds == ("ok",)

    def test_quorum_failure_reports_give_up_time(self):
        stats = (QuorumCall()
                 .stage([request("a", 1.0, fail=True), request("b", 2.0, fail=True)])
                 .execute(1))
        assert not stats.reached
        assert stats.elapsed is None
        assert stats.charged == pytest.approx(2.0)

    def test_fallback_stage_dispatches_at_end_of_triggering_round(self):
        stats = (QuorumCall()
                 .stage([request("a", 1.0, fail=True), request("b", 2.0)])
                 .stage([request("c", 1.0)])
                 .execute(2))
        # Stage 1 starts when stage 0's last request resolved (t=2), so the
        # fallback's success lands at 3 — fallback work is never free.
        assert stats.stage_started_at == (0.0, 2.0)
        assert stats.elapsed == pytest.approx(3.0)
        assert [t.stage for t in stats.winners] == [0, 1]
        assert stats.fallback_dispatched

    def test_fallback_stage_skipped_when_quorum_reached(self):
        counter: dict[str, int] = {}
        stats = (QuorumCall()
                 .stage([request("a", 1.0, counter=counter)])
                 .stage([request("b", 1.0, counter=counter)])
                 .execute(1))
        assert stats.elapsed == pytest.approx(1.0)
        assert stats.stage_started_at == (0.0,)
        assert "b" not in counter  # the fallback request was never sent
        assert [t.stage for t in stats.winners] == [0]

    def test_timeout_abandons_straggler(self):
        policy = DispatchPolicyConfig(timeout=2.0)
        stats = QuorumCall(policy).stage([request("slow", 10.0), request("ok", 1.0)]).execute(2)
        assert not stats.reached
        slow = next(t for t in stats.traces if t.cloud == "slow")
        assert slow.status is RequestStatus.TIMED_OUT
        assert slow.resolved_at == pytest.approx(2.0)

    def test_retry_after_timeout_succeeds(self):
        policy = DispatchPolicyConfig(timeout=2.0, retries=1)
        stats = QuorumCall(policy).stage([request("flaky", [10.0, 1.0])]).execute(1)
        assert stats.reached
        # First attempt abandoned at t=2, retry dispatched then lands at t=3.
        assert stats.elapsed == pytest.approx(3.0)
        assert stats.winners[0].attempts == 2

    def test_bounded_retries_for_failures(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicyConfig(retries=2)
        stats = (QuorumCall(policy)
                 .stage([request("down", 1.0, fail=True, counter=counter)])
                 .execute(1))
        assert not stats.reached
        assert counter["down"] == 3  # initial attempt + 2 retries
        assert stats.charged == pytest.approx(3.0)

    def test_hedge_dispatches_backup_before_round_ends(self):
        policy = DispatchPolicyConfig(hedge_delay=2.0)
        stats = (QuorumCall(policy)
                 .stage([request("straggler", 10.0)])
                 .stage([request("backup", 1.0)])
                 .execute(1))
        assert stats.stage_started_at == (0.0, 2.0)
        assert stats.elapsed == pytest.approx(3.0)
        assert stats.winner_clouds == ("backup",)
        assert stats.hedged == 1
        assert stats.winners[0].hedged

    def test_hedge_not_dispatched_when_quorum_is_fast(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicyConfig(hedge_delay=2.0)
        stats = (QuorumCall(policy)
                 .stage([request("fast", 1.0, counter=counter)])
                 .stage([request("backup", 1.0, counter=counter)])
                 .execute(1))
        assert stats.elapsed == pytest.approx(1.0)
        assert stats.hedged == 0
        assert "backup" not in counter

    def test_rejects_empty_calls(self):
        with pytest.raises(ValueError):
            QuorumCall().execute(required=1)
        with pytest.raises(ValueError):
            QuorumCall().stage([request("a", 1.0)]).execute(0)

    def test_next_round_starts_when_the_previous_one_fails(self):
        stats = (QuorumCall()
                 .stage([request("a", 2.0, fail=True)])
                 .stage([request("b", 3.0)])
                 .execute(1))
        assert stats.stage_started_at == (0.0, 2.0)
        assert stats.elapsed == 5.0


class TestPrepareHook:
    """The lazy ``prepare`` hook runs once at dispatch, never for idle requests."""

    def _prepared_request(self, cloud, latencies, counter, fail=False):
        base = request(cloud, latencies, fail=fail)

        def prepare():
            counter[cloud] = counter.get(cloud, 0) + 1

        return QuorumRequest(cloud=base.cloud, send=base.send,
                             latency=base.latency, prepare=prepare)

    def test_prepare_runs_before_first_send(self):
        order: list[str] = []
        sent = QuorumRequest(
            cloud="a",
            send=lambda: order.append("send"),
            latency=lambda _: 1.0,
            prepare=lambda: order.append("prepare"),
        )
        stats = QuorumCall().stage([sent]).execute(1)
        assert stats.reached
        assert order == ["prepare", "send"]

    def test_prepare_skipped_for_undispatched_fallback(self):
        counter: dict[str, int] = {}
        stats = (QuorumCall()
                 .stage([self._prepared_request("a", 1.0, counter)])
                 .stage([self._prepared_request("b", 1.0, counter)])
                 .execute(1))
        assert stats.reached
        assert counter == {"a": 1}  # the fallback never materialised its blob

    def test_prepare_not_repeated_on_retry(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicyConfig(timeout=2.0, retries=1)
        stats = (QuorumCall(policy)
                 .stage([self._prepared_request("flaky", [10.0, 1.0], counter)])
                 .execute(1))
        assert stats.reached
        assert stats.winners[0].attempts == 2
        assert counter == {"flaky": 1}


class TestDegradedFaults:
    def test_degradation_factor_compounds_and_expires(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.DEGRADED, start=10.0, end=20.0, factor=4.0)
        schedule.add(FaultKind.DEGRADED, start=15.0, end=20.0, factor=2.0)
        assert schedule.degradation(5.0) == 1.0
        assert schedule.degradation(12.0) == 4.0
        assert schedule.degradation(16.0) == 8.0
        assert schedule.degradation(25.0) == 1.0

    def test_degraded_window_requires_positive_factor(self):
        schedule = FailureSchedule()
        with pytest.raises(ValueError):
            schedule.add(FaultKind.DEGRADED, factor=0.0)

    def test_degraded_store_charges_multiplied_latency(self):
        sim = Simulation(seed=3)
        store = make_provider(sim, "amazon-s3")
        alice = Principal("alice")
        store.put("k", b"x" * 1000, alice)
        healthy = sim.now()
        store.failures.add(FaultKind.DEGRADED, start=healthy, factor=5.0)
        store.put("k2", b"x" * 1000, alice)
        degraded = sim.now() - healthy
        assert degraded == pytest.approx(5.0 * healthy)

    def test_request_latency_applies_degradation(self):
        sim = Simulation(seed=3)
        store = make_provider(sim, "amazon-s3")
        expected = store.profile.object_get.expected(1000)
        store.failures.add(FaultKind.DEGRADED, factor=3.0)
        assert store.request_latency("object_get", 1000) == pytest.approx(3.0 * expected)

    def test_an_estimate_knows_no_fault_that_no_request_observed(self):
        """A dry run reads the profile and what the tracker saw, never the fault schedule."""
        sim = Simulation(seed=5)
        policy = DispatchPolicyConfig(timeout=2.0, suspicion_threshold=3)
        client = DepSkyClient(sim, make_cloud_of_clouds(sim), Principal("alice"), f=1,
                              policy=policy)
        healthy = client.expected_read(1 << 20)
        client.clouds[0].failures.add(FaultKind.DEGRADED, start=sim.now(), factor=8.0)
        assert client.expected_read(1 << 20) == healthy


class TestLatencyEstimates:
    def test_expected_is_deterministic_and_jitter_free(self):
        model = LatencyModel(base=0.1, bandwidth=1000.0, jitter=0.5)
        assert model.expected(500) == pytest.approx(0.6)
        assert model.expected(500) == model.expected(500)

    def test_single_cloud_estimate_reflects_bandwidth_term(self):
        from repro.core.backend import SingleCloudBackend

        sim = Simulation(seed=9)
        store = make_provider(sim, "amazon-s3", jitter=0.3)
        backend = SingleCloudBackend(sim, store, Principal("alice"))
        profile = store.profile
        assert backend.estimate_write_latency(10_000_000) == pytest.approx(
            profile.object_put.expected(10_000_000)
        )


class TestDepSkyDispatchAccounting:
    def _client(self, policy=DispatchPolicyConfig(), seed=5):
        sim = Simulation(seed=seed)
        clouds = make_cloud_of_clouds(sim, jitter=0.1)
        client = DepSkyClient(sim, clouds, Principal("alice"), f=1, policy=policy)
        # In the client's preferred order: ``clouds[i]`` holds block ``i``.
        return sim, client.clouds, client

    def _read_elapsed(self, sim, client, unit="unit"):
        start = sim.now()
        result = client.read_latest(unit)
        return sim.now() - start, result

    def test_a_healthy_head_get_lands_within_its_bound_and_its_dry_run(self, monkeypatch):
        """A head GET carries the head's size, so its healthy bound and its
        dry run include the payload term (jitter 0: nothing else varies)."""
        sim = Simulation(seed=5)
        client = DepSkyClient(sim, make_cloud_of_clouds(sim), Principal("alice"), f=1)
        client.write("unit", b"payload" * 500)
        sim.advance(3.0)
        executed = []
        execute = QuorumCall.execute

        def recorded(call, required):
            bounds = {r.cloud: r.bound for stage in call._stages for r in stage}
            dry = call.dry_run(required)
            stats = execute(call, required)
            executed.append((bounds, dry, stats))
            return stats

        monkeypatch.setattr(QuorumCall, "execute", recorded)
        client.read_latest("unit")
        bounds, dry, stats = executed[0]  # the head read
        assert len(stats.successes) == 4
        for trace in stats.successes:
            assert trace.resolved_at - trace.dispatched_at <= bounds[trace.cloud]
        assert dry == stats.charged

    def test_fallback_read_charges_more_than_systematic(self):
        # Same seed, same profiles: the only difference is one failed
        # preferred cloud, so the coded read must charge strictly more.
        sim_ok, _, client_ok = self._client()
        client_ok.write("unit", b"payload" * 500)
        sim_ok.advance(3.0)
        healthy_elapsed, healthy = self._read_elapsed(sim_ok, client_ok)

        sim_bad, clouds_bad, client_bad = self._client()
        client_bad.write("unit", b"payload" * 500)
        sim_bad.advance(3.0)
        clouds_bad[0].failures.add(FaultKind.UNAVAILABLE, start=sim_bad.now())
        degraded_elapsed, degraded = self._read_elapsed(sim_bad, client_bad)

        assert healthy.path == "systematic" and degraded.path == "coded"
        assert degraded.stats.fallback_dispatched
        assert degraded_elapsed > healthy_elapsed

    def test_hedged_request_beats_degraded_straggler(self):
        plain_elapsed = {}
        for name, policy in (("plain", DispatchPolicyConfig()),
                             ("hedged", DispatchPolicyConfig(hedge_delay=0.25))):
            sim, clouds, client = self._client(policy=policy)
            client.write("unit", b"straggler" * 500)
            sim.advance(3.0)
            # ×20 of the fastest cloud's 0.09 s GET: a ~1.8 s straggler.
            clouds[0].failures.add(FaultKind.DEGRADED, start=sim.now(), factor=20.0)
            plain_elapsed[name], result = self._read_elapsed(sim, client)
            if name == "hedged":
                assert result.stats.hedged > 0
        assert plain_elapsed["hedged"] < 0.5 * plain_elapsed["plain"]

    def test_byzantine_response_charged_full_transfer_latency(self):
        # A Byzantine block fails verification but its download still took the
        # full transfer time, not just the round trip.
        sim, clouds, client = self._client()
        client.write("unit", b"x" * 1_000_000)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.BYZANTINE, start=sim.now())
        result = client.read_latest("unit")
        failed = next(t for t in result.stats.traces
                      if t.cloud == clouds[0].name and t.stage == 0)
        assert failed.status is RequestStatus.FAILED
        round_trip_only = clouds[0].profile.object_get.base * 1.2
        assert failed.resolved_at - failed.dispatched_at > round_trip_only

    def test_read_result_carries_dispatch_stats(self):
        sim, _, client = self._client()
        client.write("unit", b"stats" * 100)
        sim.advance(3.0)
        tapped = []
        client.on_quorum = lambda op, _unit, stats: tapped.append((op, stats))
        result = client.read_latest("unit")
        assert result.stats is not None
        assert result.stats.reached and all(t.stage == 0 for t in result.stats.winners)
        # Winners are completion-ordered, clouds_used row-ordered: same set.
        assert set(result.stats.winner_clouds) == set(result.clouds_used)
        (head_op, head_stats), (block_op, block_stats) = tapped
        assert (head_op, block_op) == ("meta_read", "block_get")
        assert head_stats.required == client.k and block_stats is result.stats

    def test_write_spillover_uses_fallback_stage(self):
        sim, clouds, client = self._client()
        clouds[0].failures.add(FaultKind.UNAVAILABLE)
        client.write("unit", b"spill" * 200)
        # The fourth cloud received a data block via the fallback stage.
        assert any("-b3" in key for kind, key, _ in clouds[3].request_log if kind == "put")

    def test_write_quorum_failure_still_raises(self):
        sim, clouds, client = self._client()
        clouds[0].failures.add(FaultKind.UNAVAILABLE)
        clouds[1].failures.add(FaultKind.UNAVAILABLE)
        with pytest.raises(QuorumNotReachedError):
            client.write("unit", b"too many failures")

    def test_backend_read_path_stats_accumulate(self):
        from repro.core.backend import CloudOfCloudsBackend
        from repro.core.config import QuorumConfig

        sim = Simulation(seed=5)
        backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), Principal("alice"),
                                       dispatch=DispatchPolicyConfig(), quorum=QuorumConfig())
        clouds = backend.client.clouds
        tapped = []
        backend.client.on_quorum = lambda op, _unit, stats: tapped.append((op, stats))
        ref = backend.write_version("file", b"f" * 400, version=1)
        sim.advance(3.0)
        backend.read_version("file", ref.digest)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        backend.read_version("file", ref.digest)
        stats = backend.read_paths
        assert stats.systematic == 1 and stats.coded == 1
        assert [stats.fallback_dispatched for op, stats in tapped if op == "block_get"] == [False, True]


def bounded(cloud: str, latencies, bound: float, counter=None):
    """A synthetic request whose healthy answer takes at most ``bound`` seconds."""
    return dataclasses.replace(request(cloud, latencies, counter=counter), bound=bound)


class TestHealthyBound:
    """No deadline of the engine fires before a healthy answer could land."""

    #: The dispatch policy of the layer benchmark's ``faulty_1m`` (and README's example).
    FAULTY = DispatchPolicyConfig(timeout=2.0, retries=1, hedge_delay=0.25, suspicion_threshold=3)

    def test_a_timeout_never_abandons_an_attempt_before_its_bound(self):
        policy = DispatchPolicyConfig(timeout=2.0)
        stats = QuorumCall(policy).stage([bounded("big", 2.8, bound=3.0)]).execute(1)
        assert stats.elapsed == 2.8 and stats.winners[0].attempts == 1
        stats = QuorumCall(policy).stage([bounded("big", 3.5, bound=3.0)]).execute(1)
        assert not stats.reached
        assert stats.traces[0].status is RequestStatus.TIMED_OUT
        assert stats.traces[0].resolved_at == 3.0

    def test_a_healthy_stage_is_not_hedged_before_its_bound(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicyConfig(hedge_delay=0.25)
        stats = (QuorumCall(policy)
                 .stage([bounded("a", 0.38, bound=0.4, counter=counter),
                         bounded("b", 0.2, bound=0.3, counter=counter)])
                 .stage([bounded("c", 0.1, bound=0.2, counter=counter)])
                 .execute(2))
        assert stats.elapsed == 0.38 and stats.hedged == 0
        assert "c" not in counter

    def test_a_straggler_past_its_bound_is_hedged_at_the_stage_bound(self):
        policy = DispatchPolicyConfig(hedge_delay=0.25)
        stats = (QuorumCall(policy)
                 .stage([bounded("straggler", 3.0, bound=0.4), bounded("b", 0.2, bound=0.3)])
                 .stage([bounded("c", 0.1, bound=0.2)])
                 .execute(2))
        # The stage bound is the second bounded answer: 0.4 s, past the delay.
        assert stats.stage_started_at == (0.0, 0.4)
        assert stats.elapsed == pytest.approx(0.5) and stats.hedged == 1

    def test_a_stage_that_cannot_answer_alone_hedges_at_the_delay(self):
        policy = DispatchPolicyConfig(hedge_delay=0.25)
        stats = (QuorumCall(policy)
                 .stage([bounded("a", 3.0, bound=0.4)])
                 .stage([bounded("b", 0.1, bound=0.2)])
                 .execute(2))
        assert stats.stage_started_at == (0.0, 0.25)

    def test_a_healthy_1mib_write_and_read_send_no_extra_request(self):
        sim = Simulation(seed=5)
        clouds = make_cloud_of_clouds(sim, jitter=0.1)
        client = DepSkyClient(sim, clouds, Principal("alice"), f=1, policy=self.FAULTY)

        def block_requests(kind: str) -> int:
            return sum(1 for cloud in clouds for logged, key, _ in cloud.request_log
                       if logged == kind and "-b" in key)

        record = client.write("unit", bytes(1 << 20))
        assert block_requests("put") == client.n - client.f
        # The first instant k holders serve the version: the slower-propagating
        # holder is still invisible, and the slower visible one is not hedged.
        sim.advance(client.readable_at(record) - sim.now())
        result = client.read_matching("unit", record.data_digest, record=record)
        assert block_requests("get") == client.k
        assert result.stats.hedged == 0
        assert client.health.stats.suspicions == 0

    def test_a_16mib_file_is_written_and_read_back_under_the_faulty_policy(self):
        # A healthy 8 MiB block PUT or GET takes longer than the 2 s timeout.
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=1, dispatch=self.FAULTY)
        fs = deployment.create_agent("alice")
        data = bytes(range(256)) * (16 * 4096)
        fs.write_file("/big.bin", data)
        deployment.drain(3.0)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/big.bin") == data
        health = fs.backend.health
        assert health.stats.suspicions == 0 and not health.suspected_clouds()


class TestInstantCoalescer:
    """Same-instant quorum coalescing (the scale-out batching layer)."""

    def _world(self, seed=5):
        from repro.clouds.dispatch import InstantCoalescer

        sim = Simulation(seed=seed)
        clouds = make_cloud_of_clouds(sim)

        def principal(name):
            return Principal(name=name, canonical_ids=tuple(
                (c.name, f"{name}@{c.name}") for c in clouds))

        coalescer = InstantCoalescer(sim)

        def client(name="alice"):
            return DepSkyClient(sim, clouds, principal(name), coalescer=coalescer)

        return sim, clouds, coalescer, client

    def test_same_instant_repeat_is_absorbed(self):
        sim, clouds, coalescer, client = self._world()
        client().write("unit", b"payload")
        sim.advance(60.0)
        first, second = client(), client()
        heads1, stats1 = first._read_heads("unit")
        heads2, stats2 = second._read_heads("unit")
        assert heads1 == heads2 and {head.version for _cloud, head in heads1} == {1}
        assert first._certified_head(heads2).version == 1
        assert stats1.traces and not stats2.traces  # second call hit no wire
        assert stats2.charged == 0.0 and stats2.reached
        assert coalescer.hits == 1

    def test_mutation_invalidates_within_the_instant(self):
        sim, clouds, coalescer, client = self._world()
        writer = client()
        writer.write("unit", b"v1")
        sim.advance(60.0)
        reader = client()
        reader._read_heads("unit")
        with sim.background():  # same instant: the write charges nothing
            writer.write("unit", b"v2")
        hits, misses = coalescer.hits, coalescer.misses
        heads, stats = client()._read_heads("unit")
        assert stats.traces  # re-dispatched, not served from the stale cache
        assert (coalescer.hits, coalescer.misses) == (hits, misses + 1)

    def test_cache_never_crosses_principals(self):
        sim, clouds, coalescer, client = self._world()
        client("alice").write("unit", b"secret")
        sim.advance(60.0)
        client("alice")._read_heads("unit")
        hits = coalescer.hits
        # Bob lacks any grant on alice's unit: his read must go to the wire
        # (and fail there), not be served from alice's cached agreement.
        heads, stats = client("bob")._read_heads("unit")
        assert coalescer.hits == hits
        assert heads == ()

    def test_clock_movement_expires_the_window(self):
        sim, clouds, coalescer, client = self._world()
        client().write("unit", b"payload")
        sim.advance(60.0)
        client()._read_heads("unit")
        sim.advance(1e-6)
        hits = coalescer.hits
        client()._read_heads("unit")
        assert coalescer.hits == hits

    def test_charged_clients_never_collide(self):
        # With latency charging on, every quorum call advances the clock, so
        # back-to-back reads land on different instants: the coalescer is
        # inert (zero hits) and the agreed values are unchanged.
        from repro.clouds.dispatch import InstantCoalescer

        sim = Simulation(seed=7)
        clouds = make_cloud_of_clouds(sim)
        coalescer = InstantCoalescer(sim)
        principal = Principal("alice", canonical_ids=tuple(
            (c.name, f"alice@{c.name}") for c in clouds))
        client = DepSkyClient(sim, clouds, principal, coalescer=coalescer)
        client.write("unit", b"payload")
        sim.advance(60.0)
        for _ in range(3):
            result = client.read_latest("unit")
            assert result.data == b"payload"
        assert coalescer.hits == 0

    def test_absorbed_stats_shape(self):
        from repro.clouds.dispatch import InstantCoalescer

        stats = InstantCoalescer.absorbed(required=2)
        assert stats.reached and stats.charged == 0.0
        assert stats.winners == () and not stats.fallback_dispatched
        assert stats.successes == [] and stats.winner_clouds == ()
