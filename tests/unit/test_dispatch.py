"""Unit tests for the quorum dispatch engine and its DepSky wiring."""

import pytest

from repro.clouds.dispatch import (
    DispatchPolicy,
    QuorumCall,
    QuorumRequest,
    RequestStatus,
    dispatch_quorum,
)
from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import CloudUnavailableError, QuorumNotReachedError
from repro.common.types import Principal
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
        stats = dispatch_quorum([[request("a", 3.0), request("b", 1.0), request("c", 2.0)]], 2)
        assert stats.reached
        assert stats.elapsed == pytest.approx(2.0)
        assert stats.winner_clouds == ("b", "c")
        # The slowest success is LATE, not a winner.
        late = [t for t in stats.traces if t.cloud == "a"]
        assert late[0].status is RequestStatus.LATE

    def test_failures_do_not_occupy_quorum_slots(self):
        # A fast failure plus a slow success: the call must wait for the
        # success, not complete at the failure's (earlier) resolution.
        stats = dispatch_quorum([[request("bad", 0.1, fail=True), request("ok", 5.0)]], 1)
        assert stats.elapsed == pytest.approx(5.0)
        assert stats.winner_clouds == ("ok",)

    def test_quorum_failure_reports_give_up_time(self):
        stats = dispatch_quorum([[request("a", 1.0, fail=True), request("b", 2.0, fail=True)]], 1)
        assert not stats.reached
        assert stats.elapsed is None
        assert stats.charged == pytest.approx(2.0)

    def test_fallback_stage_dispatches_at_end_of_triggering_round(self):
        stats = dispatch_quorum(
            [[request("a", 1.0, fail=True), request("b", 2.0)], [request("c", 1.0)]], 2
        )
        # Stage 1 starts when stage 0's last request resolved (t=2), so the
        # fallback's success lands at 3 — fallback work is never free.
        assert stats.stage_started_at == (0.0, 2.0)
        assert stats.elapsed == pytest.approx(3.0)
        assert stats.preferred_hit is False
        assert stats.fallback_dispatched

    def test_fallback_stage_skipped_when_quorum_reached(self):
        counter: dict[str, int] = {}
        stats = dispatch_quorum(
            [[request("a", 1.0, counter=counter)], [request("b", 1.0, counter=counter)]], 1
        )
        assert stats.elapsed == pytest.approx(1.0)
        assert stats.stage_started_at == (0.0,)
        assert "b" not in counter  # the fallback request was never sent
        assert stats.preferred_hit

    def test_timeout_abandons_straggler(self):
        policy = DispatchPolicy(timeout=2.0)
        stats = dispatch_quorum([[request("slow", 10.0), request("ok", 1.0)]], 2, policy)
        assert not stats.reached
        slow = next(t for t in stats.traces if t.cloud == "slow")
        assert slow.status is RequestStatus.TIMED_OUT
        assert slow.resolved_at == pytest.approx(2.0)

    def test_retry_after_timeout_succeeds(self):
        policy = DispatchPolicy(timeout=2.0, retries=1)
        stats = dispatch_quorum([[request("flaky", [10.0, 1.0])]], 1, policy)
        assert stats.reached
        # First attempt abandoned at t=2, retry dispatched then lands at t=3.
        assert stats.elapsed == pytest.approx(3.0)
        assert stats.winners[0].attempts == 2

    def test_bounded_retries_for_failures(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicy(retries=2)
        stats = dispatch_quorum([[request("down", 1.0, fail=True, counter=counter)]], 1, policy)
        assert not stats.reached
        assert counter["down"] == 3  # initial attempt + 2 retries
        assert stats.charged == pytest.approx(3.0)

    def test_hedge_dispatches_backup_before_round_ends(self):
        policy = DispatchPolicy(hedge_delay=2.0)
        stats = dispatch_quorum([[request("straggler", 10.0)], [request("backup", 1.0)]], 1, policy)
        assert stats.stage_started_at == (0.0, 2.0)
        assert stats.elapsed == pytest.approx(3.0)
        assert stats.winner_clouds == ("backup",)
        assert stats.hedged == 1
        assert stats.winners[0].hedged

    def test_hedge_not_dispatched_when_quorum_is_fast(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicy(hedge_delay=2.0)
        stats = dispatch_quorum(
            [[request("fast", 1.0, counter=counter)], [request("backup", 1.0, counter=counter)]],
            1, policy,
        )
        assert stats.elapsed == pytest.approx(1.0)
        assert stats.hedged == 0
        assert "backup" not in counter

    def test_rejects_empty_calls(self):
        with pytest.raises(ValueError):
            QuorumCall().execute(required=1)
        with pytest.raises(ValueError):
            dispatch_quorum([[request("a", 1.0)]], 0)

    def test_stage_waits_cover_each_round(self):
        stats = dispatch_quorum(
            [[request("a", 2.0, fail=True)], [request("b", 3.0)]], 1
        )
        assert stats.stage_waits == pytest.approx((2.0, 3.0))


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
        stats = dispatch_quorum([[sent]], 1)
        assert stats.reached
        assert order == ["prepare", "send"]

    def test_prepare_skipped_for_undispatched_fallback(self):
        counter: dict[str, int] = {}
        stats = dispatch_quorum(
            [[self._prepared_request("a", 1.0, counter)],
             [self._prepared_request("b", 1.0, counter)]], 1
        )
        assert stats.reached
        assert counter == {"a": 1}  # the fallback never materialised its blob

    def test_prepare_not_repeated_on_retry(self):
        counter: dict[str, int] = {}
        policy = DispatchPolicy(timeout=2.0, retries=1)
        stats = dispatch_quorum(
            [[self._prepared_request("flaky", [10.0, 1.0], counter)]], 1, policy
        )
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
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        alice = Principal("alice")
        store.put("k", b"x" * 1000, alice)
        healthy = sim.now()
        store.failures.add(FaultKind.DEGRADED, start=healthy, factor=5.0)
        store.put("k2", b"x" * 1000, alice)
        degraded = sim.now() - healthy
        assert degraded == pytest.approx(5.0 * healthy)

    def test_request_latency_helpers_apply_degradation(self):
        sim = Simulation(seed=3)
        store = make_provider(sim, "amazon-s3", charge_latency=False)
        expected = store.expected_request_latency("object_get", 1000)
        store.failures.add(FaultKind.DEGRADED, factor=3.0)
        assert store.expected_request_latency("object_get", 1000) == pytest.approx(3.0 * expected)
        assert store.request_latency("object_get", 1000) == pytest.approx(3.0 * expected)


class TestLatencyEstimates:
    def test_expected_is_deterministic_and_jitter_free(self):
        model = LatencyModel(base=0.1, bandwidth=1000.0, jitter=0.5)
        assert model.expected(500) == pytest.approx(0.6)
        assert model.expected(500) == model.expected(500)

    def test_estimates_consume_no_rng_draws(self):
        from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend

        sim = Simulation(seed=9)
        alice = Principal("alice")
        single = SingleCloudBackend(sim, make_provider(sim, "amazon-s3", jitter=0.2), alice)
        coc = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim, jitter=0.2), alice)
        state = sim.rng.getstate()
        single.estimate_write_latency(1_000_000)
        single.estimate_read_latency(1_000_000)
        coc.estimate_write_latency(1_000_000)
        coc.estimate_read_latency(1_000_000)
        assert sim.rng.getstate() == state

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
    def _client(self, policy=None, seed=5):
        sim = Simulation(seed=seed)
        clouds = make_cloud_of_clouds(sim, jitter=0.1)
        client = DepSkyClient(sim, clouds, Principal("alice"), f=1, policy=policy)
        # In the client's preferred order: ``clouds[i]`` holds block ``i``.
        return sim, client.clouds, client

    def _read_elapsed(self, sim, client, unit="unit"):
        start = sim.now()
        result = client.read_latest(unit)
        return sim.now() - start, result

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
        for name, policy in (("plain", None), ("hedged", DispatchPolicy(hedge_delay=0.25))):
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
        result = client.read_latest("unit")
        assert result.stats is not None and result.meta_stats is not None
        assert result.stats.preferred_hit
        # Winners are completion-ordered, clouds_used row-ordered: same set.
        assert set(result.stats.winner_clouds) == set(result.clouds_used)
        assert result.meta_stats.required == client.k

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

        sim = Simulation(seed=5)
        backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), Principal("alice"))
        clouds = backend.client.clouds
        ref = backend.write_version("file", b"f" * 400)
        sim.advance(3.0)
        backend.read_version("file", ref.digest)
        clouds[0].failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        backend.read_version("file", ref.digest)
        stats = backend.read_paths
        assert stats.total == 2
        assert stats.systematic == 1 and stats.coded == 1
        assert stats.fallback_reads == 1
        assert stats.systematic_rate == pytest.approx(0.5)
        merged = stats.merge(stats)
        assert merged.total == 4


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
            return DepSkyClient(sim, clouds, principal(name),
                                charge_latency=False, coalescer=coalescer)

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
        generation = coalescer.generation
        writer.write("unit", b"v2")  # same instant: uncharged client
        assert coalescer.generation > generation
        heads, stats = client()._read_heads("unit")
        assert stats.traces  # re-dispatched, not served from the stale cache

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
        assert stats.preferred_hit and not stats.fallback_dispatched
        assert stats.successes == [] and stats.winner_clouds == ()
