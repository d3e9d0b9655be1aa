"""Unit tests for the simulation environment (clock, scheduler, latency, failures)."""

import contextlib
import functools
import random

import pytest

from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.types import Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.core.cache import make_disk_cache, make_memory_cache
from repro.depsky.protocol import DepSkyClient
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import LatencyModel, NetworkProfile, MEMORY_LATENCY, DISK_LATENCY

from conftest import active_faults


class TestClock:
    """The simulated clock ``Simulation`` holds and moves."""

    def test_starts_at_zero(self):
        assert Simulation().now() == 0.0

    def test_advance_moves_time_forward(self):
        sim = Simulation()
        sim.advance(1.5)
        assert sim.advance(0.5) == pytest.approx(2.0) == sim.now()

    def test_advance_rejects_negative(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.advance(-0.1)

    def test_advance_zero_is_noop(self):
        sim = Simulation()
        sim.advance(3.0)
        assert sim.advance(0) == 3.0

    def test_advance_to_future_deadline(self):
        sim = Simulation()
        assert sim.advance_to(7.0) == 7.0 == sim.now()

    def test_advance_to_past_deadline_raises(self):
        sim = Simulation()
        sim.advance(10.0)
        with pytest.raises(ValueError):
            sim.advance_to(5.0)
        assert sim.now() == 10.0

    def test_advance_to_current_time_runs_nothing(self):
        sim = Simulation()
        sim.advance(10.0)
        ran = []
        sim.schedule(0.0, lambda: ran.append(sim.now()))
        assert sim.advance_to(10.0) == 10.0
        assert ran == []

    def test_advance_to_is_advance_by_the_difference(self):
        # ``now + (deadline - now)``, rounding included: the replay
        # fingerprints were recorded with it.
        sim = Simulation()
        sim.advance(0.3)
        assert sim.advance_to(0.9) == 0.3 + (0.9 - 0.3) != 0.9

    def test_every_advance_runs_the_tasks_it_makes_due(self):
        sim = Simulation()
        ran = []
        sim.schedule(1.0, lambda: ran.append(sim.now()))
        sim.schedule(1.5, lambda: ran.append(sim.now()))
        sim.advance(1.0)
        assert ran == [1.0]
        sim.advance_to(2.0)
        assert ran == [1.0, 2.0]


class TestSimulation:
    def test_same_seed_same_random_sequence(self):
        a, b = Simulation(seed=7), Simulation(seed=7)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_scheduled_task_runs_when_time_reaches_deadline(self):
        sim = Simulation()
        ran = []
        sim.schedule(2.0, lambda: ran.append(sim.now()))
        sim.advance(1.0)
        assert ran == []
        sim.advance(1.5)
        assert ran == [pytest.approx(2.5)]

    def test_tasks_run_in_deadline_order(self):
        sim = Simulation()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.advance(5.0)
        assert order == ["early", "late"]

    def test_cancelled_task_does_not_run(self):
        sim = Simulation()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append(1))
        handle.cancel()
        sim.advance(2.0)
        assert ran == []

    def test_drain_runs_everything(self):
        sim = Simulation()
        ran = []
        sim.schedule(1.0, lambda: ran.append("a"))
        sim.schedule(10.0, lambda: ran.append("b"))
        sim.drain()
        assert ran == ["a", "b"]
        assert sim.step() is False  # nothing left to run

    def test_drain_skips_cancelled_tasks(self):
        sim = Simulation()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append("cancelled"))
        sim.schedule(2.0, lambda: ran.append("live"))
        handle.cancel()
        sim.drain()
        assert ran == ["live"]
        assert sim.step() is False

    def test_a_delay_counts_from_the_current_time(self):
        sim = Simulation()
        ran = []
        sim.advance(5.0)
        sim.schedule(1.0, lambda: ran.append(sim.now()))
        sim.advance(0.5)
        assert ran == []
        # A task runs once the clock passes its deadline; within one coarse
        # advance it observes the post-advance time.
        sim.advance(1.5)
        assert ran == [pytest.approx(7.0)]

    def test_drain_extra_advances_past_last_deadline(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.drain(extra=2.0)
        assert sim.now() == pytest.approx(3.0)

    def test_task_scheduled_by_task_runs_on_later_advance(self):
        sim = Simulation()
        ran = []

        def outer():
            sim.schedule(1.0, lambda: ran.append("inner"))

        sim.schedule(1.0, outer)
        sim.drain()
        assert ran == ["inner"]

    def test_schedule_rejects_negative_delay(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_drains_tasks_at_their_own_deadlines(self):
        # The PR 6 bugfix: run_until used to jump straight to the deadline, so
        # tasks observed the *deadline* time instead of their scheduled time.
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now()))
        sim.schedule(2.5, lambda: seen.append(sim.now()))
        sim.run_until(4.0)
        assert seen == [pytest.approx(1.0), pytest.approx(2.5)]
        assert sim.now() == pytest.approx(4.0)

    def test_run_until_rejects_past_deadline(self):
        sim = Simulation()
        sim.advance(5.0)
        with pytest.raises(ValueError):
            sim.run_until(2.0)

    def test_run_until_runs_tasks_scheduled_by_tasks(self):
        sim = Simulation()
        seen = []

        def outer():
            sim.schedule(1.0, lambda: seen.append(sim.now()))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert seen == [pytest.approx(2.0)]

    def test_run_until_leaves_later_tasks_pending(self):
        sim = Simulation()
        sim.schedule(10.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now() == pytest.approx(5.0)
        assert sim.step() is True and sim.now() == pytest.approx(10.0)

    def test_step_advances_to_next_event_only(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(3.0, lambda: seen.append("b"))
        assert sim.step() is True
        assert seen == ["a"] and sim.now() == pytest.approx(1.0)
        assert sim.step() is True
        assert seen == ["a", "b"] and sim.now() == pytest.approx(3.0)
        assert sim.step() is False

    def test_step_skips_cancelled_heads(self):
        sim = Simulation()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append("cancelled"))
        sim.schedule(2.0, lambda: seen.append("live"))
        handle.cancel()
        assert sim.step() is True
        assert seen == ["live"] and sim.now() == pytest.approx(2.0)

    def test_run_all_visits_each_event_time(self):
        sim = Simulation()
        seen = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, lambda: seen.append(sim.now()))
        steps = sim.run_all()
        assert steps == 3
        assert seen == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_run_all_bounds_task_storms(self):
        sim = Simulation()

        def respawn():
            sim.schedule(1.0, respawn)

        sim.schedule(1.0, respawn)
        with pytest.raises(RuntimeError):
            sim.run_all(max_events=10)

    def test_equal_deadline_tasks_run_in_schedule_order(self):
        sim = Simulation()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.schedule(1.0, lambda: order.append("third"))
        sim.run_all()
        assert order == ["first", "second", "third"]


def _rng_copy(sim: Simulation) -> random.Random:
    """A generator that draws what ``sim.rng`` will draw next, leaving it alone."""
    copy = random.Random()
    copy.setstate(sim.rng.getstate())
    return copy


def _cache_access(make):
    def build(sim):
        cache = make(1 << 30, sim)

        def access():  # a store, then a hit: two accesses of 64 KiB
            cache.put("f", b"c" * 65536, "v1")
            assert cache.get("f", "v1") is not None
            return 2 * cache.latency.sample(65536)
        return access
    return build


def _store_put(sim):
    store = make_provider(sim, "amazon-s3", jitter=0.2)

    def put():
        sampled = store.profile.object_put.sample(4096, _rng_copy(sim))
        store.put("key", b"x" * 4096, Principal("alice"))
        return sampled
    return put


def _quorum_calls(sim):
    client = DepSkyClient(sim, make_cloud_of_clouds(sim, jitter=0.2), Principal("alice"))
    waits = []
    client.on_quorum = lambda _op, _unit, stats: waits.append(stats.charged)

    def write():  # the block-put call, then the head-put call
        client.write_numbered([("unit", b"x" * 4096, 1)])
        assert len(waits) == 2
        return sum(waits)
    return write


def _coordination_command(sim):
    service = DepSpaceCoordination(sim, f=1)
    session = service.open_session(Principal("alice"))

    def command():
        sampled = service.latency.sample(0, _rng_copy(sim))
        service.put("k", b"v", session)
        return sampled
    return command


#: Each layer that charges the clock, built on a simulation: its request
#: returns the latency the layer sampled for it.
CHARGING_LAYERS = {
    "memory cache": _cache_access(make_memory_cache),
    "disk cache": _cache_access(make_disk_cache),
    "cloud store": _store_put,
    "DepSky quorum calls": _quorum_calls,
    "coordination command": _coordination_command,
}


@pytest.mark.parametrize("layer", CHARGING_LAYERS)
@pytest.mark.parametrize("background", [False, True], ids=["foreground", "background"])
def test_every_layer_charges_its_sampled_latency_unless_in_the_background(layer, background):
    sim = Simulation(seed=3)
    request = CHARGING_LAYERS[layer](sim)
    before = sim.now()
    with sim.background() if background else contextlib.nullcontext():
        sampled = request()
    assert sampled > 0
    assert sim.now() - before == (0.0 if background else pytest.approx(sampled, abs=1e-12))


class TestBackground:
    """``Simulation.background()``: the one switch every charging layer obeys."""

    @staticmethod
    def _coordination(sim):
        service = DepSpaceCoordination(sim, f=1)
        return service, service.open_session(Principal("alice"))

    def test_nesting_restores_the_outer_state(self):
        sim = Simulation()
        assert not sim.in_background
        with sim.background():
            with sim.background():
                assert sim.in_background
            assert sim.in_background
        assert not sim.in_background

    def test_exception_restores_the_state(self):
        sim = Simulation()
        with pytest.raises(RuntimeError):
            with sim.background():
                raise RuntimeError("upload failed")
        assert not sim.in_background

    def test_task_coming_due_inside_a_background_block_is_charged(self):
        sim = Simulation(seed=3)
        service, session = self._coordination(sim)
        seen = []

        def task():
            start = sim.now()
            service.put("k", b"v", session)
            seen.append((sim.in_background, sim.now() - start))

        sim.schedule(1.0, task)
        with sim.background():
            sim.advance(2.0)
            assert sim.in_background  # ...and the block goes on as it was
            before = sim.now()
            service.put("k", b"w", session)
            assert sim.now() == before
        (in_background, charged), = seen
        assert not in_background and charged > 0.05

    def test_background_coordination_command_draws_nothing(self):
        sim = Simulation(seed=3)
        service, session = self._coordination(sim)
        state, before = sim.rng.getstate(), sim.now()
        with sim.background():
            service.put("k", b"v", session)
        assert sim.rng.getstate() == state and sim.now() == before
        service.put("k", b"w", session)
        assert sim.rng.getstate() != state and sim.now() > before

    @pytest.mark.parametrize("layer", ["store", "depsky"])
    def test_background_cloud_request_draws_what_a_foreground_one_draws(self, layer):
        alice = Principal("alice")

        def write(background):
            sim = Simulation(seed=3)
            if layer == "store":
                request = functools.partial(
                    make_provider(sim, "amazon-s3", jitter=0.2).put, "key", b"x" * 4096, alice)
            else:
                client = DepSkyClient(sim, make_cloud_of_clouds(sim, jitter=0.2), alice)
                request = functools.partial(client.write, "unit", b"x" * 4096)
            with sim.background() if background else contextlib.nullcontext():
                request()
            return sim.rng.getstate(), sim.now()

        foreground_state, foreground_now = write(background=False)
        background_state, background_now = write(background=True)
        assert background_state == foreground_state != Simulation(seed=3).rng.getstate()
        assert background_now == 0.0 < foreground_now


class TestLatencyModel:
    def test_base_only(self):
        assert LatencyModel(base=0.1).sample(10_000) == pytest.approx(0.1)

    def test_bandwidth_term_scales_with_payload(self):
        model = LatencyModel(base=0.0, bandwidth=1000.0)
        assert model.sample(500) == pytest.approx(0.5)

    def test_jitter_stays_within_bounds(self):
        sim = Simulation(seed=3)
        model = LatencyModel(base=1.0, jitter=0.2)
        for _ in range(100):
            assert 0.8 <= model.sample(0, sim.rng) <= 1.2

    def test_no_rng_means_no_jitter(self):
        model = LatencyModel(base=1.0, jitter=0.5)
        assert model.sample(0, None) == pytest.approx(1.0)

    def test_memory_faster_than_disk(self):
        assert MEMORY_LATENCY.sample(4096) < DISK_LATENCY.sample(4096)

    def test_network_profile_with_jitter_preserves_bases(self):
        profile = NetworkProfile(name="p").with_jitter(0.3)
        assert profile.object_get.jitter == 0.3
        assert profile.object_get.base == NetworkProfile().object_get.base


class TestFailureSchedule:
    def test_empty_schedule_has_no_active_faults(self):
        assert active_faults(FailureSchedule(), 10.0) == set()

    def test_window_bounds_are_half_open(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.UNAVAILABLE, start=1.0, end=2.0)
        assert not schedule.is_active(FaultKind.UNAVAILABLE, 0.5)
        assert schedule.is_active(FaultKind.UNAVAILABLE, 1.0)
        assert schedule.is_active(FaultKind.UNAVAILABLE, 1.999)
        assert not schedule.is_active(FaultKind.UNAVAILABLE, 2.0)

    def test_default_window_is_forever(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.CORRUPTION)
        assert schedule.is_active(FaultKind.CORRUPTION, 1e9)

    def test_multiple_kinds_can_overlap(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.UNAVAILABLE, 0, 10)
        schedule.add(FaultKind.BYZANTINE, 5, 15)
        assert active_faults(schedule, 7.0) == {FaultKind.UNAVAILABLE, FaultKind.BYZANTINE}

    def test_clear_removes_everything(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.DROP_WRITES)
        schedule.clear()
        assert active_faults(schedule, 0.0) == set()
