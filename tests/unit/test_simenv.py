"""Unit tests for the simulation environment (clock, scheduler, latency, failures)."""

import contextlib
import functools

import pytest

from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.types import Principal
from repro.coordination.adapters import make_coordination_service
from repro.depsky.protocol import DepSkyClient
from repro.simenv.clock import SimClock, Stopwatch
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import LatencyModel, NetworkProfile, MEMORY_LATENCY, DISK_LATENCY


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_time_forward(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_zero_is_noop(self):
        clock = SimClock(3.0)
        assert clock.advance(0) == 3.0

    def test_advance_to_future_deadline(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now() == 7.0

    def test_advance_to_past_deadline_raises(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
        assert clock.now() == 10.0

    def test_advance_to_current_time_is_noop(self):
        clock = SimClock(10.0)
        seen = []
        clock.subscribe(lambda old, new: seen.append((old, new)))
        assert clock.advance_to(10.0) == 10.0
        assert seen == []

    def test_observers_receive_old_and_new_time(self):
        clock = SimClock()
        seen = []
        clock.subscribe(lambda old, new: seen.append((old, new)))
        clock.advance(2.0)
        assert seen == [(0.0, 2.0)]

    def test_unsubscribe_stops_notifications(self):
        clock = SimClock()
        seen = []
        observer = lambda old, new: seen.append(new)  # noqa: E731
        clock.subscribe(observer)
        clock.advance(1.0)
        clock.unsubscribe(observer)
        clock.advance(1.0)
        assert seen == [1.0]

    def test_stopwatch_measures_elapsed_time(self):
        clock = SimClock()
        watch = clock.stopwatch()
        clock.advance(4.0)
        assert watch.elapsed() == pytest.approx(4.0)

    def test_stopwatch_reset(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(4.0)
        watch.reset()
        clock.advance(1.0)
        assert watch.elapsed() == pytest.approx(1.0)


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
        assert ran == [] and handle.cancelled

    def test_pending_tasks_counts_only_live_tasks(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_tasks() == 1

    def test_drain_runs_everything(self):
        sim = Simulation()
        ran = []
        sim.schedule(1.0, lambda: ran.append("a"))
        sim.schedule(10.0, lambda: ran.append("b"))
        sim.drain()
        assert ran == ["a", "b"]
        assert sim.pending_tasks() == 0

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
        assert sim.pending_tasks() == 1
        assert sim.now() == pytest.approx(5.0)

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

    def test_schedule_at_absolute_time_runs_at_or_after_deadline(self):
        sim = Simulation()
        ran = []
        sim.advance(5.0)
        sim.schedule_at(6.0, lambda: ran.append(sim.now()))
        sim.advance(0.5)
        assert ran == []
        # Tasks run as soon as the clock passes their deadline; within a single
        # coarse advance they observe the post-advance time.
        sim.advance(1.5)
        assert len(ran) == 1 and ran[0] >= 6.0


class TestBackground:
    """``Simulation.background()``: the one switch the three charging layers obey."""

    @staticmethod
    def _coordination(sim):
        service = make_coordination_service(sim, "depspace", f=1)
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

    def test_scaled_multiplies_base(self):
        model = LatencyModel(base=2.0, bandwidth=10.0).scaled(0.5)
        assert model.base == pytest.approx(1.0)
        assert model.bandwidth == 10.0

    def test_memory_faster_than_disk(self):
        assert MEMORY_LATENCY.sample(4096) < DISK_LATENCY.sample(4096)

    def test_network_profile_with_jitter_preserves_bases(self):
        profile = NetworkProfile(name="p").with_jitter(0.3)
        assert profile.object_get.jitter == 0.3
        assert profile.object_get.base == NetworkProfile().object_get.base


class TestFailureSchedule:
    def test_empty_schedule_has_no_active_faults(self):
        assert FailureSchedule().active(10.0) == set()

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
        assert schedule.active(7.0) == {FaultKind.UNAVAILABLE, FaultKind.BYZANTINE}

    def test_clear_removes_everything(self):
        schedule = FailureSchedule()
        schedule.add(FaultKind.DROP_WRITES)
        schedule.clear()
        assert schedule.active(0.0) == set()
