"""Property-based tests (hypothesis) for :class:`FailureSchedule`.

The scenario engine drives the fault machinery through overlapping,
runner-composed windows, so the schedule's algebra must be exact: the active
set is the union of the covering windows, degradation factors compound
multiplicatively, ``next_transition`` walks every boundary monotonically
without skipping one, and ``add_outage`` round-trips through ``active_at``.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.simenv.failures import FailureSchedule, FaultKind, FaultWindow

from conftest import active_faults

_KINDS = st.sampled_from(list(FaultKind))
_TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
_FACTORS = st.floats(min_value=1.0, max_value=100.0, allow_nan=False,
                     allow_infinity=False)


@st.composite
def windows(draw):
    kind = draw(_KINDS)
    start = draw(_TIMES)
    length = draw(st.floats(min_value=1e-6, max_value=1e5, allow_nan=False))
    end = start + length if draw(st.booleans()) else math.inf
    factor = draw(_FACTORS)
    return FaultWindow(kind, start=start, end=end, factor=factor)


@st.composite
def schedules(draw):
    return FailureSchedule(windows=draw(st.lists(windows(), max_size=8)))


# ---------------------------------------------------------------------------
# active set composition
# ---------------------------------------------------------------------------


@given(schedules(), _TIMES)
def test_active_set_is_the_union_of_covering_windows(schedule, now):
    expected = {w.kind for w in schedule.windows if w.start <= now < w.end}
    assert active_faults(schedule, now) == expected
    for kind in FaultKind:
        assert schedule.is_active(kind, now) == (kind in expected)


@given(schedules(), _TIMES)
def test_overlapping_degraded_windows_compound_multiplicatively(schedule, now):
    expected = 1.0
    for window in schedule.windows:
        if window.kind is FaultKind.DEGRADED and window.active_at(now):
            expected *= window.factor
    assert math.isclose(schedule.degradation(now), expected, rel_tol=1e-12)


@given(schedules())
def test_clear_removes_everything(schedule):
    schedule.clear()
    assert schedule.windows == []
    assert active_faults(schedule, 0.0) == set()
    assert schedule.degradation(0.0) == 1.0


# ---------------------------------------------------------------------------
# next_transition: monotone, complete, and faithful to the active set
# ---------------------------------------------------------------------------


@given(schedules(), _TIMES)
def test_next_transition_is_strictly_in_the_future(schedule, now):
    nxt = schedule.next_transition(now)
    if nxt is not None:
        assert nxt > now
        assert math.isfinite(nxt)


@given(schedules())
def test_next_transition_walk_visits_every_finite_boundary(schedule):
    boundaries = sorted({
        t for w in schedule.windows for t in (w.start, w.end)
        if math.isfinite(t) and t > 0.0
    })
    visited = []
    now = 0.0
    for _ in range(len(boundaries) + 1):
        nxt = schedule.next_transition(now)
        if nxt is None:
            break
        visited.append(nxt)
        now = nxt
    assert visited == boundaries  # monotone, exhaustive, no boundary skipped


@given(schedules())
def test_active_set_is_constant_between_transitions(schedule):
    now = 0.0
    for _ in range(20):
        nxt = schedule.next_transition(now)
        if nxt is None:
            break
        quarter = now + (nxt - now) * 0.25
        mid = now + (nxt - now) * 0.5
        if quarter != now and quarter != nxt and mid != nxt:
            assert active_faults(schedule, quarter) == active_faults(schedule, mid)
        now = nxt


# ---------------------------------------------------------------------------
# add_outage round trip
# ---------------------------------------------------------------------------


@given(_KINDS, _TIMES,
       st.floats(min_value=1e-6, max_value=1e5, allow_nan=False), _FACTORS)
def test_add_outage_round_trips_through_active_at(kind, start, duration, factor):
    schedule = FailureSchedule()
    if kind is FaultKind.DEGRADED:
        schedule.add_outage(start, duration, kind=kind, factor=factor)
    else:
        schedule.add_outage(start, duration, kind=kind)
    end = start + duration
    assert schedule.is_active(kind, start)
    assert schedule.is_active(kind, start + duration * 0.5)
    assert not schedule.is_active(kind, end)  # windows are end-exclusive
    if start > 0:
        assert not schedule.is_active(kind, math.nextafter(start, -math.inf))
    assert not schedule.is_active(kind, math.nextafter(end, math.inf))
    # The outage contributes exactly its two boundaries to the walk.
    assert schedule.next_transition(0.0) == (start if start > 0 else end)


@given(_TIMES, st.floats(min_value=1e-6, max_value=1e5, allow_nan=False))
def test_add_outage_rejects_nonpositive_durations(start, duration):
    schedule = FailureSchedule()
    try:
        schedule.add_outage(start, -duration)
    except ValueError:
        pass
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("negative duration accepted")
    assert schedule.windows == []
