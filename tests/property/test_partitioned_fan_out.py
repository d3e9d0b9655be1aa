"""Property: a partitioned fan-out does what a loop would, charged its slowest branch.

Commands to several partitions that need not wait for one another go out
together (``invoke_together``): a session's close, a listing, the hand-back of
a refused command's granted locks, the unlock-only tail of a ``multi``.
Hypothesis draws a partition count P in 1..4, the partition of each of eight
lock names, the lock sets two sessions hold, and a lock set the first session
asks for that the second already holds one of.  Afterwards:

* the refused ``multi`` left every holder as it was, having charged the lock
  commands one after another and the hand-back of what they granted once;
* closing the first session frees every lock it holds, on every partition, in
  one command per partition, and leaves the second session's locks alone;
* the close advances the clock by the largest of the partitions' draws and
  leaves the RNG where a loop of one command per partition would;
* at P = 1 all of it is what one plain service does: same clock, same draws.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import LockHeldError
from repro.common.types import Principal
from repro.coordination import PartitionedCoordination
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Lock
from repro.simenv.environment import Simulation

from conftest import lock_holder

NAMES = tuple(f"filelock:f{index}" for index in range(8))

_case = st.fixed_dictionaries({
    "partitions": st.integers(1, 4),
    "layout": st.lists(st.integers(0, 3), min_size=len(NAMES), max_size=len(NAMES)),
    "mine": st.sets(st.sampled_from(NAMES)),
    "theirs": st.sets(st.sampled_from(NAMES)),
    "wanted": st.sets(st.sampled_from(NAMES)),
    "contended": st.sampled_from(NAMES),
})


def _replay(rng: random.Random, services, count: int) -> list[float]:
    """What ``count`` commands to ``services`` (one latency model for all) draw from ``rng``."""
    return [services[0].rsm.latency.sample(0, rng) for _ in range(count)]


def _script(case: dict, coordination, services, sim: Simulation) -> None:
    """Take both lock sets, send the refused ``multi``, close the first session."""
    layout = dict(zip(NAMES, case["layout"], strict=True))
    count = len(services)
    contended = case["contended"]
    mine = sorted(case["mine"] - {contended})
    theirs = sorted((case["theirs"] - set(mine)) | {contended})
    wanted = sorted((case["wanted"] - set(mine)) | {contended})
    alice = coordination.open_session(Principal(name="alice", canonical_ids=()))
    bob = coordination.open_session(Principal(name="bob", canonical_ids=()))
    for names, session in ((mine, alice), (theirs, bob)):
        if names:
            coordination.multi([Lock(name) for name in names], session)

    def holders() -> list[str | None]:
        return [lock_holder(coordination, name) for name in NAMES]

    expected = [alice.session_id if name in mine else bob.session_id if name in theirs
                else None for name in NAMES]
    assert holders() == expected

    # The lock commands go one after another, in partition order, up to the
    # first that meets a lock of bob's; what the earlier ones granted is
    # handed back together.
    touched = sorted({layout[name] % count for name in wanted})
    refusing = min(layout[name] % count for name in wanted if name in theirs)
    attempted = touched[:touched.index(refusing) + 1]
    replay = random.Random()
    replay.setstate(sim.rng.getstate())
    clock = sim.now()
    for draw in _replay(replay, services, len(attempted)):
        clock += draw
    handed_back = _replay(replay, services, len(attempted) - 1)
    if handed_back:
        clock += max(handed_back)
    with pytest.raises(LockHeldError):
        coordination.multi([Lock(name) for name in wanted], alice)
    assert holders() == expected
    assert sim.now() == clock and sim.rng.getstate() == replay.getstate()

    commands = [service.rsm.commands_executed for service in services]
    draws = _replay(replay, services, count)
    clock = sim.now() + max(draws)
    coordination.close_session(alice)
    assert [service.rsm.commands_executed for service in services] == [c + 1 for c in commands]
    assert holders() == [bob.session_id if name in theirs else None for name in NAMES]
    assert sim.now() == clock and sim.rng.getstate() == replay.getstate()


@settings(max_examples=150, deadline=None)
@given(case=_case)
def test_a_fan_out_is_the_loop_charged_its_slowest_branch(case):
    sim = Simulation(seed=11)
    layout = dict(zip(NAMES, case["layout"], strict=True))
    services = [DepSpaceCoordination(sim, f=0)
                for _ in range(case["partitions"])]
    coordination = PartitionedCoordination(
        services, partition_function=lambda key, partitions: layout[key] % partitions)
    _script(case, coordination, services, sim)
    if case["partitions"] == 1:
        plain_sim = Simulation(seed=11)
        plain = DepSpaceCoordination(plain_sim, f=0)
        _script(case, plain, [plain], plain_sim)
        assert (plain_sim.now(), plain_sim.rng.getstate()) == (sim.now(), sim.rng.getstate())
