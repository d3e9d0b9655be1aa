"""Property: mounts racing ``open(path, "w"/"a")`` on one new path create it exactly once.

``open(O_CREAT)`` sends the insert-if-absent first where it can and looks
first where it cannot; either way the insert is the existence check, and a
refusal says what is there.  Hypothesis draws the coordination service (the
DepSpace-like one, the ZooKeeper-like one, two partitions), two or three mounts
of one user, for each its mode, whether the parent directory is in its
metadata cache (insert first) or not (look first), whether it writes, and —
the race — before which replicated command of the calls already under way each
later mount's whole ``open … close`` runs: an interleaving at the command
level, between a lookup and the insert it licensed, between a ``Lock`` and the
``Put`` it guards on another partition, between an update and its unlock.
Afterwards

* exactly one ``open`` event says ``created``, every other successful open
  opened that very file, and an open that failed failed with ``LockHeldError``
  — never ``FileExistsErrorFS``: losing the race to create is not an error of
  ``open(O_CREAT)``;
* once every handle is closed ``LockManager.held`` is empty on every mount
  and no lock tuple is left on any replica of any partition.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.common.errors import LockHeldError
from repro.coordination.tuplespace import ANY, LOCK, DepSpace
from repro.coordination.zookeeper import LOCK_ROOT
from repro.core.deployment import SCFSDeployment

SERVICES = {
    "depspace": {"coordination_kind": "depspace"},
    "zookeeper": {"coordination_kind": "zookeeper"},
    "partitioned": {"coordination_partitions": 2},
}
PATH = "/d/contended"

_mount = st.fixed_dictionaries({
    "mode": st.sampled_from(("w", "a")),
    "parent_cached": st.booleans(),
    "writes": st.booleans(),
})
_case = st.fixed_dictionaries({
    "service": st.sampled_from(sorted(SERVICES)),
    "mounts": st.lists(_mount, min_size=2, max_size=3),
    # The replicated command (counted from the first open) each later mount cuts in before.
    "cuts": st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
})


def _lock_tuples(services, now: float) -> list:
    found = []
    for service in services:
        for replica in service.rsm.replicas:
            if isinstance(replica, DepSpace):
                found += replica.rdp_all((LOCK, ANY, ANY), now)
            else:
                found += sorted(replica._nodes[LOCK_ROOT].children)
    return found


@settings(max_examples=120, deadline=None)
@given(case=_case)
def test_racing_creators_create_once_and_leave_no_lock(case):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, **SERVICES[case["service"]])
    events: list[dict] = []
    mounts = [deployment.create_agent("alice", events=lambda kind, **fields: events.append(
        {"kind": kind, **fields})) for _ in case["mounts"]]
    mounts[0].mkdir("/d", shared=True)
    services = getattr(deployment.coordination, "services", [deployment.coordination])
    idle = _lock_tuples(services, deployment.sim.now())
    outcomes: list[str] = []

    def run(index: int) -> None:
        fs, drawn = mounts[index], case["mounts"][index]
        fs.agent.metadata_cache.clear()
        if drawn["parent_cached"]:
            fs.stat("/d")
        try:
            handle = fs.open(PATH, drawn["mode"], shared=True)
        except LockHeldError:
            outcomes.append("held")
            return
        outcomes.append("opened")
        if drawn["writes"]:
            fs.write(handle, f"mount {index}".encode())
        fs.close(handle)

    # Every replicated command passes ``rsm.invoke``: a later mount's calls run,
    # whole, right before the command its cut names (else after everyone else).
    waiting = dict(zip(case["cuts"], range(1, len(mounts)), strict=False))
    sent = itertools.count()
    for service in services:
        def invoke(*args, _invoke=service.rsm.invoke, **kwargs):
            cutting_in = waiting.pop(next(sent), None)
            if cutting_in is not None:
                run(cutting_in)
            return _invoke(*args, **kwargs)
        service.rsm.invoke = invoke
    run(0)
    never_cut_in = sorted(waiting.values())
    waiting.clear()
    for index in never_cut_in:
        run(index)
    deployment.drain()

    assert len(outcomes) == len(mounts) and "opened" in outcomes
    opens = [event for event in events if event["kind"] == "open"]
    assert len(opens) == outcomes.count("opened")
    assert [event["created"] for event in opens].count(True) == 1
    assert len({event["file_id"] for event in opens}) == 1
    assert all(fs.agent.locks._manager.held == {} and fs.agent.open_handles() == 0
               for fs in mounts)
    assert _lock_tuples(services, deployment.sim.now()) == idle
