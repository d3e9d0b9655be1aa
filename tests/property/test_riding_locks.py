"""Property: a refused riding command changes nothing the caller could trip over.

A lock rides in the metadata command it guards (``LockService.acquire(meta,
send)`` / ``acquire_set(metas, send)``): one ``multi`` carries the ``Lock``
steps together with the ``Get``/``Put`` steps of the caller.  The service
keeps the mirror-image promise for a command that ends with ``Unlock`` steps.
Hypothesis draws a partition layout (which partition every lock name and every
entry key falls on, 1-3 partitions, or one plain service), a step mix (which
locks are wanted, which are already held re-entrantly, which entries are read
or conditionally replaced) and one reason for the command to be refused — a
wanted lock held by someone else, a failed ``expected_version``, a denied READ
— and asserts that afterwards

* the caller holds no lock it did not hold before (and still holds those),
* ``LockManager.held`` and the ``on_transition`` history are unchanged,
* no entry changed on the partition that refused — nor anywhere at all when a
  *lock* was refused: a ``Get``/``Put`` never executes before every ``Lock``
  it rides with is granted,
* an ``Unlock`` riding with a refused ``Put`` was not applied: an entry step
  never executes after the ``Unlock`` it rides with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConflictError, LockHeldError
from repro.common.types import Permission, Principal
from repro.coordination import PartitionedCoordination, make_coordination_service
from repro.coordination.base import Get, Put, Unlock
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType
from repro.simenv.environment import Simulation

FILES = tuple(f"f{index}" for index in range(4))
PRIVATE = "meta:/d/private"  # bob's: alice may neither read nor write it


def _meta(file_id: str) -> FileMetadata:
    return FileMetadata(path=f"/d/{file_id}", file_type=FileType.FILE, owner="alice",
                        file_id=file_id)


def _lock(file_id: str) -> str:
    return LockService.lock_name(_meta(file_id))


def _key(file_id: str) -> str:
    return f"meta:/d/{file_id}"


KEYS = [*map(_lock, FILES), *map(_key, FILES), PRIVATE]

_case = st.fixed_dictionaries({
    "kind": st.sampled_from(("depspace", "zookeeper")),
    "partitions": st.integers(0, 3),  # 0: one plain (unpartitioned) service
    "layout": st.lists(st.integers(0, 2), min_size=len(KEYS), max_size=len(KEYS)),
    "held": st.sets(st.sampled_from(FILES)),
    "wanted": st.sets(st.sampled_from(FILES), min_size=1),
    "steps": st.lists(st.sampled_from((None, "get", "put")),
                      min_size=len(FILES), max_size=len(FILES)),
    "direction": st.sampled_from(("acquire", "release")),
    "refusal": st.sampled_from(("held", "version", "denied")),
    "victim": st.sampled_from(FILES),
})


def _service(sim: Simulation, case: dict):
    if case["partitions"] == 0:
        return make_coordination_service(sim, case["kind"], f=0)
    layout = dict(zip(KEYS, case["layout"], strict=True))
    return PartitionedCoordination(
        [make_coordination_service(sim, case["kind"], f=0) for _ in range(case["partitions"])],
        partition_function=lambda key, partitions: layout[key] % partitions)


@settings(max_examples=150, deadline=None)
@given(case=_case)
def test_refused_riding_command_leaves_locks_entries_and_bookkeeping_alone(case):
    sim = Simulation(seed=5)
    service = _service(sim, case)
    alice = service.open_session(Principal(name="alice", canonical_ids=()))
    bob = service.open_session(Principal(name="bob", canonical_ids=()))
    for file_id in FILES:
        service.put(_key(file_id), b"v1", alice)
    service.put(PRIVATE, b"secret", bob)
    service.set_entry_acl(PRIVATE, "alice", Permission.NONE, bob)

    locks = LockService(sim, service, alice)
    transitions: list[tuple[str, str]] = []
    locks.on_transition = lambda kind, name: transitions.append((kind, name))
    acquiring = case["direction"] == "acquire"
    wanted, victim, refusal = sorted(case["wanted"]), case["victim"], case["refusal"]
    # A release returns locks the caller holds; an acquisition may find some held.
    held_before = sorted(case["held"] | (set() if acquiring else set(wanted)))
    locks.acquire_set([_meta(file_id) for file_id in held_before])
    if refusal == "held":
        if not acquiring or victim in held_before:
            return  # only a lock the caller wants and lacks can be refused
        wanted = sorted({*wanted, victim})
        LockService(sim, service, bob).acquire(_meta(victim))

    steps = [Get(_key(f)) if step == "get" else Put(_key(f), b"v2", 1)
             for f, step in zip(FILES, case["steps"], strict=True)
             if step is not None and not (refusal == "version" and f == victim)]
    if refusal == "version":
        steps.append(Put(_key(victim), b"v2", 7))
        refusing = _key(victim)
    elif refusal == "denied":
        steps.append(Get(PRIVATE))
        refusing = PRIVATE
    else:
        refusing = _lock(victim)
    held, recorded = dict(locks._manager.held), list(transitions)
    with pytest.raises(LockHeldError if refusal == "held" else ConflictError):
        if acquiring:
            locks.acquire_set([_meta(file_id) for file_id in wanted],
                              lambda also: service.multi([*also, *steps], alice))
        else:
            service.multi([*steps, *(Unlock(_lock(file_id)) for file_id in wanted)], alice)

    assert locks._manager.held == held and transitions == recorded
    for file_id in FILES:
        owner = alice if file_id in held_before else bob if (
            refusal == "held" and file_id == victim) else None
        assert service.lock_holder(_lock(file_id)) == (owner and owner.session_id), file_id
    partition = getattr(service, "partition_of", lambda key: 0)
    for file_id in FILES:
        if refusal == "held" or partition(_key(file_id)) == partition(refusing):
            entry = service.get(_key(file_id), alice)
            assert (entry.value, entry.version) == (b"v1", 1), file_id


@settings(max_examples=60, deadline=None)
@given(case=_case)
def test_accepted_riding_command_settles_counts_and_applies_every_step(case):
    sim = Simulation(seed=5)
    service = _service(sim, case)
    alice = service.open_session(Principal(name="alice", canonical_ids=()))
    for file_id in FILES:
        service.put(_key(file_id), b"v1", alice)
    locks = LockService(sim, service, alice)
    wanted = [_meta(file_id) for file_id in sorted(case["wanted"])]
    locks.acquire_set([_meta(file_id) for file_id in sorted(case["held"])])
    steps = [Get(_key(f)) if step == "get" else Put(_key(f), b"v2", 1)
             for f, step in zip(FILES, case["steps"], strict=True) if step is not None]
    answers: list = []
    locks.acquire_set(wanted, lambda also: answers.extend(
        service.multi([*also, *steps], alice)[len(also):]))
    assert [a.version for a in answers] == [1 if isinstance(s, Get) else 2 for s in steps]
    assert locks._manager.held == {
        _lock(f): (f in case["held"]) + (f in case["wanted"])
        for f in sorted(case["held"] | case["wanted"])}
    locks.release_set(wanted)
    assert sorted(locks._manager.held) == sorted(map(_lock, case["held"]))
    for file_id in FILES:
        holder = service.lock_holder(_lock(file_id))
        assert holder == (alice.session_id if file_id in case["held"] else None)
