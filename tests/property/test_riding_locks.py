"""Property: a refused riding command changes nothing the caller could trip over.

A lock rides in the metadata command it guards (``LockService.acquire(meta,
send)`` / ``acquire_set(metas, send)``): one ``multi`` carries the ``Lock``
steps together with the ``Get``/``Put`` steps of the caller.  The service
keeps the mirror-image promise for a command that ends with ``Unlock`` steps.
Hypothesis draws a step mix (which locks are wanted, which are already held
re-entrantly, which entries are read or conditionally replaced) and one reason
for the command to be refused — a wanted lock held by someone else, a failed
``expected_version``, a denied READ — and asserts that afterwards

* the caller holds no lock it did not hold before (and still holds those),
* ``LockService.held`` and the ``on_transition`` history are unchanged,
* no entry changed: a ``Get``/``Put`` never executes before every ``Lock``
  it rides with is granted,
* an ``Unlock`` riding with a refused ``Put`` was not applied: an entry step
  never executes after the ``Unlock`` it rides with.

A third property names every lock the way the agent does — by the file id,
whatever path a rename moved the entry to since — and lets the release of a
held lock come due while the riding command is out (a background commit
landing inside it), accepted or refused, with and without a re-entrant hold:
no lock is gained or lost, ``held`` agrees with ``lock_holder`` and the
``on_transition`` history, and no ``Get`` executes before its ``Lock`` is
granted.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConflictError, LockHeldError
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Get, Put, Unlock
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType
from repro.core.metadata_service import MetadataService
from repro.simenv.environment import Simulation

from conftest import lock_holder

FILES = tuple(f"f{index}" for index in range(4))
PRIVATE = "meta:/d/private"  # bob's: alice may neither read nor write it


def _meta(file_id: str) -> FileMetadata:
    return FileMetadata(path=f"/d/{file_id}", file_type=FileType.FILE, owner="alice",
                        file_id=file_id)


def _lock(file_id: str) -> str:
    return LockService.lock_name(_meta(file_id))


def _key(file_id: str) -> str:
    return f"meta:/d/{file_id}"


_case = st.fixed_dictionaries({
    "held": st.sets(st.sampled_from(FILES)),
    "wanted": st.sets(st.sampled_from(FILES), min_size=1),
    "steps": st.lists(st.sampled_from((None, "get", "put")),
                      min_size=len(FILES), max_size=len(FILES)),
    "direction": st.sampled_from(("acquire", "release")),
    "refusal": st.sampled_from(("held", "version", "denied")),
    "victim": st.sampled_from(FILES),
})


@settings(max_examples=150, deadline=None)
@given(case=_case)
def test_refused_riding_command_leaves_locks_entries_and_bookkeeping_alone(case):
    sim = Simulation(seed=5)
    service = DepSpaceCoordination(sim, f=0)
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
    elif refusal == "denied":
        steps.append(Get(PRIVATE))
    held, recorded = dict(locks.held), list(transitions)
    with pytest.raises(LockHeldError if refusal == "held" else ConflictError):
        if acquiring:
            locks.acquire_set([_meta(file_id) for file_id in wanted],
                              lambda also: service.multi([*also, *steps], alice))
        else:
            service.multi([*steps, *(Unlock(_lock(file_id)) for file_id in wanted)], alice)

    assert locks.held == held and transitions == recorded
    for file_id in FILES:
        owner = alice if file_id in held_before else bob if (
            refusal == "held" and file_id == victim) else None
        assert lock_holder(service, _lock(file_id)) == (owner and owner.session_id), file_id
    for file_id in FILES:
        entry = service.get(_key(file_id), alice)
        assert (entry.value, entry.version) == (b"v1", 1), file_id


@settings(max_examples=60, deadline=None)
@given(case=_case)
def test_accepted_riding_command_settles_counts_and_applies_every_step(case):
    sim = Simulation(seed=5)
    service = DepSpaceCoordination(sim, f=0)
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
    assert locks.held == {
        _lock(f): (f in case["held"]) + (f in case["wanted"])
        for f in sorted(case["held"] | case["wanted"])}
    locks.release_set(wanted)
    assert sorted(locks.held) == sorted(map(_lock, case["held"]))
    for file_id in FILES:
        holder = lock_holder(service, _lock(file_id))
        assert holder == (alice.session_id if file_id in case["held"] else None)


# ---- renamed files, re-entrant holds, releases due inside the command ----

_renamed = st.fixed_dictionaries({
    # Which files' entries were renamed since their creation (the lock keeps
    # the file id's name).
    "renamed": st.lists(st.booleans(), min_size=len(FILES), max_size=len(FILES)),
    "held": st.sets(st.sampled_from(FILES)),
    "pending": st.sets(st.sampled_from(FILES)),  # held ones whose release comes due
    "wanted": st.sets(st.sampled_from(FILES), min_size=1),
    "refused": st.booleans(),
})


class _Recorder:
    """The service's *applied* commands, in order, as step kinds."""

    def __init__(self, service) -> None:
        self.applied: list[set[str]] = []
        service.multi = self._wrap(service.multi)

    def _wrap(self, multi):
        def recorded(ops, session):
            answers = multi(ops, session)
            self.applied.append({type(op).__name__ for op in ops})
            return answers
        return recorded


@settings(max_examples=120, deadline=None)
@given(case=_renamed)
def test_riding_command_keeps_every_count_with_the_service(case):
    """No lock gained or lost, ``held`` agrees with ``lock_holder``, Gets after Locks.

    Every file's lock is named by its file id; some entries were then moved
    to another path.  Some held locks are a background commit's, whose
    release comes due while the riding command is out.
    """
    sim = Simulation(seed=5)
    service = DepSpaceCoordination(sim, f=0)
    alice = service.open_session(Principal(name="alice", canonical_ids=()))
    metas: dict[str, FileMetadata] = {}
    for name, renamed in zip(FILES, case["renamed"], strict=True):
        meta = FileMetadata(path=f"/d/{name}", file_type=FileType.FILE, owner="alice",
                            file_id=name)
        service.put(MetadataService.entry_key(meta.path), b"v1", alice)
        if renamed:
            meta = meta.renamed(f"/e/{name}")
            service.move(f"meta:/d/{name}", f"meta:/e/{name}", None, alice)
        metas[name] = meta

    locks = LockService(sim, service, alice)
    taken: set[str] = set()
    locks.on_transition = lambda kind, name: (taken.add if kind == "lock" else taken.discard)(name)
    held, pending, wanted = sorted(case["held"]), case["pending"] & case["held"], case["wanted"]
    locks.acquire_set([metas[name] for name in held])
    for name in sorted(pending):  # the acquisition a background commit holds
        sim.schedule(0.001, functools.partial(locks.release, metas[name]))
    victims = sorted(wanted - case["held"])
    refused = case["refused"] and bool(victims)
    if refused:
        LockService(sim, service, service.open_session(
            Principal(name="bob", canonical_ids=()))).acquire(metas[victims[0]])

    recorder = _Recorder(service)
    paths = [metas[name].path for name in sorted(wanted)]
    reread = functools.partial(_reread, service, alice, paths)
    if refused:
        with pytest.raises(LockHeldError):
            locks.acquire_set([metas[name] for name in sorted(wanted)], reread)
    else:
        locks.acquire_set([metas[name] for name in sorted(wanted)], reread)
    assert sim.step() is False  # every release came due inside the command

    for name in FILES:
        hold = (name in case["held"]) - (name in pending) + (name in wanted and not refused)
        lock = LockService.lock_name(metas[name])
        assert locks.held.get(lock, 0) == hold, name
        mine = lock_holder(service, lock) == alice.session_id
        assert mine == (hold > 0) == (lock in taken), name
    gets = [index for index, kinds in enumerate(recorder.applied) if "Get" in kinds]
    grants = [index for index, kinds in enumerate(recorder.applied) if "Lock" in kinds]
    if refused:
        assert not gets  # a refused Lock leaves every riding Get unexecuted
    elif gets and grants:
        assert max(grants) <= min(gets)


def _reread(service, session, paths, steps) -> None:
    service.multi([*steps, *(Get(MetadataService.entry_key(path)) for path in paths)], session)
