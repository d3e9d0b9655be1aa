"""Property: mounts racing ``open(path, "w"/"a")`` on one new path create it exactly once.

``open(O_CREAT)`` sends the insert-if-absent first where it can and looks
first where it cannot; either way the insert is the existence check, and a
refusal says what is there.  Hypothesis draws two or three mounts of one
user, for each its mode, whether the parent directory is in its metadata cache (insert
first) or not (look first), whether it writes, and —
the race — before which replicated command of the calls already under way each
later mount's whole ``open … close`` runs: an interleaving at the command
level, between a lookup and the insert it licensed, between an update and its
unlock.
Afterwards

* exactly one ``open`` event says ``created``, every other successful open
  opened that very file, and an open that failed failed with ``LockHeldError``
  — never ``FileExistsErrorFS``: losing the race to create is not an error of
  ``open(O_CREAT)``;
* once every handle is closed ``LockService.held`` is empty on every mount
  and the coordination service shows no holder for any lock a mount took.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.common.errors import LockHeldError
from repro.core.deployment import SCFSDeployment

from conftest import expire_metadata, lock_holder

PATH = "/d/contended"

_mount = st.fixed_dictionaries({
    "mode": st.sampled_from(("w", "a")),
    "parent_cached": st.booleans(),
    "writes": st.booleans(),
})
_case = st.fixed_dictionaries({
    "mounts": st.lists(_mount, min_size=2, max_size=3),
    # The replicated command (counted from the first open) each later mount cuts in before.
    "cuts": st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
})


@settings(max_examples=120, deadline=None)
@given(case=_case)
def test_racing_creators_create_once_and_leave_no_lock(case):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3)
    events: list[dict] = []
    mounts = [deployment.create_agent("alice", events=lambda kind, **fields: events.append(
        {"kind": kind, **fields})) for _ in case["mounts"]]
    mounts[0].mkdir("/d", shared=True)
    outcomes: list[str] = []

    def run(index: int) -> None:
        fs, drawn = mounts[index], case["mounts"][index]
        expire_metadata(fs)
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
    rsm = deployment.coordination.rsm

    def invoke(*args, _invoke=rsm.invoke, **kwargs):
        cutting_in = waiting.pop(next(sent), None)
        if cutting_in is not None:
            run(cutting_in)
        return _invoke(*args, **kwargs)

    rsm.invoke = invoke
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
    assert all(fs.locks.held == {} and fs._handles == {}
               for fs in mounts)
    taken = sorted({event["lock"] for event in events if event["kind"] == "lock"})
    assert f"filelock:{opens[0]['file_id']}" in taken
    assert [name for name in taken if lock_holder(deployment.coordination, name) is not None] == []
