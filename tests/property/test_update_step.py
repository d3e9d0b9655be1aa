"""Property: an ``Update`` sets exactly the fields it names, or changes nothing.

Hypothesis draws a stored file tuple, the fields an ``Update`` names and the
values it sends, and one of the ways the step can be refused — the entry is
absent, it names another file, its ``expected_version`` is stale, or the
caller may not WRITE it (with or without READ) — and asserts against a
4-replica DepSpace:

* accepted, ``FileMetadata.from_bytes`` of what every replica stores is the
  old tuple with exactly the named fields replaced, the entry version grew by
  one, and the reply is that entry;
* refused, every replica is untouched and ``ConflictError.found`` carries the
  entry exactly when the caller may READ it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConflictError
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Entry, Get, Update
from repro.coordination.entries import Holder
from repro.core.metadata import DATA_FIELDS, FileMetadata, FileType
from repro.simenv.environment import Simulation

KEY = "meta:/d/f"
#: Field names an ``Update`` may carry (``file_id`` is what it is checked by).
NAMES = (*DATA_FIELDS, "grants", "deleted", "owner", "created_at")

_text = st.text("abcdef0123456789", max_size=12)
_grants = st.dictionaries(st.sampled_from(("bob", "carol", "*")),
                          st.sampled_from((Permission.READ, Permission.READ_WRITE)), max_size=3)
_tuple = st.builds(
    FileMetadata, path=st.just("/d/f"), file_type=st.sampled_from(FileType),
    owner=st.sampled_from(("alice", "bob")), size=st.integers(0, 1 << 20),
    created_at=st.floats(0, 1e6), modified_at=st.floats(0, 1e6), file_id=st.just("file-1"),
    digest=_text, data_version=st.integers(0, 50), grants=_grants,
    deleted=st.booleans(), locator=_text)

_case = st.fixed_dictionaries({
    "old": _tuple,
    "new": _tuple,
    "names": st.sets(st.sampled_from(NAMES)),
    "updates_before": st.integers(0, 2),  # empty Updates: each bumps the entry version
    "expected": st.sampled_from(("none", "current", "stale")),
    "file_id": st.sampled_from(("same", "other")),
    "absent": st.booleans(),
    "caller": st.sampled_from(("alice", "bob-rw", "bob-read", "bob-none")),
})


def _replaced(old: FileMetadata, new: FileMetadata, names) -> FileMetadata:
    return dataclasses.replace(old, **{name: getattr(new, name) for name in names})


@settings(max_examples=200, deadline=None)
@given(case=_case)
def test_an_update_sets_exactly_its_fields_or_leaves_every_replica_alone(case):
    sim = Simulation(seed=5)
    service = DepSpaceCoordination(sim, f=1)
    alice = service.open_session(Principal(name="alice", canonical_ids=()))
    bob = service.open_session(Principal(name="bob", canonical_ids=()))
    old, new, names = case["old"], case["new"], sorted(case["names"])
    if not case["absent"]:
        service.put(KEY, old.to_bytes(), alice)
        for _ in range(case["updates_before"]):
            service.multi([Update(KEY, old.file_id, {})], alice)
        grant = {"bob-rw": Permission.READ_WRITE, "bob-read": Permission.READ}.get(case["caller"])
        if grant is not None:
            service.set_entry_acl(KEY, "bob", grant, alice)
    state = service.state
    before = dict(state._entries)
    stored = before.get(KEY)
    version = stored.version if stored is not None else 0
    caller = alice if case["caller"] == "alice" else bob
    expected = {"none": None, "current": version, "stale": version + 1}[case["expected"]]
    file_id = old.file_id if case["file_id"] == "same" else "file-2"
    step = Update(KEY, file_id, new.fields(names), expected)

    refused = (stored is None or file_id != old.file_id or expected == version + 1
               or case["caller"] in ("bob-read", "bob-none"))
    if refused:
        with pytest.raises(ConflictError) as refusal:
            service.multi([step], caller)
        assert state._entries == before
        readable = stored is not None and case["caller"] in ("alice", "bob-rw", "bob-read")
        assert refusal.value.found == (
            Entry(KEY, stored.value, stored.version, stored.acl) if readable else None)
        return
    reply = service.multi([step], caller)[0]
    entry, = state.entry_multi([Get(KEY)], "alice", sim.now(), Holder("s", 1.0))
    assert entry == reply
    assert FileMetadata.from_bytes(entry.value) == _replaced(old, new, names)
    assert (entry.version, entry.acl) == (version + 1, stored.acl)
    assert state._entries[KEY].acl.owner == "alice"
