"""A close changes only the fields it owns of its file's entry.

Bob holds a write grant and has ``/top/f`` open for writing; alice, the
owner, changes the entry before bob's close lands.  The close anchors its
version with one ``Update`` of the data fields, so the replicas keep what
alice did — her grants, her tombstone, her new incarnation of the path — and
refuse when the path no longer holds bob's file — a version no anchor holds
is not committed.  A ``setfacl`` is the same
step for the grants alone, so a cached snapshot cannot put an older version
back.  Each case runs with a blocking and a non-blocking close.
"""

from __future__ import annotations

import pytest

from repro.common.types import Permission
from repro.core.deployment import SCFSDeployment
from repro.scenarios.trace import TraceRecorder

MODES = ["SCFS-CoC-B", "SCFS-CoC-NB"]


class Share:
    """alice's ``/top/<name>`` holding ``b"v1"``; bob may write it, carol is mounted."""

    def __init__(self, variant: str, name: str = "f", **overrides):
        self.deployment = SCFSDeployment.for_variant(variant, seed=5, **overrides)
        self.alice = self.deployment.create_agent("alice")
        self.bob = self.deployment.create_agent("bob")
        self.carol = self.deployment.create_agent("carol")
        self.path = f"/top/{name}"
        self.alice.mkdir("/top", shared=True)
        self.alice.write_file(self.path, b"v1", shared=True)
        self.alice.setfacl(self.path, "bob", Permission.READ_WRITE)
        self.deployment.drain(2.0)

    def bob_writes(self) -> int:
        """bob opens the file for writing and writes ``b"bob's"`` (not closed yet)."""
        handle = self.bob.open(self.path, "r+")
        self.bob.write(handle, b"bob's", 0)
        return handle

    def bob_closes(self, handle: int) -> None:
        """bob's close, its background commit (if any) landed and every cache cold."""
        self.bob.close(handle)
        self.deployment.drain(3.0)
        for fs in (self.alice, self.bob, self.carol):
            fs.metadata_cache.clear()


@pytest.mark.parametrize("variant", MODES)
def test_a_grant_made_while_a_writer_has_the_file_open_survives_its_close(variant):
    share = Share(variant)
    handle = share.bob_writes()
    share.alice.setfacl(share.path, "carol", Permission.READ)
    share.bob_closes(handle)
    assert share.carol.read_file(share.path) == b"bob's"


@pytest.mark.parametrize("variant", MODES)
def test_an_unlink_made_while_a_writer_has_the_file_open_survives_its_close(variant):
    share = Share(variant)
    handle = share.bob_writes()
    share.alice.unlink(share.path)
    share.bob_closes(handle)
    assert not share.alice.exists(share.path)
    assert not share.bob.exists(share.path)


@pytest.mark.parametrize("variant", MODES)
def test_a_close_of_a_dead_incarnation_leaves_the_new_file_alone(variant):
    share = Share(variant)
    handle = share.bob_writes()
    trace = TraceRecorder()
    share.bob.events = trace.record
    dead = share.alice.stat(share.path).file_id
    share.alice.unlink(share.path)
    share.alice.write_file(share.path, b"new", shared=True)
    reborn = share.alice.stat(share.path).file_id
    share.bob_closes(handle)
    assert share.alice.stat(share.path).file_id == reborn
    assert share.alice.read_file(share.path) == b"new"
    # bob's version was uploaded, but the replicas refused its anchor: it
    # must not count as committed.
    assert [event.fields["file_id"] for event in trace.by_kind("upload")] == [dead]
    assert trace.count("commit") == 0


@pytest.mark.parametrize("variant", MODES)
def test_a_close_after_a_rename_leaves_no_ghost_under_the_old_path(variant):
    share = Share(variant, name="a")
    handle = share.bob_writes()
    share.alice.rename("/top/a", "/top/b")
    share.bob_closes(handle)
    bob = share.bob
    assert "meta:/top/a" not in bob.coordination.list_prefix("meta:/top/", bob.session)
    assert share.alice.readdir("/top") == ["b"]
    assert share.alice.read_file("/top/b") == b"v1"


@pytest.mark.parametrize("variant", MODES)
def test_a_setfacl_from_a_cached_snapshot_keeps_the_anchored_version(variant):
    # A blocking close outlasts the 0.5 s a stat is cached by default.
    share = Share(variant, metadata_expiration=5.0)
    handle = share.bob_writes()
    share.alice.stat(share.path)  # alice's snapshot: v1, cached
    share.bob.close(handle)
    share.bob.flush_pending(share.path)
    assert share.alice.metadata.lookup(share.path, remote=False).data_version == 1
    share.alice.setfacl(share.path, "carol", Permission.READ)
    share.deployment.drain(3.0)
    meta, _version = share.bob.metadata.lookup_versioned(share.path)
    assert meta.data_version == 2
    assert share.carol.read_file(share.path) == b"bob's"
