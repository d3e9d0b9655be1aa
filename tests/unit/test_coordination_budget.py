"""Coordination round trips per system call (the §4.2 budget).

Every coordination access costs the user 60-100 ms, so the number of
replicated commands a system call issues *is* its metadata latency.  These
tests pin that number — counted at ``ReplicatedStateMachine.commands_executed``,
below every adapter — for the two services and for a 2-partition deployment,
and check that the metadata service's own ``coordination_reads`` /
``coordination_writes`` counters (what ``bench/costs.py`` prices as "accesses
per op") agree with it.

A prefix listing fans out to every partition, so a call that lists costs
``partitions`` commands for it; every other intent is exactly one.
"""

from __future__ import annotations

import pytest

from repro.core.deployment import SCFSDeployment

KINDS = {
    "depspace": {"coordination_kind": "depspace"},
    "zookeeper": {"coordination_kind": "zookeeper"},
    "partitioned": {"coordination_partitions": 2},
}


class Mount:
    """One blocking-mode mount plus the two meters the budgets compare."""

    def __init__(self, kind: str):
        self.deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=5, **KINDS[kind])
        self.fs = self.deployment.create_agent("alice")
        coordination = self.deployment.coordination
        self.services = getattr(coordination, "services", [coordination])
        #: Commands one prefix listing costs (it fans out to every partition).
        self.listing = len(self.services)
        # Everything lives under one top-level directory: one partition.
        self.fs.mkdir("/top", shared=True)

    def commands(self) -> int:
        return sum(service.rsm.commands_executed for service in self.services)

    def accounted(self) -> int:
        metadata = self.fs.agent.metadata
        return metadata.coordination_reads + metadata.coordination_writes

    def cold(self) -> None:
        """Expire the metadata cache (what a pause of >500 ms does)."""
        self.fs.agent.metadata_cache.clear()

    def spent(self, call, *args) -> tuple[int, int]:
        """``(replicated commands, accesses the metadata service accounted)`` of one call."""
        commands, accounted = self.commands(), self.accounted()
        call(*args)
        return self.commands() - commands, self.accounted() - accounted

    def make_files(self, directory: str, count: int) -> None:
        self.fs.mkdir(directory, shared=True)
        for index in range(count):
            self.fs.write_file(f"{directory}/f{index:03d}", b"x", shared=True)


@pytest.fixture(params=sorted(KINDS))
def mount(request) -> Mount:
    return Mount(request.param)


def test_stat_and_exists_cost_one_command_cold_and_none_warm(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    for call, path in ((mount.fs.stat, "/top/f"), (mount.fs.exists, "/top/f"),
                       (mount.fs.exists, "/top/missing")):
        mount.cold()
        assert mount.spent(call, path) == (1, 1)
    mount.fs.stat("/top/f")
    assert mount.spent(mount.fs.stat, "/top/f") == (0, 0)
    assert mount.spent(mount.fs.exists, "/top/f") == (0, 0)


def test_create_open_is_lookup_insert_lock(mount):
    mount.cold()
    mount.fs.stat("/top")  # the VFS resolved the parent on the way here
    commands, accounted = mount.spent(mount.fs.open, "/top/new", "w", True)
    assert (commands, accounted) == (3, 2)  # the lock is the lock service's


def test_blocking_dirty_close_is_update_and_unlock(mount):
    handle = mount.fs.open("/top/new", "w", True)
    mount.fs.write(handle, b"payload")
    assert mount.spent(mount.fs.close, handle) == (2, 1)


def test_unlink_is_lookup_and_tombstone(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    assert mount.spent(mount.fs.unlink, "/top/f") == (2, 2)


def test_file_rename_is_lookup_and_one_move(mount):
    mount.make_files("/top/other", 0)
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    assert mount.spent(mount.fs.rename, "/top/f", "/top/g") == (2, 2)
    mount.cold()  # into another directory: its existence is one more lookup
    assert mount.spent(mount.fs.rename, "/top/g", "/top/other/g") == (3, 3)
    assert mount.fs.read_file("/top/other/g") == b"data"


@pytest.mark.parametrize("children", [1, 10, 100])
def test_readdir_does_not_depend_on_the_child_count(mount, children):
    mount.make_files("/top/d", children)
    mount.cold()
    commands, accounted = mount.spent(mount.fs.readdir, "/top/d")
    assert commands == 1 + mount.listing  # the directory's own lookup, one listing
    assert accounted == 2
    assert len(mount.fs.readdir("/top/d")) == children
    mount.fs.stat("/top/d")
    assert mount.spent(mount.fs.readdir, "/top/d")[0] == mount.listing <= 2


@pytest.mark.parametrize("descendants", [0, 3, 12])
def test_directory_rename_is_one_move_per_descendant(mount, descendants):
    mount.make_files("/top/d", descendants)
    mount.cold()
    commands, accounted = mount.spent(mount.fs.rename, "/top/d", "/top/e")
    # lookup, move of the directory entry, one listing, one move per descendant
    assert commands == descendants + 2 + mount.listing
    assert accounted == descendants + 3
    assert len(mount.fs.readdir("/top/e")) == descendants
    assert not mount.fs.exists("/top/d")


def test_conditional_puts_cost_one_command_each(mount):
    """The transaction manager's intent writes and per-file version CAS."""
    agent = mount.fs.agent
    mount.fs.write_file("/top/f", b"data", shared=True)

    def intent(expected_version):
        agent.coordination.put("txn:probe", b"{}", agent.session,
                               expected_version=expected_version)

    assert mount.spent(intent, None)[0] == 1
    assert mount.spent(intent, 1)[0] == 1
    meta, version = agent.metadata.lookup_versioned("/top/f")
    assert mount.spent(agent.metadata.update_cas, meta, version) == (1, 1)


def _commit_commands(mount, directory: str, count: int) -> int:
    """Replicated commands of one commit that reads and rewrites ``count`` files."""
    mount.make_files(directory, count)
    paths = [f"{directory}/f{index:03d}" for index in range(count)]
    txn = mount.fs.begin_transaction()
    for path in paths:
        txn.write(path, txn.read(path) + b"+")
    commands = mount.spent(txn.commit)[0]
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * count
    return commands


def test_transaction_commit_is_constant_in_the_size_of_its_sets(mount):
    """Lock set, validating reads, intent, {every version CAS + intent flip}, release.

    The read set already names the lock of every file, so nothing is read
    before the locks are taken.  On one service that is five commands for any
    number of files; a partitioned deployment pays each of them once per
    partition its keys and lock names fall on.
    """
    spent = [_commit_commands(mount, f"/top/t{count}", count) for count in (1, 3, 8)]
    if mount.listing == 1:
        assert spent == [5, 5, 5]
    else:
        assert max(spent) <= 5 * mount.listing


def test_rename_tree_locks_its_files_in_two_commands_whatever_their_number(mount):
    def commands(directory: str, files: int) -> int:
        mount.make_files(directory, files)
        mount.cold()
        spent = mount.spent(mount.fs.rename_tree, directory, directory + "-moved")[0]
        assert len(mount.fs.readdir(directory + "-moved")) == files
        return spent

    grown = commands("/top/many", 9) - commands("/top/few", 2)
    # One conditional move per extra file; taking and returning the lock set is
    # one command each (per partition the lock names fall on), not one per file.
    assert 7 <= grown <= 7 + 2 * (mount.listing - 1)
