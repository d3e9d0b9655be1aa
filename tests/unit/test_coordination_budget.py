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

A lock rides in the metadata command it guards where that is before the
upload (PR 16): the insert of a create-open, the validation snapshot of a
transaction commit — which also carries the commit's ``pending`` intent, so
one command stands in front of a transaction's upload.  On one service that
is one command where there were two (three, for the commit).
A partitioned deployment still pays one command per partition, so there the
saving shows only for a file whose lock name and entry key hash to the same
partition — and the count never exceeds the one before the fold.  The lock of
a write-open of an existing file and the unlock of a dirty close stay
commands of their own (pinned below; CHANGES.md, PR 16, says why).

A refused insert says what is there (PR 17), so ``open(O_CREAT)`` sends the
insert *first* — no lookup before it — whenever nothing the agent holds says
the file exists, its parent is known locally to be a live directory and entry
and lock travel in one command: a create-open with a warm parent is one
command, a re-create over a tombstone two.  With a cold parent, or with lock
and entry on different partitions, the open looks first, as before.
"""

from __future__ import annotations

import pytest

from repro.common.errors import TransactionConflictError
from repro.common.types import Permission
from repro.core.deployment import SCFSDeployment
from repro.core.lock_service import LockService
from repro.core.metadata_service import MetadataService

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

    def partition(self, key: str) -> int:
        """Partition holding the lock or entry ``key`` (0 on a single service)."""
        coordination = self.deployment.coordination
        return coordination.partition_of(key) if self.listing > 1 else 0

    def rides(self, path: str) -> int:
        """1 when the lock of ``path`` shares a partition with its entry (always, on one service)."""
        lock = LockService.lock_name(self.fs.agent.metadata.get(path))
        return int(self.partition(lock) == self.partition(MetadataService.entry_key(path)))

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


def test_create_open_with_a_warm_parent_is_the_insert_alone(mount):
    rode = set()
    for index in range(8):  # enough for two partitions to show both layouts
        path = f"/top/new{index}"
        mount.cold()
        mount.fs.stat("/top")  # the VFS resolved the parent on the way here
        commands, accounted = mount.spent(mount.fs.open, path, "w", True)
        rode.add(mount.rides(path))
        # Together: {insert-if-absent, lock} sent first, 1 where it was 2.  Apart
        # the pair is not one command, so the open looks first: lookup miss,
        # lock, insert — 3 as before.
        assert (commands, accounted) == ((1, 1) if mount.rides(path) else (3, 2))
    assert rode == ({1} if mount.listing == 1 else {0, 1})


def test_create_open_with_a_cold_parent_looks_first(mount):
    """Asking for the parent before the insert would cost an *existing* file a read."""
    for index in range(8):
        path = f"/top/new{index}"
        mount.cold()
        commands, accounted = mount.spent(mount.fs.open, path, "w", True)
        # lookup miss, the parent, {insert-if-absent, lock}: 3 (apart 4), as before
        assert (commands, accounted) == (4 - mount.rides(path), 3)


def test_o_creat_open_of_an_existing_file_costs_what_a_write_open_does(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)

    def opened() -> None:
        mount.fs.close(mount.fs.open("/top/f", "a"))  # the clean close: the unlock alone

    mount.cold()
    mount.fs.stat("/top")  # cold entry, warm parent: the refused insert is the first look,
    assert mount.spent(opened) == (3 + 1, 2)  # then lock and re-read under it, as before
    mount.cold()  # cold entry, cold parent: lookup, lock, re-read
    assert mount.spent(opened) == (3 + 1, 2)
    mount.fs.stat("/top/f")  # warm entry: served by the cache, whatever the parent
    assert mount.spent(opened) == (2 + 1, 1)


def test_recreate_over_a_tombstone_is_the_refused_insert_and_the_replace(mount):
    rode = set()
    for index in range(8):
        path = f"/top/again{index}"
        mount.fs.write_file(path, b"old", shared=True)
        mount.fs.unlink(path)
        mount.cold()
        mount.fs.stat("/top")
        commands, accounted = mount.spent(mount.fs.open, path, "w", True)
        assert mount.fs.agent.metadata.get(path).size == 0
        rode.add(mount.rides(path))
        # Together: the refused {insert, lock} hands back the tombstone, {replace
        # at the version met, lock}: 2 where it was 4 (lookup, refused insert,
        # lookup_versioned, replace).  Apart the open looks first and each pair
        # is lock / put (/ hand-back): 1 + 3 + 2 where it was 1 + 3 + 1 + 2.
        assert (commands, accounted) == ((2, 2) if mount.rides(path) else (6, 3))
    assert rode == ({1} if mount.listing == 1 else {0, 1})


def test_mkdir_and_symlink_are_the_parent_check_and_the_insert(mount):
    """One parent read says both "exists" and "is a directory"."""
    for call, args in ((mount.fs.mkdir, ("/top/d", True)), (mount.fs.symlink, ("/top/d", "/top/l"))):
        mount.cold()
        assert mount.spent(call, *args) == (2, 2)
    assert mount.spent(mount.fs.mkdir, "/top/e", True) == (1, 1)  # warm parent


def test_blocking_dirty_close_is_update_and_unlock(mount):
    handle = mount.fs.open("/top/new", "w", True)
    mount.fs.write(handle, b"payload")
    assert mount.spent(mount.fs.close, handle) == (2, 1)


def test_write_open_of_an_existing_shared_file_is_lock_and_revalidation(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()  # first look, lock, authoritative re-read under the lock
    handle = None

    def opened() -> None:
        nonlocal handle
        handle = mount.fs.open("/top/f", "r+")

    assert mount.spent(opened) == (3, 2)
    assert mount.spent(mount.fs.close, handle) == (1, 0)  # clean: the unlock alone
    mount.fs.stat("/top/f")  # warm: the first look is served by the cache
    assert mount.spent(opened) == (2, 1)
    assert mount.spent(opened) == (1, 1)  # re-entrant hold: the re-read alone


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


def _read_and_rewrite(paths):
    def body(txn) -> None:
        for path in paths:
            txn.write(path, txn.read(path) + b"+")
    return body


def _commit_commands(mount, directory: str, count: int) -> tuple[int, int]:
    """Commands of one commit that reads and rewrites ``count`` files, and its count before the intent rode."""
    mount.make_files(directory, count)
    paths = [f"{directory}/f{index:03d}" for index in range(count)]
    txn = mount.fs.begin_transaction()
    _read_and_rewrite(paths)(txn)
    commands = mount.spent(txn.commit)[0]
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * count
    assert mount.fs.agent.transactions.intent_record(txn.txn_id)["status"] == "committed"
    # Lock set and its release: one command per partition the lock names fall
    # on; the validating reads: one (every entry lives under /top); the
    # pending intent; the commit point: the entries' partition and the intent's.
    locks = {mount.partition(LockService.lock_name(mount.fs.agent.metadata.get(path)))
             for path in paths}
    entries = mount.partition(MetadataService.entry_key(directory))
    intent = mount.partition("txn:" + txn.txn_id)
    before = len(locks) + 1 - (entries in locks) + 1 + len({entries, intent}) + len(locks)
    # The intent rides behind the reads: no command of its own where it shares
    # their partition; on another one it is that partition's command, as before.
    assert commands == before - (entries == intent)
    return commands, before


def test_transaction_commit_is_constant_in_the_size_of_its_sets(mount):
    """{Lock set + validating reads + pending intent}, {every version CAS + intent flip}, release.

    The read set already names the lock of every file and says everything the
    intent record does, so nothing is read before the locks are taken, the
    snapshot the reads are validated against is taken by the command that
    grants them, and the intent is written by it too.  On one service that is
    three commands for any number of files — one before the upload — where
    there were four; a partitioned deployment pays each of them once per
    partition its keys and lock names fall on — never more than before.
    """
    spent = [_commit_commands(mount, f"/top/t{count}", count) for count in (1, 3, 8)]
    if mount.listing == 1:
        assert spent == [(3, 4)] * 3
    else:
        assert all(commands <= before <= 4 * mount.listing for commands, before in spent)


def test_a_lock_refused_commit_attempt_writes_no_intent(mount):
    mount.make_files("/top/held", 3)
    paths = [f"/top/held/f{index:03d}" for index in range(3)]
    other = mount.deployment.create_agent("bob")
    for path in paths:
        mount.fs.setfacl(path, "bob", Permission.READ_WRITE)
    handle = other.open(paths[1], "r+")
    txn = mount.fs.begin_transaction()
    _read_and_rewrite(paths)(txn)
    entries = mount.fs.agent.coordination.entry_count()
    with pytest.raises(TransactionConflictError):
        txn.commit()
    other.close(handle)
    # The refused command was the attempt's only one per partition asked, and
    # it left nothing: no intent, no lock (the next commit takes them all).
    assert mount.fs.agent.transactions.intent_record(txn.txn_id) is None
    assert mount.fs.agent.coordination.entry_count() == entries
    mount.fs.run_transaction(_read_and_rewrite(paths))
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * 3


def test_a_failed_validation_flips_the_riding_intent_to_aborted(mount):
    mount.make_files("/top/stale", 2)
    paths = [f"/top/stale/f{index:03d}" for index in range(2)]
    txn = mount.fs.begin_transaction()
    _read_and_rewrite(paths)(txn)
    mount.fs.write_file(paths[0], b"newer", shared=True)
    with pytest.raises(TransactionConflictError, match="stale read"):
        txn.commit()
    record = mount.fs.agent.transactions.intent_record(txn.txn_id)
    assert record["status"] == "aborted" and [f[0] for f in record["files"]] == paths
    assert mount.fs.read_file(paths[1]) == b"x"


@pytest.mark.parametrize("count", [1, 3, 8])
def test_a_retry_attempt_reads_its_files_with_one_command(mount, count):
    """Attempt 2 knows the paths attempt 1 touched: one snapshot, not one read per file."""
    mount.make_files("/top/retry", count)
    paths = [f"/top/retry/f{index:03d}" for index in range(count)]
    reads: list[int] = []
    marks: list[int] = []

    def body(txn) -> None:
        before = mount.commands()
        for path in paths:
            txn.write(path, txn.read(path) + b"+")
        reads.append(mount.commands() - before)
        if len(reads) == 1:  # lose the first attempt: a newer version lands
            mount.fs.write_file(paths[0], b"y", shared=True)
            marks.append(mount.commands())

    mount.fs.run_transaction(body)
    since_interference = mount.commands() - marks[0]
    # Attempt 1 reads file by file; attempt 2's reads were all served by the
    # one command sent before its body ran.
    assert reads == [count, 0]
    assert mount.fs.read_file(paths[0]) == b"y+"
    assert all(mount.fs.read_file(path) == b"x+" for path in paths[1:])
    if mount.listing == 1:
        # The failed commit ({locks, snapshot, intent}, the intent's flip to
        # aborted, the release), the retry's snapshot, its 3-command commit.
        assert since_interference == 3 + 1 + 3


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
