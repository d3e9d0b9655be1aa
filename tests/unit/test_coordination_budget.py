"""Coordination round trips per system call (the §4.2 budget).

Every coordination access costs the user 60-100 ms, so the number of
replicated commands a system call issues *is* its metadata latency.  These
tests pin that number — counted at ``ReplicatedStateMachine.commands_executed``,
below every adapter — for one service, for SCFS-AWS's unreplicated one (f=0,
one VM) and for a 2-partition deployment, which is also what
``bench/costs.py`` prices as "accesses per op".

A prefix listing fans out to every partition, so a call that lists costs
``partitions`` commands for it; every other intent is exactly one.  Commands
to several partitions that need not wait for one another — a listing's, an
unmount's session close, a release of locks living on several partitions —
go out together: one round trip, the slowest partition's.

A mount is one command: the user's canonical ids, created readable by every
user.  An unmount is one command per partition: the session's close, which
returns every lock the session holds there.

A lock rides in the metadata command it guards: the insert of a create-open,
the re-read under the lock of a write-open of an existing file, the validation
snapshot of a transaction commit — which also carries the commit's ``pending``
intent, so one command stands in front of a transaction's upload.  On one
service that is one command where there were two (three, for the commit).
Only the unlock of a dirty close stays a command of its own: it comes after
the upload (pinned below; CHANGES.md, PR 16, says why).

A partitioned deployment pays one command per partition, so a lock rides only
where it shares a partition with the entry.  A file's id names the partition
of the entry it was created under (``CoordinationService.lock_home``), and its
lock lives there for the file's whole life: every new file's lock rides.  A
rename to another partition leaves the lock at home; there lock and re-read
are two commands, as they were before the fold, and never more.

A refused insert says what is there (PR 17), so ``open(O_CREAT)`` sends the
insert *first* — no lookup before it — whenever nothing the agent holds says
the file exists, its parent is known locally to be a live directory and its
entry goes to the coordination service: a create-open with a warm parent is
one command, a re-create over a tombstone two.  With a cold parent the open
looks first.

``BUDGETS`` holds every pinned number once, for one service; the tests assert
against it, and README's round-trip table must list exactly its rows.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from repro.common.errors import ConflictError, TransactionConflictError, TupleNotFoundError
from repro.common.types import Permission, Principal
from repro.coordination import PartitionedCoordination
from repro.coordination.adapters import DepSpaceCoordination
from repro.core.deployment import SCFSDeployment
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType
from repro.core.metadata_service import MetadataService
from repro.transactions import TXN_PREFIX

#: Coordination layouts: the Table 2 backend each runs on and its config overrides.
#: On SCFS-AWS the one service is unreplicated (f=0, one VM); the budgets count
#: commands, not replicas, so they are the same there.
KINDS = {
    "depspace": ("CoC", {}),
    "partitioned": ("CoC", {"coordination_partitions": 2}),
    "single-vm": ("AWS", {}),
}

#: Replicated commands per call on one service (README's round-trip table).  A
#: row's numbers are its cases in order, e.g. cold · warm.
BUDGETS: dict[str, tuple[int, ...]] = {
    "`stat` / `exists`, cold · warm": (1, 0),
    "`open(O_CREAT)` of a new shared file, parent warm · cold": (1, 3),
    "`open(O_CREAT)` over a tombstone (re-create), parent warm": (2,),
    "`open(O_CREAT)` of an existing shared file, cold · warm": (2, 1),
    "`open` for writing of an existing shared file, cold · warm · re-entrant": (2, 1, 1),
    "`close`, clean, of a file open for writing (the unlock)": (1,),
    "`close`, dirty, blocking": (2,),
    "background commit of a non-blocking dirty `close`": (2,),
    "a refused `Update`": (1,),
    "`mkdir`, parent cold · warm": (2, 1),
    "`unlink`, cold": (2,),
    "`rename` of a file, same directory · other directory, cold": (2, 3),
    "`readdir`, cold · warm, any number of children": (2, 1),
    "`rename` of a directory with N descendants, cold (+ N)": (3,),
    "commit of a transaction, any number of files": (3,),
    "`setfacl` of a shared file, warm": (2,),
    "mount": (1,),
}


def _intent(fs, txn_id):
    """The intent entry ``txn:<id>`` as the coordination service holds it (None: absent)."""
    try:
        entry = fs.coordination.get(TXN_PREFIX + txn_id, fs.session)
    except TupleNotFoundError:
        return None
    return json.loads(entry.value)


class Mount:
    """One mount plus the two meters the budgets compare."""

    def __init__(self, kind: str, close: str = "B"):
        backend, overrides = KINDS[kind]
        self.deployment = SCFSDeployment.for_variant(f"SCFS-{backend}-{close}", seed=5,
                                                     **overrides)
        self.fs = self.deployment.create_agent("alice")
        coordination = self.deployment.coordination
        self.services = getattr(coordination, "services", [coordination])
        #: Commands one prefix listing costs (it fans out to every partition).
        self.listing = len(self.services)
        # Everything lives under one top-level directory: one partition.
        self.fs.mkdir("/top", shared=True)

    def commands(self) -> int:
        return sum(service.rsm.commands_executed for service in self.services)

    def partition(self, key: str) -> int:
        """Partition holding the entry ``key`` (0 on a single service)."""
        coordination = self.deployment.coordination
        return coordination.partition_of(key) if self.listing > 1 else 0

    def lock_partition(self, path: str) -> int:
        """Partition holding the lock of ``path`` (0 on a single service)."""
        lock = LockService.lock_name(self.fs.metadata.get(path))
        coordination = self.deployment.coordination
        return coordination.lock_partition(lock) if self.listing > 1 else 0

    def rides(self, path: str) -> int:
        """1 when the lock of ``path`` shares a partition with its entry (always, on one service)."""
        return int(self.lock_partition(path) == self.partition(MetadataService.entry_key(path)))

    def cold(self) -> None:
        """Expire the metadata cache (what a pause of >500 ms does)."""
        self.fs.metadata_cache.clear()

    def spent(self, call, *args) -> int:
        """Replicated commands of one call."""
        commands = self.commands()
        call(*args)
        return self.commands() - commands

    def make_files(self, directory: str, count: int) -> None:
        self.fs.mkdir(directory, shared=True)
        for index in range(count):
            self.fs.write_file(f"{directory}/f{index:03d}", b"x", shared=True)


@pytest.fixture(params=sorted(KINDS))
def mount(request) -> Mount:
    return Mount(request.param)


def test_stat_and_exists_cost_one_command_cold_and_none_warm(mount):
    cold, warm = BUDGETS["`stat` / `exists`, cold · warm"]
    mount.fs.write_file("/top/f", b"data", shared=True)
    for call, path in ((mount.fs.stat, "/top/f"), (mount.fs.exists, "/top/f"),
                       (mount.fs.exists, "/top/missing")):
        mount.cold()
        assert mount.spent(call, path) == cold
    mount.fs.stat("/top/f")
    assert mount.spent(mount.fs.stat, "/top/f") == warm
    assert mount.spent(mount.fs.exists, "/top/f") == warm


def test_create_open_with_a_warm_parent_is_the_insert_alone(mount):
    for index in range(8):  # ids that hashed to two partitions, all placed at home
        path = f"/top/new{index}"
        mount.cold()
        mount.fs.stat("/top")  # the VFS resolved the parent on the way here
        # {insert-if-absent, lock} sent first, 1 where it was 2: the new id
        # places the lock on the entry's partition.
        warm = BUDGETS["`open(O_CREAT)` of a new shared file, parent warm · cold"][0]
        assert mount.spent(mount.fs.open, path, "w", True) == warm
        assert mount.rides(path)


def test_create_open_with_a_cold_parent_looks_first(mount):
    """Asking for the parent before the insert would cost an *existing* file a read."""
    for index in range(8):
        path = f"/top/new{index}"
        mount.cold()
        # lookup miss, the parent, {insert-if-absent, lock}
        cold = BUDGETS["`open(O_CREAT)` of a new shared file, parent warm · cold"][1]
        assert mount.spent(mount.fs.open, path, "w", True) == cold


def test_o_creat_open_of_an_existing_file_costs_what_a_write_open_does(mount):
    cold, warm = BUDGETS["`open(O_CREAT)` of an existing shared file, cold · warm"]
    (unlock,) = BUDGETS["`close`, clean, of a file open for writing (the unlock)"]
    mount.fs.write_file("/top/f", b"data", shared=True)

    def opened() -> None:
        mount.fs.close(mount.fs.open("/top/f", "a"))  # the clean close: the unlock alone

    mount.cold()
    mount.fs.stat("/top")  # cold entry, warm parent: the refused insert is the first look,
    assert mount.spent(opened) == cold + unlock  # then {lock, re-read under it}
    mount.cold()  # cold entry, cold parent: lookup, {lock, re-read}
    assert mount.spent(opened) == cold + unlock
    mount.fs.stat("/top/f")  # warm entry: served by the cache, whatever the parent
    assert mount.spent(opened) == warm + unlock


def test_recreate_over_a_tombstone_is_the_refused_insert_and_the_replace(mount):
    for index in range(8):
        path = f"/top/again{index}"
        mount.fs.write_file(path, b"old", shared=True)
        mount.fs.unlink(path)
        mount.cold()
        mount.fs.stat("/top")
        # The refused {insert, lock} hands back the tombstone, {replace at the
        # version met, lock}: 2 where it was 4 (lookup, refused insert,
        # lookup_versioned, replace).
        (replace,) = BUDGETS["`open(O_CREAT)` over a tombstone (re-create), parent warm"]
        assert mount.spent(mount.fs.open, path, "w", True) == replace
        assert mount.fs.metadata.get(path).size == 0
        assert mount.rides(path)


def test_mkdir_is_the_parent_check_and_the_insert(mount):
    """One parent read says both "exists" and "is a directory"."""
    cold, warm = BUDGETS["`mkdir`, parent cold · warm"]
    mount.cold()
    assert mount.spent(mount.fs.mkdir, "/top/d", True) == cold
    assert mount.spent(mount.fs.mkdir, "/top/e", True) == warm


def test_blocking_dirty_close_is_update_and_unlock(mount):
    handle = mount.fs.open("/top/new", "w", True)
    mount.fs.write(handle, b"payload")
    (dirty_close,) = BUDGETS["`close`, dirty, blocking"]
    assert mount.spent(mount.fs.close, handle) == dirty_close


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_background_commit_is_update_and_unlock(kind):
    """The non-blocking close's commit: {Update of the data fields}, unlock — 2 where it was 3.

    The merge of what landed since the close is the replicas' (the grants and
    the deleted flag an ``Update`` keeps), so the commit reads nothing first.
    """
    mount = Mount(kind, "NB")
    handle = mount.fs.open("/top/new", "w", True)
    mount.fs.write(handle, b"payload")
    assert mount.spent(mount.fs.close, handle) == 0
    assert len(mount.fs._pending_commits) == 1
    (commit,) = BUDGETS["background commit of a non-blocking dirty `close`"]
    assert mount.spent(mount.fs.flush_pending, "/top/new") == commit
    assert not mount.fs._pending_commits


def test_a_refused_update_costs_its_one_command(mount):
    agent = mount.fs
    mount.fs.write_file("/top/f", b"data", shared=True)
    meta, version = agent.metadata.lookup_versioned("/top/f")
    agent.metadata.update_cas(meta, version)

    def refused() -> None:
        with pytest.raises(ConflictError):
            agent.metadata.update_cas(meta, version)  # the entry moved on

    (cost,) = BUDGETS["a refused `Update`"]
    assert mount.spent(refused) == cost


def test_setfacl_of_a_shared_file_is_an_update_of_the_grants_and_the_entry_acl(mount):
    mount.deployment.create_agent("bob")
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.fs.setfacl("/top/f", "bob", Permission.READ)  # bob's canonical ids are known from here
    mount.fs.stat("/top/f")
    (cost,) = BUDGETS["`setfacl` of a shared file, warm"]
    assert mount.spent(mount.fs.setfacl, "/top/f", "bob", Permission.READ_WRITE) == cost


def _write_open_budget(mount, path: str, apart: int) -> None:
    """Cold, clean close, warm, re-entrant: what a write-open of ``path`` costs."""
    handle = None

    def opened() -> None:
        nonlocal handle
        handle = mount.fs.open(path, "r+")

    cold, warm, reentrant = BUDGETS[
        "`open` for writing of an existing shared file, cold · warm · re-entrant"]
    (unlock,) = BUDGETS["`close`, clean, of a file open for writing (the unlock)"]
    mount.cold()  # first look, then {lock, authoritative re-read under the lock}
    assert mount.spent(opened) == cold + apart
    assert mount.spent(mount.fs.close, handle) == unlock  # clean: the unlock alone
    mount.fs.stat(path)  # warm: the first look is served by the cache
    assert mount.spent(opened) == warm + apart
    assert mount.spent(opened) == reentrant  # re-entrant hold: the re-read alone


def test_write_open_of_an_existing_shared_file_is_lock_and_revalidation(mount):
    """The lock rides with the re-read: 2 cold, 1 warm where it was 3 and 2."""
    mount.fs.write_file("/top/f", b"data", shared=True)
    assert mount.rides("/top/f")
    _write_open_budget(mount, "/top/f", apart=0)


def test_a_lock_left_at_home_by_a_rename_costs_what_it_did(mount):
    """A rename to another partition leaves the lock on the entry's old one.

    Lock and re-read are then one command each — 3 cold, 2 warm, what every
    write-open cost before the lock rode with the re-read — and never more.
    On one service nothing can be apart.
    """
    mount.fs.write_file("/top/f", b"data", shared=True)
    away = next(f"/away{index}" for index in range(64)
                if mount.listing == 1 or mount.partition(f"meta:/away{index}")
                != mount.partition("meta:/top"))
    mount.fs.mkdir(away, shared=True)
    mount.fs.rename("/top/f", f"{away}/f")
    apart = 1 - mount.rides(f"{away}/f")
    assert apart == (mount.listing > 1)
    _write_open_budget(mount, f"{away}/f", apart)


def test_unlink_is_lookup_and_tombstone(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    (cost,) = BUDGETS["`unlink`, cold"]
    assert mount.spent(mount.fs.unlink, "/top/f") == cost


def test_file_rename_is_lookup_and_one_move(mount):
    same, other = BUDGETS["`rename` of a file, same directory · other directory, cold"]
    mount.make_files("/top/other", 0)
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    assert mount.spent(mount.fs.rename, "/top/f", "/top/g") == same
    mount.cold()  # into another directory: its existence is one more lookup
    assert mount.spent(mount.fs.rename, "/top/g", "/top/other/g") == other
    assert mount.fs.read_file("/top/other/g") == b"data"


@pytest.mark.parametrize("children", [1, 10, 100])
def test_readdir_does_not_depend_on_the_child_count(mount, children):
    # The directory's own lookup (cold only), one listing: one command per partition.
    cold, warm = BUDGETS["`readdir`, cold · warm, any number of children"]
    mount.make_files("/top/d", children)
    mount.cold()
    assert mount.spent(mount.fs.readdir, "/top/d") == cold - 1 + mount.listing
    assert len(mount.fs.readdir("/top/d")) == children
    mount.fs.stat("/top/d")
    assert mount.spent(mount.fs.readdir, "/top/d") == warm - 1 + mount.listing <= 2


@pytest.mark.parametrize("descendants", [0, 3, 12])
def test_directory_rename_is_one_move_per_descendant(mount, descendants):
    (base,) = BUDGETS["`rename` of a directory with N descendants, cold (+ N)"]
    mount.make_files("/top/d", descendants)
    mount.cold()
    # lookup, move of the directory entry, one listing, one move per descendant
    assert mount.spent(mount.fs.rename, "/top/d", "/top/e") == descendants + base - 1 + mount.listing
    assert len(mount.fs.readdir("/top/e")) == descendants
    assert not mount.fs.exists("/top/d")


def test_conditional_puts_cost_one_command_each(mount):
    """The transaction manager's intent writes and the one-entry ``Update`` CAS."""
    agent = mount.fs
    mount.fs.write_file("/top/f", b"data", shared=True)

    def intent(expected_version):
        agent.coordination.put("txn:probe", b"{}", agent.session,
                               expected_version=expected_version)

    assert mount.spent(intent, None) == 1
    assert mount.spent(intent, 1) == 1
    meta, version = agent.metadata.lookup_versioned("/top/f")
    assert mount.spent(agent.metadata.update_cas, meta, version) == 1
    assert agent.metadata.lookup_versioned("/top/f")[1] == version + 1


def _read_and_rewrite(paths):
    def body(txn) -> None:
        for path in paths:
            txn.write(path, txn.read(path) + b"+")
    return body


def _commit_commands(mount, directory: str, count: int) -> tuple[int, int]:
    """Commands of one commit that reads and rewrites ``count`` files, and its count before the intent rode."""
    mount.make_files(directory, count)
    paths = [f"{directory}/f{index:03d}" for index in range(count)]
    txn = mount.fs.transactions.begin()
    _read_and_rewrite(paths)(txn)
    commands = mount.spent(txn.commit)
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * count
    assert _intent(mount.fs, txn.txn_id)["status"] == "committed"
    # Lock set and its release: one command per partition the lock names fall
    # on; the validating reads: one (every entry lives under /top); the
    # pending intent; the commit point: the entries' partition and the intent's.
    locks = {mount.lock_partition(path) for path in paths}
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
        (commit,) = BUDGETS["commit of a transaction, any number of files"]
        assert spent == [(commit, commit + 1)] * 3
    else:
        assert all(commands <= before <= 4 * mount.listing for commands, before in spent)


def test_a_lock_refused_commit_attempt_writes_no_intent(mount):
    mount.make_files("/top/held", 3)
    paths = [f"/top/held/f{index:03d}" for index in range(3)]
    other = mount.deployment.create_agent("bob")
    for path in paths:
        mount.fs.setfacl(path, "bob", Permission.READ_WRITE)
    handle = other.open(paths[1], "r+")
    txn = mount.fs.transactions.begin()
    _read_and_rewrite(paths)(txn)
    entries = mount.fs.coordination.entry_count()
    with pytest.raises(TransactionConflictError):
        txn.commit()
    other.close(handle)
    # The refused command was the attempt's only one per partition asked, and
    # it left nothing: no intent, no lock (the next commit takes them all).
    assert _intent(mount.fs, txn.txn_id) is None
    assert mount.fs.coordination.entry_count() == entries
    mount.fs.run_transaction(_read_and_rewrite(paths))
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * 3


def test_a_failed_validation_flips_the_riding_intent_to_aborted(mount):
    mount.make_files("/top/stale", 2)
    paths = [f"/top/stale/f{index:03d}" for index in range(2)]
    txn = mount.fs.transactions.begin()
    _read_and_rewrite(paths)(txn)
    mount.fs.write_file(paths[0], b"newer", shared=True)
    with pytest.raises(TransactionConflictError, match="stale read"):
        txn.commit()
    record = _intent(mount.fs, txn.txn_id)
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
        spent = mount.spent(mount.fs.rename_tree, directory, directory + "-moved")
        assert len(mount.fs.readdir(directory + "-moved")) == files
        return spent

    grown = commands("/top/many", 9) - commands("/top/few", 2)
    # One conditional move per extra file; taking and returning the lock set is
    # one command each (per partition the lock names fall on), not one per file.
    assert 7 <= grown <= 7 + 2 * (mount.listing - 1)


def _draws(state, services) -> list[float]:
    """The latency one command to each of ``services`` draws, in order, from RNG ``state``."""
    rng = random.Random()
    rng.setstate(state)
    return [service.rsm.latency.sample(0, rng) for service in services]


def test_a_mount_is_one_command_and_registers_a_user_every_user_may_read(mount):
    """The registry entry is created with its grant: 1 command where it was 2 (put, set ACL)."""
    (cost,) = BUDGETS["mount"]
    assert mount.spent(mount.deployment.create_agent, "bob") == cost
    assert mount.spent(mount.deployment.create_agent, "bob") == cost  # a refresh keeps the ACL
    carol = mount.deployment.create_agent("carol")
    bob = mount.deployment.agent_for("bob")
    assert carol.users.lookup("bob").canonical_ids == bob.principal.canonical_ids


def test_an_unmount_closes_every_partition_in_one_round_trip():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=5, coordination_partitions=4)
    fs = deployment.create_agent("alice")
    services = deployment.coordination.services
    commands = sum(service.rsm.commands_executed for service in services)
    state, start = deployment.sim.rng.getstate(), deployment.sim.now()
    fs.unmount()
    assert sum(service.rsm.commands_executed for service in services) - commands == 4
    # Charged the slowest close (<= 0.095 s x 1.2), not the four of them (~0.38 s).
    slowest = max(_draws(state, services))
    assert deployment.sim.now() == start + slowest and slowest <= 0.114


def test_a_listing_of_every_partition_is_one_round_trip():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=5, coordination_partitions=4)
    fs = deployment.create_agent("alice")
    for index in range(8):
        fs.mkdir(f"/d{index}", shared=True)
    coordination = deployment.coordination
    assert len({coordination.partition_of(f"meta:/d{index}") for index in range(8)}) > 1
    state, start = deployment.sim.rng.getstate(), deployment.sim.now()
    listed = coordination.list_entries("meta:/", fs.session)
    assert {f"meta:/d{index}" for index in range(8)} <= {entry.key for entry in listed}
    assert deployment.sim.now() == start + max(_draws(state, coordination.services))


@pytest.mark.parametrize("partitions", [1, 3])
def test_releasing_every_lock_is_one_command_per_partition_and_one_round_trip(sim, partitions):
    services = [DepSpaceCoordination(sim, f=0) for _ in range(partitions)]
    coordination = PartitionedCoordination(services, lambda key, n: int(key[-1]) % n)
    session = coordination.open_session(Principal(name="alice", canonical_ids=()))
    locks = LockService(sim, coordination, session)
    files = [FileMetadata(path=f"/f{index}", file_type=FileType.FILE, owner="alice",
                          file_id=str(index)) for index in range(3)]
    locks.acquire_set(files)
    locks.acquire(files[1])  # a re-entrant hold: collapsed, not one more command
    commands = sum(service.rsm.commands_executed for service in services)
    state, start = sim.rng.getstate(), sim.now()
    locks.release_all()
    assert sum(service.rsm.commands_executed for service in services) - commands == partitions
    assert sim.now() == start + max(_draws(state, services))
    assert locks.held == {} and [coordination.lock_holder(LockService.lock_name(meta))
                                 for meta in files] == [None] * 3


README = Path(__file__).resolve().parents[2] / "README.md"


def test_readme_round_trip_table_lists_the_pinned_budgets():
    """README's table is ``BUDGETS``: the same rows, the same numbers, nothing else."""
    lines = README.read_text().splitlines()
    start = lines.index("| system call | commands |")
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    cells = [tuple(cell.strip() for cell in line.strip("|").split("|")) for line in table]
    assert cells[1] == ("---", "---:")
    assert cells[2:] == [(row, " · ".join(map(str, numbers))) for row, numbers in BUDGETS.items()]
