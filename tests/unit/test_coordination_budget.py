"""Coordination round trips per system call (the §4.2 budget).

Every coordination access costs the user 60-100 ms, so the number of
replicated commands a system call issues *is* its metadata latency.  These
tests pin that number — counted at ``ReplicatedStateMachine.commands_executed``,
below every adapter — for the replicated service and for SCFS-AWS's
unreplicated one (f=0, one VM), which is also what ``bench/costs.py`` prices
as "accesses per op".

A mount is one command: the user's canonical ids, created readable by every
user.  An unmount is one command: the session's close, which returns every
lock the session holds.

A lock rides in the metadata command it guards: the insert of a create-open,
the re-read under the lock of a write-open of an existing file, the validation
snapshot of a transaction commit, so one command stands in front of a
transaction's upload.  That is one command where there were two (three, for
the commit).  Only the unlock of a dirty close stays a command of its own: it
comes after the upload (pinned below; CHANGES.md, PR 16, says why).

A refused insert says what is there (PR 17), so ``open(O_CREAT)`` sends the
insert *first* — no lookup before it — whenever nothing the agent holds says
the file exists, its parent is known locally to be a live directory and its
entry goes to the coordination service: a create-open with a warm parent is
one command, a re-create over a tombstone two.  With a cold parent the open
looks first.

``BUDGETS`` holds every pinned number once; the tests assert against it, and
README's round-trip table must list exactly its rows.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from repro.common.errors import (
    ConflictError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    IsADirectoryErrorFS,
    NotADirectoryErrorFS,
    PermissionDeniedError,
    TransactionConflictError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.core.deployment import SCFSDeployment
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType

from conftest import expire_metadata, lock_holder

#: Coordination layouts: the Table 2 backend each runs on and its config overrides.
#: On SCFS-AWS the one service is unreplicated (f=0, one VM); the budgets count
#: commands, not replicas, so they are the same there.
KINDS = {"depspace": "CoC", "single-vm": "AWS"}

#: Replicated commands per call (README's round-trip table).  A
#: row's numbers are its cases in order, e.g. cold · warm.
BUDGETS: dict[str, tuple[int, ...]] = {
    "`stat` / `exists`, cold · warm": (1, 0),
    "`open(O_CREAT)` of a new shared file, parent warm · cold": (1, 3),
    "`open(O_CREAT)` over a tombstone (re-create), parent warm": (2,),
    "`open(O_CREAT)` of an existing shared file, cold with parent warm · cold, warm": (2, 1, 1),
    "`open` for writing of an existing shared file, cold · warm · re-entrant": (1, 1, 1),
    "`close`, clean, of a file open for writing (the unlock)": (1,),
    "`close`, dirty, blocking": (2,),
    "background commit of a non-blocking dirty `close`": (2,),
    "a refused `Update`": (1,),
    "`mkdir`, parent cold · warm": (2, 1),
    "`unlink`, cold": (2,),
    "`rename` of a file, same directory · other directory, cold": (1, 2),
    "`readdir`, cold · warm, any number of children": (1, 1),
    "`rename` of a directory with N descendants, cold (+ N)": (2,),
    "commit of a transaction, any number of files": (3,),
    "`setfacl` of a shared file, warm": (2,),
    "mount": (1,),
}


class Mount:
    """One mount plus the two meters the budgets compare."""

    def __init__(self, kind: str, close: str = "B"):
        self.deployment = SCFSDeployment.for_variant(f"SCFS-{KINDS[kind]}-{close}", seed=5)
        self.fs = self.deployment.create_agent("alice")
        self.fs.mkdir("/top", shared=True)

    def commands(self) -> int:
        return self.deployment.coordination.rsm.commands_executed

    def cold(self) -> None:
        """Expire the metadata cache (what a pause of >500 ms does)."""
        expire_metadata(self.fs)

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
    for index in range(8):
        path = f"/top/new{index}"
        mount.cold()
        mount.fs.stat("/top")  # the VFS resolved the parent on the way here
        # {insert-if-absent, lock} sent first, 1 where it was 2.
        warm = BUDGETS["`open(O_CREAT)` of a new shared file, parent warm · cold"][0]
        assert mount.spent(mount.fs.open, path, "w", True) == warm


def test_create_open_with_a_cold_parent_looks_first(mount):
    """Asking for the parent before the insert would cost an *existing* file a read."""
    for index in range(8):
        path = f"/top/new{index}"
        mount.cold()
        # lookup miss, the parent, {insert-if-absent, lock}
        cold = BUDGETS["`open(O_CREAT)` of a new shared file, parent warm · cold"][1]
        assert mount.spent(mount.fs.open, path, "w", True) == cold


def test_o_creat_open_of_an_existing_file_costs_what_a_write_open_does(mount):
    parent_warm, parent_cold, warm = BUDGETS[
        "`open(O_CREAT)` of an existing shared file, cold with parent warm · cold, warm"]
    write_open = BUDGETS["`open` for writing of an existing shared file, cold · warm · re-entrant"]
    (unlock,) = BUDGETS["`close`, clean, of a file open for writing (the unlock)"]
    mount.fs.write_file("/top/f", b"data", shared=True)

    def opened() -> None:
        mount.fs.close(mount.fs.open("/top/f", "a"))  # the clean close: the unlock alone

    mount.cold()
    mount.fs.stat("/top")  # cold entry, warm parent: the refused insert is the first look,
    assert mount.spent(opened) == parent_warm + unlock  # then {lock, re-read under it}
    mount.cold()  # cold entry, cold parent: {lock of the file the entry names, read}
    assert mount.spent(opened) == parent_cold + unlock == write_open[0] + unlock
    mount.fs.stat("/top/f")  # warm entry: served by the cache, whatever the parent
    assert mount.spent(opened) == warm + unlock == write_open[1] + unlock


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


def _write_open_budget(mount, path: str, costs: tuple[int, int, int]) -> None:
    """Cold, clean close, warm, re-entrant: what a write-open of ``path`` costs."""
    handle = None

    def opened() -> None:
        nonlocal handle
        handle = mount.fs.open(path, "r+")

    cold, warm, reentrant = costs
    (unlock,) = BUDGETS["`close`, clean, of a file open for writing (the unlock)"]
    mount.cold()  # {lock of the file the entry names, the entry}: the look is the re-read
    assert mount.spent(opened) == cold
    assert mount.spent(mount.fs.close, handle) == unlock  # clean: the unlock alone
    mount.fs.stat(path)  # warm: the lock rides with the re-read, whatever the cache said
    assert mount.spent(opened) == warm
    assert mount.spent(opened) == reentrant  # re-entrant hold: the re-read alone


def test_write_open_of_an_existing_shared_file_is_lock_and_revalidation(mount):
    """The replicas name the lock from the entry: 1 cold, 1 warm where it was 2 and 1."""
    mount.fs.write_file("/top/f", b"data", shared=True)
    _write_open_budget(mount, "/top/f", BUDGETS[
        "`open` for writing of an existing shared file, cold · warm · re-entrant"])


def test_a_renamed_file_is_write_opened_at_the_same_cost(mount):
    """The lock is named by the file id, which a rename keeps: it still rides."""
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.fs.mkdir("/away", shared=True)
    mount.fs.rename("/top/f", "/away/f")
    _write_open_budget(mount, "/away/f", BUDGETS[
        "`open` for writing of an existing shared file, cold · warm · re-entrant"])


def test_unlink_is_lookup_and_tombstone(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    (cost,) = BUDGETS["`unlink`, cold"]
    assert mount.spent(mount.fs.unlink, "/top/f") == cost


def test_file_rename_is_one_move(mount):
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
    # One listing; cold, the directory's read rides in front.
    cold, warm = BUDGETS["`readdir`, cold · warm, any number of children"]
    mount.make_files("/top/d", children)
    mount.cold()
    assert mount.spent(mount.fs.readdir, "/top/d") == cold
    assert len(mount.fs.readdir("/top/d")) == children
    mount.fs.stat("/top/d")
    assert mount.spent(mount.fs.readdir, "/top/d") == warm


@pytest.mark.parametrize("descendants", [0, 3, 12])
def test_directory_rename_is_one_move_per_descendant(mount, descendants):
    (base,) = BUDGETS["`rename` of a directory with N descendants, cold (+ N)"]
    mount.make_files("/top/d", descendants)
    mount.cold()
    # move of the directory entry, one listing, one move per descendant
    assert mount.spent(mount.fs.rename, "/top/d", "/top/e") == descendants + base
    assert len(mount.fs.readdir("/top/e")) == descendants
    assert not mount.fs.exists("/top/d")


def test_a_directory_rename_moves_every_descendant(mount):
    """Nested directories too: each descendant lands under the new name, nothing stays."""
    mount.make_files("/top/d", 2)
    mount.make_files("/top/d/sub", 2)
    mount.cold()
    mount.fs.rename("/top/d", "/top/e")
    assert mount.fs.readdir("/top/e") == ["f000", "f001", "sub"]
    assert mount.fs.readdir("/top/e/sub") == ["f000", "f001"]
    assert mount.fs.read_file("/top/e/sub/f001") == b"x"
    listed = mount.deployment.coordination.list_entries("meta:/top/", mount.fs.session)
    assert not [entry.key for entry in listed if entry.key.startswith("meta:/top/d")]


def test_a_rename_onto_a_live_target_is_eexist_in_one_command_and_moves_nothing(mount):
    mount.fs.write_file("/top/f", b"source", shared=True)
    mount.fs.write_file("/top/g", b"target", shared=True)
    mount.cold()
    commands = mount.commands()
    with pytest.raises(FileExistsErrorFS):
        mount.fs.rename("/top/f", "/top/g")
    assert mount.commands() - commands == 1  # the refused Move says what holds the target
    assert (mount.fs.read_file("/top/f"), mount.fs.read_file("/top/g")) == (b"source", b"target")


def test_a_refused_rename_keeps_its_type_in_one_command_and_moves_nothing(mount):
    bob = mount.deployment.create_agent("bob")
    mount.fs.setfacl("/top", "bob", Permission.READ_WRITE)
    mount.fs.write_file("/top/f", b"alice's", shared=True)
    mount.fs.setfacl("/top/f", "bob", Permission.READ)
    mount.fs.write_file("/top/gone", b"data", shared=True)
    mount.fs.unlink("/top/gone")
    for agent, source, refusal in ((mount.fs, "/top/none", FileNotFoundErrorFS),
                                   (mount.fs, "/top/gone", FileNotFoundErrorFS),
                                   (bob, "/top/f", PermissionDeniedError)):
        expire_metadata(agent)
        commands = mount.commands()
        with pytest.raises(refusal):
            agent.rename(source, "/top/moved")
        assert mount.commands() - commands == 1
    assert not mount.fs.exists("/top/moved") and mount.fs.read_file("/top/f") == b"alice's"


def test_readdir_of_a_file_is_enotdir_in_its_one_round(mount):
    mount.fs.write_file("/top/f", b"data", shared=True)
    mount.cold()
    commands = mount.commands()
    with pytest.raises(NotADirectoryErrorFS):
        mount.fs.readdir("/top/f")
    assert mount.commands() - commands == 1
    with pytest.raises(FileNotFoundErrorFS):
        mount.fs.readdir("/top/none")


def test_a_cold_write_open_that_fails_is_one_command_and_holds_no_lock(mount):
    """Absent, deleted or a directory: the replicas take no lock, so none is handed back."""
    mount.fs.write_file("/top/gone", b"data", shared=True)
    gone = mount.fs.stat("/top/gone").file_id
    mount.fs.unlink("/top/gone")
    mount.fs.mkdir("/top/d", shared=True)
    for path, refusal in (("/top/none", FileNotFoundErrorFS), ("/top/gone", FileNotFoundErrorFS),
                          ("/top/d", IsADirectoryErrorFS)):
        mount.cold()
        commands = mount.commands()
        with pytest.raises(refusal):
            mount.fs.open(path, "r+")
        assert mount.commands() - commands == 1
        assert mount.fs.locks.held == {} and not mount.fs._handles
    assert lock_holder(mount.deployment.coordination, f"filelock:{gone}") is None


def test_a_write_open_racing_an_unlink_and_re_create_locks_the_current_file(mount):
    """The replicas name the lock from the entry the command reads, whatever the cache says."""
    bob = mount.deployment.create_agent("bob")
    mount.fs.setfacl("/top", "bob", Permission.READ_WRITE)
    mount.fs.write_file("/top/f", b"old", shared=True)
    mount.fs.setfacl("/top/f", "bob", Permission.READ_WRITE)
    old = mount.fs.stat("/top/f").file_id  # warm: the cache names the old file

    def replace() -> None:  # runs inside the open's round trip
        bob.unlink("/top/f")
        bob.write_file("/top/f", b"new", shared=True)
        bob.setfacl("/top/f", "alice", Permission.READ_WRITE)

    transitions: list[tuple[str, str]] = []
    mount.fs.locks.on_transition = lambda kind, name: transitions.append((kind, name))
    mount.deployment.sim.schedule(0.01, replace)
    handle = mount.fs.open("/top/f", "r+")
    current = bob.stat("/top/f").file_id
    assert current != old and mount.fs.read(handle) == b"new"
    assert transitions == [("lock", f"filelock:{current}")]
    assert lock_holder(mount.deployment.coordination, f"filelock:{current}") == \
        mount.fs.session.session_id


def test_conditional_puts_cost_one_command_each(mount):
    """A plain and a conditional put, and the one-entry ``Update`` CAS."""
    agent = mount.fs
    mount.fs.write_file("/top/f", b"data", shared=True)

    def put(expected_version):
        agent.coordination.put("probe", b"{}", agent.session, expected_version=expected_version)

    assert mount.spent(put, None) == 1
    assert mount.spent(put, 1) == 1
    meta, version = agent.metadata.lookup_versioned("/top/f")
    assert mount.spent(agent.metadata.update_cas, meta, version) == 1
    assert agent.metadata.lookup_versioned("/top/f")[1] == version + 1


def _read_and_rewrite(paths):
    def body(txn) -> None:
        for path in paths:
            txn.write(path, txn.read(path) + b"+")
    return body


def _commit_commands(mount, directory: str, count: int) -> int:
    """Commands of one commit that reads and rewrites ``count`` files."""
    mount.make_files(directory, count)
    paths = [f"{directory}/f{index:03d}" for index in range(count)]
    txn = mount.fs.transactions.begin()
    _read_and_rewrite(paths)(txn)
    commands = mount.spent(txn.commit)
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * count
    return commands


def test_transaction_commit_is_constant_in_the_size_of_its_sets(mount):
    """{Lock set + validating reads}, {every version CAS}, release.

    The read set already names the lock of every file, so nothing is read
    before the locks are taken, and the snapshot the reads are validated
    against is taken by the command that grants them.  That is three
    commands for any number of files — one before the upload.
    """
    (commit,) = BUDGETS["commit of a transaction, any number of files"]
    assert [_commit_commands(mount, f"/top/t{count}", count) for count in (1, 3, 8)] == [
        commit] * 3


def test_a_lock_refused_commit_attempt_leaves_nothing(mount):
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
    # The refused command was the attempt's only one, and it left nothing: no
    # entry, no lock (the next commit takes them all).
    assert mount.fs.coordination.entry_count() == entries
    mount.fs.run_transaction(_read_and_rewrite(paths))
    assert [mount.fs.read_file(path) for path in paths] == [b"x+"] * 3


def test_a_failed_validation_is_the_lock_command_and_the_release(mount):
    mount.make_files("/top/stale", 2)
    paths = [f"/top/stale/f{index:03d}" for index in range(2)]
    txn = mount.fs.transactions.begin()
    _read_and_rewrite(paths)(txn)
    mount.fs.write_file(paths[0], b"newer", shared=True)
    entries = mount.fs.coordination.entry_count()

    def refused() -> None:
        with pytest.raises(TransactionConflictError, match="stale read"):
            txn.commit()

    assert mount.spent(refused) == 2
    assert mount.fs.coordination.entry_count() == entries
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
    # The failed commit ({locks, snapshot}, the release), the retry's
    # snapshot, its 3-command commit.
    assert since_interference == 2 + 1 + 3


def test_rename_tree_locks_its_files_in_two_commands_whatever_their_number(mount):
    def commands(directory: str, files: int) -> int:
        mount.make_files(directory, files)
        mount.cold()
        spent = mount.spent(mount.fs.rename_tree, directory, directory + "-moved")
        assert len(mount.fs.readdir(directory + "-moved")) == files
        return spent

    grown = commands("/top/many", 9) - commands("/top/few", 2)
    # One conditional move per extra file; taking and returning the lock set is
    # one command each, not one per file.
    assert grown == 7


def _draw(state, service) -> float:
    """The latency one command to ``service`` draws from RNG ``state``."""
    rng = random.Random()
    rng.setstate(state)
    return service.rsm.latency.sample(0, rng)


def test_a_mount_is_one_command_and_registers_a_user_every_user_may_read(mount):
    """The registry entry is created with its grant: 1 command where it was 2 (put, set ACL)."""
    (cost,) = BUDGETS["mount"]
    assert mount.spent(mount.deployment.create_agent, "bob") == cost
    assert mount.spent(mount.deployment.create_agent, "bob") == cost  # a refresh keeps the ACL
    carol = mount.deployment.create_agent("carol")
    bob = mount.deployment.agent_for("bob")
    assert carol.users.lookup("bob").canonical_ids == bob.principal.canonical_ids


def test_an_unmount_is_one_command_and_one_round_trip():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=5)
    fs = deployment.create_agent("alice")
    service = deployment.coordination
    commands = service.rsm.commands_executed
    state, start = deployment.sim.rng.getstate(), deployment.sim.now()
    fs.unmount()
    assert service.rsm.commands_executed - commands == 1
    assert deployment.sim.now() == start + _draw(state, service)


def test_releasing_every_lock_is_one_command(sim):
    service = DepSpaceCoordination(sim, f=0)
    session = service.open_session(Principal(name="alice", canonical_ids=()))
    locks = LockService(sim, service, session)
    files = [FileMetadata(path=f"/f{index}", file_type=FileType.FILE, owner="alice",
                          file_id=str(index)) for index in range(3)]
    locks.acquire_set(files)
    locks.acquire(files[1])  # a re-entrant hold: collapsed, not one more command
    commands = service.rsm.commands_executed
    state, start = sim.rng.getstate(), sim.now()
    locks.release_all()
    assert service.rsm.commands_executed - commands == 1
    assert sim.now() == start + _draw(state, service)
    assert locks.held == {} and [lock_holder(service, LockService.lock_name(meta))
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
