"""Unit tests for the SCFS Agent and the POSIX-like file-system façade."""

import ast
from pathlib import Path

import pytest

from repro.common.errors import (
    DirectoryNotEmptyError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    InvalidHandleError,
    IsADirectoryErrorFS,
    LockHeldError,
    NotADirectoryErrorFS,
    ObjectNotFoundError,
    PermissionDeniedError,
    QuorumNotReachedError,
)
from repro.common.types import Permission
from repro.core.agent import SCFSAgent
from repro.core.deployment import SCFSDeployment
from repro.core.filesystem import DURABILITY_TABLE, FileSystem
from repro.core.metadata import FileType
from repro.core.modes import OperationMode
from repro.simenv.failures import FaultKind
from repro.simenv.latency import LatencyModel


@pytest.fixture
def coc_nb():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=11)
    return deployment, deployment.create_agent("alice")


@pytest.fixture
def aws_b():
    deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=11)
    return deployment, deployment.create_agent("alice")


def test_the_agent_is_the_mount():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3)
    fs = deployment.create_agent("alice")
    assert isinstance(fs, SCFSAgent) and isinstance(fs, FileSystem)
    assert deployment.agent_for("alice") is fs and deployment.filesystems == {"alice": fs}


class TestOpenCloseSemantics:
    def test_open_missing_file_raises(self, coc_nb):
        _, fs = coc_nb
        with pytest.raises(FileNotFoundErrorFS):
            fs.open("/missing.txt", "r")

    def test_create_write_read_back(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"hello world")
        assert fs.read_file("/f.txt") == b"hello world"

    def test_open_modes_map_to_flags(self, coc_nb):
        _, fs = coc_nb
        with pytest.raises(ValueError):
            fs.open("/f.txt", "x+")

    def test_unknown_handle_rejected(self, coc_nb):
        _, fs = coc_nb
        with pytest.raises(InvalidHandleError):
            fs.read(999)
        with pytest.raises(InvalidHandleError):
            fs.close(999)

    def test_double_close_rejected(self, coc_nb):
        _, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.close(handle)
        with pytest.raises(InvalidHandleError):
            fs.close(handle)

    def test_write_requires_write_mode(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/f.txt", b"data")
        handle = fs.open("/f.txt", "r")
        with pytest.raises(PermissionDeniedError):
            fs.write(handle, b"nope")
        fs.close(handle)

    def test_append_mode(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/log.txt", b"one;")
        fs.append_file("/log.txt", b"two;")
        deployment.drain()
        assert fs.read_file("/log.txt") == b"one;two;"

    def test_truncate_then_reopen(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"0123456789")
        handle = fs.open("/f.txt", "r+")
        fs.truncate(handle, 4)
        fs.close(handle)
        deployment.drain()
        assert fs.read_file("/f.txt") == b"0123"

    def test_offset_reads_and_writes(self, coc_nb):
        _, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"AAAAAAAA")
        fs.write(handle, b"BB", offset=2)
        assert fs.read(handle, 4, offset=1) == b"ABBA"
        fs.close(handle)

    def test_writing_past_end_zero_fills(self, coc_nb):
        _, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"X", offset=4)
        assert fs.read(handle) == b"\x00\x00\x00\x00X"
        fs.close(handle)

    def test_open_directory_for_reading_fails(self, coc_nb):
        _, fs = coc_nb
        fs.mkdir("/dir")
        with pytest.raises(IsADirectoryErrorFS):
            fs.open("/dir", "r")

    def test_create_in_missing_parent_fails(self, coc_nb):
        _, fs = coc_nb
        with pytest.raises(FileNotFoundErrorFS):
            fs.write_file("/no-such-dir/f.txt", b"x")

    def test_stat_reflects_size_and_type(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"12345")
        meta = fs.stat("/f.txt")
        assert meta.size == 5 and meta.file_type is FileType.FILE
        assert fs.stat("/").is_directory


class TestNamespaceOperations:
    def test_mkdir_readdir_rmdir(self, coc_nb):
        _, fs = coc_nb
        fs.mkdir("/docs")
        fs.write_file("/docs/a.txt", b"1")
        fs.write_file("/docs/b.txt", b"2")
        assert fs.readdir("/docs") == ["a.txt", "b.txt"]
        with pytest.raises(DirectoryNotEmptyError):
            fs.rmdir("/docs")
        fs.unlink("/docs/a.txt")
        fs.unlink("/docs/b.txt")
        fs.rmdir("/docs")
        assert not fs.exists("/docs")

    def test_mkdir_under_file_fails(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/f.txt", b"x")
        with pytest.raises(NotADirectoryErrorFS):
            fs.mkdir("/f.txt/sub")

    @pytest.mark.parametrize("call", ["open", "rename", "mkdir"])
    @pytest.mark.parametrize("parent_cached", [True, False])
    def test_nothing_can_be_put_under_a_regular_file(self, call, parent_cached):
        """The one parent check asks for a live *directory* (it asked for existence only).

        An entry below a regular file resolves by path but no ``readdir`` can
        ever list it.
        """
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=11)
        fs = deployment.create_agent("alice")
        fs.mkdir("/top", shared=True)
        fs.write_file("/top/f", b"a file", shared=True)
        fs.write_file("/top/g", b"another", shared=True)
        calls = {
            "open": lambda: fs.write_file("/top/f/child", b"x", shared=True),
            "rename": lambda: fs.rename("/top/g", "/top/f/g"),
            "mkdir": lambda: fs.mkdir("/top/f/sub", shared=True),
        }
        fs.metadata_cache.clear()
        if parent_cached:
            fs.stat("/top/f")
        with pytest.raises(NotADirectoryErrorFS) as raised:
            calls[call]()
        assert raised.value.errno_name == "ENOTDIR"
        assert fs.readdir("/top") == ["f", "g"]
        assert deployment.coordination.list_prefix("meta:/top/f/", fs.session) == []
        assert fs.read_file("/top/f") == b"a file" and fs.locks.held == {}

    def test_readdir_of_file_fails(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/f.txt", b"x")
        with pytest.raises(NotADirectoryErrorFS):
            fs.readdir("/f.txt")

    def test_unlink_directory_fails(self, coc_nb):
        _, fs = coc_nb
        fs.mkdir("/dir")
        with pytest.raises(IsADirectoryErrorFS):
            fs.unlink("/dir")

    def test_unlinked_file_is_recoverable_until_gc(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"precious")
        fs.unlink("/f.txt")
        assert not fs.exists("/f.txt")
        # The metadata still exists (marked deleted) until the GC purges it.
        assert fs.metadata.lookup("/f.txt").deleted

    def test_recreate_after_unlink(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"old")
        fs.unlink("/f.txt")
        fs.write_file("/f.txt", b"new")
        deployment.drain()
        assert fs.read_file("/f.txt") == b"new"

    def test_rename_file_and_directory(self, coc_nb):
        deployment, fs = coc_nb
        fs.mkdir("/dir")
        fs.write_file("/dir/f.txt", b"data")
        fs.rename("/dir/f.txt", "/dir/g.txt")
        assert fs.readdir("/dir") == ["g.txt"]
        fs.rename("/dir", "/renamed")
        deployment.drain()
        assert fs.read_file("/renamed/g.txt") == b"data"

    def test_a_directory_rename_completes_the_pending_commits_below_it(self):
        """The agent's own background commit of a child must not fire between
        the directory's listing and its conditional moves: the rename would
        fail half-way, leaving the child at the old path under no directory."""
        for step in range(31):
            deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=11)
            fs = deployment.create_agent("alice")
            fs.mkdir("/dir")
            fs.write_file("/dir/f.txt", b"data")
            deployment.sim.advance(step * 0.02)
            fs.rename("/dir", "/renamed")
            deployment.drain()
            assert not fs.exists("/dir") and not fs.exists("/dir/f.txt"), step
            assert fs.readdir("/renamed") == ["f.txt"], step
            assert fs.read_file("/renamed/f.txt") == b"data", step

    def test_rename_to_existing_target_fails(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/a.txt", b"a")
        fs.write_file("/b.txt", b"b")
        with pytest.raises(FileExistsErrorFS):
            fs.rename("/a.txt", "/b.txt")


class TestDurabilityAndModes:
    def test_durability_table_matches_paper(self):
        assert [row.level for row in DURABILITY_TABLE] == [0, 1, 2, 3]
        assert DURABILITY_TABLE[2].example_call == "close"

    def test_blocking_close_uploads_before_returning(self, aws_b):
        deployment, fs = aws_b
        fs.write_file("/f.txt", b"x" * 10_000)
        # No pending background work: the data is already in the cloud.
        assert not fs._pending_commits
        assert deployment.clouds[0].stored_bytes() >= 10_000

    def test_blocking_coc_close_reaches_level3(self):
        # Level 3 of Table 1: the close returns once n - f clouds hold the version.
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=1)
        fs = deployment.create_agent("alice")
        fs.write_file("/f.txt", b"x" * 10_000)
        assert not fs._pending_commits
        holders = [cloud for cloud in deployment.clouds if cloud.stored_bytes() >= 5_000]
        assert len(holders) >= len(deployment.clouds) - deployment.config.fault_tolerance

    def test_blocking_aws_close_reaches_level2(self):
        # Level 2 of Table 1: once the close returns, the version outlives the
        # client's caches, because the one cloud holds all of it.
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        fs = deployment.create_agent("alice")
        fs.write_file("/f.txt", b"y" * 10_000)
        assert not fs._pending_commits
        fresh = deployment.create_agent("alice")  # empty memory and disk caches
        deployment.sim.advance(deployment.clouds[0].profile.propagation_delay)
        assert fresh.read_file("/f.txt") == b"y" * 10_000
        assert fresh.storage.cloud_reads == 1

    def test_non_blocking_close_returns_at_level1(self, coc_nb):
        # Level 1: when the close returns, the version is on the local disk
        # only; the background upload takes it to level 3 later.
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"z" * 10_000)
        assert all(cloud.stored_bytes() == 0 for cloud in deployment.clouds)
        assert len(fs.storage.disk) == 1
        deployment.drain()
        holders = [cloud for cloud in deployment.clouds if cloud.stored_bytes() >= 5_000]
        assert len(holders) >= len(deployment.clouds) - deployment.config.fault_tolerance

    def test_non_blocking_close_defers_upload(self, coc_nb):
        deployment, fs = coc_nb
        events = []
        fs.events = lambda kind, **fields: events.append((kind, fields))
        before = deployment.sim.now()
        fs.write_file("/f.txt", b"x" * 1_000_000)
        foreground = deployment.sim.now() - before
        assert len(fs._pending_commits) == 1
        assert not [kind for kind, _ in events if kind == "commit"]
        assert foreground < fs.backend.estimate_write_latency(1_000_000)
        deployment.drain()
        assert not fs._pending_commits
        assert [fields["background"] for kind, fields in events if kind == "commit"] == [True]

    def test_fsync_only_touches_local_disk(self, coc_nb):
        deployment, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"dirty data")
        before = [len(cloud.request_log) for cloud in deployment.clouds]
        fs.fsync(handle)
        assert [len(cloud.request_log) for cloud in deployment.clouds] == before
        assert fs.storage.bytes_pushed == 0
        fs.close(handle)

    def test_close_without_modification_does_not_upload(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"data")
        deployment.drain()

        def puts():
            return [sum(kind == "put" for kind, _key, _size in cloud.request_log)
                    for cloud in deployment.clouds]

        before = (fs.storage.bytes_pushed, puts())
        handle = fs.open("/f.txt", "r")
        fs.read(handle)
        fs.close(handle)
        assert (fs.storage.bytes_pushed, puts()) == before

    def test_reads_of_unmodified_files_are_local(self, aws_b):
        deployment, fs = aws_b
        fs.write_file("/f.txt", b"cached content")
        before = fs.storage.cloud_reads
        assert fs.read_file("/f.txt") == b"cached content"
        assert fs.storage.cloud_reads == before  # served from the local cache


class TestOneCommitPath:
    """Blocking and background closes are the same `_commit`, differing only in when."""

    @staticmethod
    def _closed(variant):
        deployment = SCFSDeployment.for_variant(variant, seed=23)
        events = []
        fs = deployment.create_agent(
            "alice", events=lambda kind, **fields: events.append((kind, fields)))
        for data in (b"first", b"second version"):
            fs.write_file("/doc.txt", data, shared=True)
            deployment.drain()  # a no-op after a blocking close
        anchored = fs.metadata.lookup("/doc.txt", use_cache=False)
        keys = [sorted(cloud._objects) for cloud in deployment.clouds]
        return events, (anchored.digest, anchored.data_version), keys

    def test_same_keys_anchor_and_events_in_both_modes(self):
        blocking_events, blocking_anchor, blocking_keys = self._closed("SCFS-CoC-B")
        background_events, background_anchor, background_keys = self._closed("SCFS-CoC-NB")
        assert blocking_keys == background_keys and any(blocking_keys)
        assert blocking_anchor == background_anchor and blocking_anchor[1] == 2
        assert [kind for kind, _ in blocking_events] == [kind for kind, _ in background_events]
        for (kind, blocking), (_, background) in zip(blocking_events, background_events, strict=True):
            differing = {name for name in blocking.keys() | background.keys()
                         if blocking.get(name) != background.get(name)}
            # (the locator embeds the instant the blocks were dispatched)
            assert differing <= {"time", "began", "background", "blocking",
                                 "locator"}, (kind, differing)
        committed = [fields["background"] for kind, fields in background_events
                     if kind in ("upload", "commit")]
        assert committed == [True] * 4
        assert not any(fields["background"] for kind, fields in blocking_events
                       if kind in ("upload", "commit"))

    def test_every_lock_transition_is_a_lock_or_unlock_event(self):
        events, _anchor, _keys = self._closed("SCFS-CoC-B")
        locks = [(kind, fields["lock"]) for kind, fields in events if "lock" in fields]
        name = locks[0][1]
        assert name.startswith("filelock:")
        assert locks == [("lock", name), ("unlock", name)] * 2

    def test_background_commit_charges_nothing(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=23)
        fs = deployment.create_agent("alice")
        fs.write_file("/doc.txt", b"data", shared=True)
        (_of, task, complete), = fs._pending_commits.values()
        task.cancel()
        before = deployment.sim.now()
        complete()
        assert deployment.sim.now() == before
        assert not deployment.sim.in_background


class TestACLs:
    def test_setfacl_requires_ownership(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=2)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/f.txt", b"mine", shared=True)
        with pytest.raises(PermissionDeniedError):
            bob.setfacl("/f.txt", "bob", Permission.READ)

    def test_setfacl_unknown_user_rejected(self, aws_b):
        _, fs = aws_b
        fs.write_file("/f.txt", b"x", shared=True)
        with pytest.raises(FileNotFoundErrorFS):
            fs.setfacl("/f.txt", "stranger", Permission.READ)

    def test_getfacl_lists_grants(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=2)
        alice = deployment.create_agent("alice")
        deployment.create_agent("bob")
        alice.write_file("/f.txt", b"x", shared=True)
        alice.setfacl("/f.txt", "bob", Permission.READ_WRITE)
        assert alice.getfacl("/f.txt") == {"bob": Permission.READ_WRITE}

    def test_sharing_not_available_in_non_sharing_mode(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-NS", seed=2)
        fs = deployment.create_agent("alice")
        fs.write_file("/f.txt", b"x")
        with pytest.raises(PermissionDeniedError):
            fs.setfacl("/f.txt", "bob", Permission.READ)


class TestCloudACLPropagation:
    def test_every_grant_a_grantee_commit_re_applies_is_counted(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=2)
        alice = deployment.create_agent("alice")
        agents = {name: deployment.create_agent(name) for name in ("bob", "carol", "dave")}
        alice.write_file("/f.txt", b"v1", shared=True)
        for name in agents:
            alice.setfacl("/f.txt", name, Permission.READ_WRITE)
        deployment.drain(2.0)
        bob = agents["bob"]
        bob.write_file("/f.txt", b"v2")  # the owner and two further grantees need the grant
        assert len(bob._acl_propagated) == 3
        bob.write_file("/f.txt", b"v3")  # at most once per (file, party)
        assert len(bob._acl_propagated) == 3
        assert agents["carol"].read_file("/f.txt") == b"v3"


class TestLockingBetweenClients:
    def test_write_write_conflict_detected(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=3)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/shared.txt", b"v1", shared=True)
        alice.setfacl("/shared.txt", "bob", Permission.READ_WRITE)
        deployment.drain(2.0)
        handle = alice.open("/shared.txt", "r+")
        with pytest.raises(LockHeldError):
            bob.open("/shared.txt", "r+")
        alice.close(handle)
        bob_handle = bob.open("/shared.txt", "r+")
        bob.close(bob_handle)

    def test_failed_blocking_close_returns_its_lock(self):
        """The upload cannot reach a quorum: close raises — and must not keep the lock."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/shared.txt", b"v1", shared=True)
        alice.setfacl("/shared.txt", "bob", Permission.READ_WRITE)
        deployment.drain(2.0)
        handle = alice.open("/shared.txt", "r+")
        alice.write(handle, b"v2")
        for cloud in deployment.clouds[:2]:
            cloud.failures.add(FaultKind.UNAVAILABLE, start=deployment.sim.now())
        with pytest.raises(QuorumNotReachedError):
            alice.close(handle)
        assert alice._handles == {}
        assert alice.locks.held == {}
        for cloud in deployment.clouds[:2]:
            cloud.failures.clear()  # healed, so that bob's open can fetch v1
        bob_handle = bob.open("/shared.txt", "r+")  # LockHeldError until unmount, before the fix
        assert bob.read(bob_handle) == b"v1"
        bob.close(bob_handle)

    def test_close_whose_entry_update_is_denied_returns_its_lock(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=3)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/shared.txt", b"v1", shared=True)
        alice.setfacl("/shared.txt", "bob", Permission.READ_WRITE)
        deployment.drain(2.0)
        handle = bob.open("/shared.txt", "r+")
        bob.write(handle, b"v2")
        alice.setfacl("/shared.txt", "bob", Permission.READ)  # revoked while bob has it open
        # The replicas refuse the anchor: the version stays an orphan, as one
        # of a re-created path does, and the lock goes back all the same.
        bob.close(handle)
        assert "filelock:" + bob.stat("/shared.txt").file_id not in bob.locks.held
        alice.close(alice.open("/shared.txt", "r+"))
        assert alice.read_file("/shared.txt") == b"v1"

    def test_reading_needs_no_lock(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=3)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/shared.txt", b"v1", shared=True)
        alice.setfacl("/shared.txt", "bob", Permission.READ)
        deployment.drain(2.0)
        handle = alice.open("/shared.txt", "r+")
        assert bob.read_file("/shared.txt") == b"v1"
        alice.close(handle)


class TestStatisticsAndLifecycle:
    def test_statistics_track_calls(self, coc_nb):
        _, fs = coc_nb
        events = []
        fs.events = lambda kind, **fields: events.append(kind)
        fs.write_file("/f.txt", b"x")
        fs.read_file("/f.txt")
        assert [events.count(kind) for kind in ("open", "close", "write", "read")] == [2, 2, 1, 1]
        assert fs.stats.syscalls >= 6

    def test_a_read_of_a_clean_handle_looks_up_no_memory_cache_entry(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"clean")
        deployment.drain()
        handle = fs.open("/f.txt", "r")
        cache = fs.memory_cache
        before = (cache.hits, cache.misses)
        assert fs.read(handle) == b"clean"
        assert (cache.hits, cache.misses) == before
        fs.close(handle)

    def test_unmount_flushes_open_files(self, coc_nb):
        deployment, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"pending")
        fs.unmount()
        deployment.drain()
        deployment.create_agent("alice2")
        # alice2 cannot read alice's file (no grant); check via alice's backend instead.
        assert fs._handles == {}

    def test_nonblocking_unmount_flushes_the_whole_pns_in_the_background(self):
        """Upload *and* anchor put: a dirty PNS costs the unmount no simulated time."""

        def unmount_cost(dirty):
            deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=11,
                                                    private_name_spaces=True)
            fs = deployment.create_agent("alice")
            if dirty:
                fs.mkdir("/home")  # private: stays in the PNS until the next save
            assert fs.pns.dirty is dirty
            deployment.coordination.rsm.latency = LatencyModel(base=0.080)  # no jitter
            before = deployment.sim.now()
            fs.unmount()
            cost = deployment.sim.now() - before
            deployment.drain(3.0)
            saved = fs.backend.list_versions(fs.pns.unit_id)
            assert len(saved) == (1 if dirty else 0)
            return cost

        clean = unmount_cost(dirty=False)
        assert clean > 0  # the PNS lock's release and the session's close
        assert unmount_cost(dirty=True) == pytest.approx(clean, abs=1e-9)

    def test_non_sharing_agent_has_no_coordination(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=4)
        fs = deployment.create_agent("alice")
        assert fs.coordination is None
        assert deployment.coordination_entries() == 0
        fs.write_file("/f.txt", b"private")
        deployment.drain()
        assert fs.read_file("/f.txt") == b"private"

    def test_mode_matrix_config(self):
        for name in ("SCFS-AWS-B", "SCFS-CoC-NB", "SCFS-CoC-NS"):
            deployment = SCFSDeployment.for_variant(name, seed=5)
            fs = deployment.create_agent("u")
            assert fs.config.mode in OperationMode
            fs.write_file("/x", b"1")
            deployment.drain()
            assert fs.read_file("/x") == b"1"


class TestConsistencyRetries:
    """``AgentStatistics.consistency_retries`` counts the r2 polls of the agent's reads."""

    @pytest.mark.parametrize("read", ["open", "transaction"])
    def test_a_read_made_to_poll_n_times_counts_n(self, monkeypatch, read):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=19)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.write_file("/f", b"shared bytes", shared=True)
        alice.setfacl("/f", "bob", Permission.READ)
        deployment.drain(3.0)
        backend, misses = bob.backend, [None] * 3
        fetch = backend.read_version

        def not_visible_yet(*args, **kwargs):
            if misses:
                misses.pop()
                raise ObjectNotFoundError("not visible yet")
            return fetch(*args, **kwargs)

        monkeypatch.setattr(backend, "read_version", not_visible_yet)
        if read == "open":
            data = bob.read_file("/f")
        else:
            data = bob.run_transaction(lambda txn: txn.read("/f"))
        assert data == b"shared bytes" and not misses
        assert bob.stats.consistency_retries == 3
        assert alice.stats.consistency_retries == 0


def _version_emitters(tree: ast.AST) -> list[tuple[str, str]]:
    """``(enclosing class.function, kind)`` of each ``_emit("upload" | "commit", ...)``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_emit" and child.args
                    and isinstance(child.args[0], ast.Constant)
                    and child.args[0].value in ("upload", "commit")):
                found.append((".".join(scope), child.args[0].value))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_publish_step_uploads_and_anchors_a_version():
    """One commit path: a close and a transaction commit both publish through
    ``SCFSAgent._publish``, so no second copy of the step can drift apart."""
    src = Path(__file__).resolve().parents[2] / "src"
    emitters = [(str(path.relative_to(src)), *emitter)
                for path in sorted(src.rglob("*.py"))
                for emitter in _version_emitters(ast.parse(path.read_text()))]
    assert emitters == [("repro/core/agent.py", "SCFSAgent._publish", "upload"),
                        ("repro/core/agent.py", "SCFSAgent._publish", "commit")]
