"""Unit tests for the SCFS Agent and the POSIX-like file-system façade."""

import pytest

from repro.common.errors import (
    ConflictError,
    DirectoryNotEmptyError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    InvalidHandleError,
    IsADirectoryErrorFS,
    LockHeldError,
    NotADirectoryErrorFS,
    PermissionDeniedError,
    QuorumNotReachedError,
)
from repro.common.types import Permission
from repro.core.agent import OpenFlags
from repro.core.deployment import SCFSDeployment
from repro.core.filesystem import DURABILITY_TABLE, DurabilityLevel
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

    def test_read_requires_read_mode(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/f.txt", b"data")
        handle = fs.agent.open("/f.txt", OpenFlags.WRITE)
        with pytest.raises(PermissionDeniedError):
            fs.agent.read(handle)
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

    @pytest.mark.parametrize("call", ["open", "symlink", "rename", "mkdir"])
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
            "symlink": lambda: fs.symlink("/top/g", "/top/f/link"),
            "rename": lambda: fs.rename("/top/g", "/top/f/g"),
            "mkdir": lambda: fs.mkdir("/top/f/sub", shared=True),
        }
        fs.agent.metadata_cache.clear()
        if parent_cached:
            fs.stat("/top/f")
        with pytest.raises(NotADirectoryErrorFS) as raised:
            calls[call]()
        assert raised.value.errno_name == "ENOTDIR"
        assert fs.readdir("/top") == ["f", "g"]
        assert deployment.coordination.list_prefix("meta:/top/f/", fs.agent.session) == []
        assert fs.read_file("/top/f") == b"a file" and fs.agent.locks._manager.held == {}

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
        assert fs.agent.metadata.lookup("/f.txt").deleted

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

    def test_rename_to_existing_target_fails(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/a.txt", b"a")
        fs.write_file("/b.txt", b"b")
        with pytest.raises(FileExistsErrorFS):
            fs.rename("/a.txt", "/b.txt")

    def test_symlink_and_readlink(self, coc_nb):
        _, fs = coc_nb
        fs.write_file("/target.txt", b"content")
        fs.symlink("/target.txt", "/link")
        assert fs.readlink("/link") == "/target.txt"
        with pytest.raises(Exception):
            fs.readlink("/target.txt")


class TestDurabilityAndModes:
    def test_durability_table_matches_paper(self):
        assert [row.level for row in DURABILITY_TABLE] == [0, 1, 2, 3]
        assert DURABILITY_TABLE[2].example_call == "close"

    def test_blocking_coc_close_reaches_level3(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=1)
        fs = deployment.create_agent("alice")
        assert fs.durability_of("write") is DurabilityLevel.MAIN_MEMORY
        assert fs.durability_of("fsync") is DurabilityLevel.LOCAL_DISK
        assert fs.durability_of("close") is DurabilityLevel.CLOUD_OF_CLOUDS

    def test_blocking_aws_close_reaches_level2(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=1)
        fs = deployment.create_agent("alice")
        assert fs.durability_of("close") is DurabilityLevel.CLOUD

    def test_non_blocking_close_returns_at_level1(self, coc_nb):
        _, fs = coc_nb
        assert fs.durability_of("close") is DurabilityLevel.LOCAL_DISK
        assert fs.eventual_durability() is DurabilityLevel.CLOUD_OF_CLOUDS

    def test_durability_of_unknown_call_rejected(self, coc_nb):
        _, fs = coc_nb
        with pytest.raises(ValueError):
            fs.durability_of("mmap")

    def test_blocking_close_uploads_before_returning(self, aws_b):
        deployment, fs = aws_b
        fs.write_file("/f.txt", b"x" * 10_000)
        # No pending background work: the data is already in the cloud.
        assert fs.statistics().pending_uploads == 0
        assert deployment.clouds[0].stored_bytes() >= 10_000

    def test_non_blocking_close_defers_upload(self, coc_nb):
        deployment, fs = coc_nb
        before = deployment.sim.now()
        fs.write_file("/f.txt", b"x" * 1_000_000)
        foreground = deployment.sim.now() - before
        stats = fs.statistics()
        assert stats.pending_uploads == 1
        assert foreground < fs.agent.backend.estimate_write_latency(1_000_000)
        deployment.drain()
        assert fs.statistics().pending_uploads == 0
        assert fs.statistics().background_uploads == 1

    def test_fsync_only_touches_local_disk(self, coc_nb):
        deployment, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"dirty data")
        before_writes = fs.agent.storage.cloud_writes
        fs.fsync(handle)
        assert fs.agent.storage.cloud_writes == before_writes
        fs.close(handle)

    def test_close_without_modification_does_not_upload(self, coc_nb):
        deployment, fs = coc_nb
        fs.write_file("/f.txt", b"data")
        deployment.drain()
        before = fs.agent.storage.cloud_writes
        handle = fs.open("/f.txt", "r")
        fs.read(handle)
        fs.close(handle)
        assert fs.agent.storage.cloud_writes == before

    def test_reads_of_unmodified_files_are_local(self, aws_b):
        deployment, fs = aws_b
        fs.write_file("/f.txt", b"cached content")
        before = fs.agent.storage.cloud_reads
        assert fs.read_file("/f.txt") == b"cached content"
        assert fs.agent.storage.cloud_reads == before  # served from the local cache


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
        anchored = fs.agent.metadata.lookup("/doc.txt", use_cache=False)
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

    def test_background_commit_charges_nothing(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=23)
        fs = deployment.create_agent("alice")
        fs.write_file("/doc.txt", b"data", shared=True)
        (task, complete), = fs.agent._pending_tasks.values()
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
        assert bob.agent.stats.extra["acl_propagations"] == 3
        bob.write_file("/f.txt", b"v3")  # at most once per (file, party)
        assert bob.agent.stats.extra["acl_propagations"] == 3
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
        assert alice.agent.open_handles() == 0
        assert alice.agent.locks._manager.held == {}
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
        with pytest.raises(ConflictError):
            bob.close(handle)
        assert "filelock:" + bob.stat("/shared.txt").file_id not in bob.agent.locks._manager.held
        alice.close(alice.open("/shared.txt", "r+"))

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
        fs.write_file("/f.txt", b"x")
        fs.read_file("/f.txt")
        stats = fs.statistics()
        assert stats.opens == 2 and stats.closes == 2
        assert stats.writes == 1 and stats.reads == 1
        assert stats.syscalls >= 6

    def test_unmount_flushes_open_files(self, coc_nb):
        deployment, fs = coc_nb
        handle = fs.open("/f.txt", "w")
        fs.write(handle, b"pending")
        fs.unmount()
        deployment.drain()
        deployment.create_agent("alice2")
        # alice2 cannot read alice's file (no grant); check via alice's backend instead.
        assert fs.agent.open_handles() == 0

    def test_nonblocking_unmount_flushes_the_whole_pns_in_the_background(self):
        """Upload *and* anchor put: a dirty PNS costs the unmount no simulated time."""

        def unmount_cost(dirty):
            deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=11,
                                                    private_name_spaces=True)
            fs = deployment.create_agent("alice")
            if dirty:
                fs.mkdir("/home")  # private: stays in the PNS until the next save
            assert fs.agent.pns.dirty is dirty
            deployment.coordination.rsm.latency = LatencyModel(base=0.080)  # no jitter
            before = deployment.sim.now()
            fs.unmount()
            assert fs.agent.pns.saves == (1 if dirty else 0)
            return deployment.sim.now() - before

        clean = unmount_cost(dirty=False)
        assert clean > 0  # the PNS lock's release and the session's close
        assert unmount_cost(dirty=True) == pytest.approx(clean, abs=1e-9)

    def test_non_sharing_agent_has_no_coordination(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=4)
        fs = deployment.create_agent("alice")
        assert fs.agent.coordination is None
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
