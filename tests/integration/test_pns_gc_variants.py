"""Integration tests: private name spaces, garbage collection and all Table 2
variants end-to-end."""

import pytest

from repro.common.types import Permission
from repro.common.units import KB
from repro.core.config import SCFSConfig
from repro.core.deployment import SCFSDeployment
from repro.core.modes import VARIANTS


class TestPrivateNameSpacesIntegration:
    def _deployment(self):
        return SCFSDeployment.for_variant("SCFS-CoC-NB", seed=41, private_name_spaces=True)

    def test_private_files_do_not_touch_the_coordination_service(self):
        deployment = self._deployment()
        fs = deployment.create_agent("alice")
        fs.mkdir("/home")
        entries_before = deployment.coordination_entries()
        commands_before = deployment.coordination.rsm.commands_executed
        for i in range(10):
            fs.write_file(f"/home/note-{i}.txt", b"private note")
        assert deployment.coordination_entries() == entries_before
        assert deployment.coordination.rsm.commands_executed == commands_before
        # The background commits send one command each: the PNS tuple's put.
        deployment.drain(5.0)
        commands = deployment.coordination.rsm.commands_executed - commands_before
        saves = fs.backend.list_versions(fs.pns.unit_id)
        assert commands == len(saves)

    def test_shared_files_still_get_coordination_entries(self):
        deployment = self._deployment()
        fs = deployment.create_agent("alice")
        fs.mkdir("/shared", shared=True)
        before = deployment.coordination_entries()
        fs.write_file("/shared/doc.txt", b"shared", shared=True)
        assert deployment.coordination_entries() == before + 1

    def test_setfacl_promotes_private_file_to_shared(self):
        deployment = self._deployment()
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/report.txt", b"was private")
        assert alice.pns.contains("/report.txt")
        before = deployment.coordination_entries()
        alice.setfacl("/report.txt", "bob", Permission.READ)
        assert not alice.pns.contains("/report.txt")
        assert deployment.coordination_entries() == before + 1
        deployment.drain(2.0)
        assert bob.read_file("/report.txt") == b"was private"

    def test_pns_survives_unmount_and_remount(self):
        deployment = self._deployment()
        fs = deployment.create_agent("alice")
        fs.mkdir("/home")
        fs.write_file("/home/persistent.txt", b"still here")
        fs.unmount()
        deployment.drain(2.0)

        again = deployment.create_agent("alice")
        deployment.sim.advance(1.0)
        assert again.read_file("/home/persistent.txt") == b"still here"

    def test_non_sharing_mode_keeps_all_metadata_in_pns(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NS", seed=42)
        fs = deployment.create_agent("alice")
        for i in range(5):
            fs.write_file(f"/file-{i}.txt", b"x")
        assert len(fs.pns) == 5
        assert deployment.coordination is None

    def test_coordination_footprint_shrinks_with_pns(self):
        """The §2.7 argument: with PNSs the coordination service only stores
        entries for the *shared* files (plus one PNS tuple per user)."""
        without_pns = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=43)
        fs_plain = without_pns.create_agent("alice")
        fs_plain.mkdir("/d", shared=True)
        for i in range(20):
            fs_plain.write_file(f"/d/f-{i}.txt", b"x", shared=True)
        without_pns.drain()

        with_pns = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=43, private_name_spaces=True)
        fs_pns = with_pns.create_agent("alice")
        fs_pns.mkdir("/d")
        for i in range(20):
            shared = i < 2  # 10 % shared, like the traces cited in the paper
            fs_pns.write_file(f"/d/f-{i}.txt", b"x", shared=shared)
        with_pns.drain()

        assert with_pns.coordination_entries() < without_pns.coordination_entries() / 3


class TestGarbageCollectionIntegration:
    def _deployment(self, threshold=64 * KB):
        return SCFSDeployment(SCFSConfig.for_variant("SCFS-AWS-B", gc_threshold=threshold), seed=44)

    def test_gc_triggers_automatically_after_w_bytes(self, gc_runs):
        deployment = self._deployment(threshold=32 * KB)
        fs = deployment.create_agent("alice")
        for round_number in range(6):
            fs.write_file("/big.bin", bytes([round_number]) * (16 * KB))
        deployment.drain(2.0)
        assert gc_runs.count(fs.gc) >= 1

    def test_gc_keeps_only_v_versions(self):
        deployment = self._deployment(threshold=1 << 30)
        fs = deployment.create_agent("alice")
        for i in range(5):
            fs.write_file("/doc.txt", f"version {i}".encode())
        deployment.sim.advance(2.0)
        report = fs.collect_garbage()
        assert report.versions_deleted == 2
        meta = fs.stat("/doc.txt")
        remaining = fs.backend.list_versions(meta.file_id)
        assert len(remaining) == 3
        assert meta.digest in {r.digest for r in remaining}

    def test_gc_reclaims_deleted_files_storage_and_metadata(self):
        deployment = self._deployment(threshold=1 << 30)
        fs = deployment.create_agent("alice")
        fs.write_file("/temp.bin", b"z" * (8 * KB), shared=True)
        meta = fs.stat("/temp.bin")
        fs.unlink("/temp.bin")
        deployment.sim.advance(2.0)
        stored_before = deployment.stored_bytes()
        report = fs.collect_garbage()
        assert report.versions_deleted == 1
        assert deployment.stored_bytes() < stored_before
        assert not fs.exists("/temp.bin")
        assert fs.backend.list_versions(meta.file_id) == []

    def test_gc_never_touches_other_users_files(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=45)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        for i in range(5):
            alice.write_file("/mine.txt", b"alice v%d" % i, shared=True)
        bob.write_file("/bobs.txt", b"bob v1", shared=True)
        deployment.sim.advance(2.0)
        report = bob.collect_garbage()
        # Alice's file has two versions past V, but bob's collector never lists it.
        assert (report.versions_deleted, report.errors) == (0, [])
        assert len(alice.backend.list_versions(alice.stat("/mine.txt").file_id)) == 5


class TestAllVariantsEndToEnd:
    @pytest.mark.parametrize("variant_name", sorted(VARIANTS))
    def test_basic_workflow_on_every_variant(self, variant_name):
        deployment = SCFSDeployment.for_variant(variant_name, seed=46)
        fs = deployment.create_agent("user")
        fs.mkdir("/work")
        fs.write_file("/work/a.txt", b"alpha")
        fs.write_file("/work/b.txt", b"beta")
        fs.write_file("/work/c.txt", fs.read_file("/work/a.txt"))
        fs.rename("/work/b.txt", "/work/renamed.txt")
        fs.unlink("/work/a.txt")
        deployment.drain(2.0)
        assert sorted(fs.readdir("/work")) == ["c.txt", "renamed.txt"]
        assert fs.read_file("/work/c.txt") == b"alpha"
        assert fs.read_file("/work/renamed.txt") == b"beta"

    @pytest.mark.parametrize("variant_name", ["SCFS-AWS-B", "SCFS-CoC-NB"])
    def test_larger_files_round_trip(self, variant_name):
        deployment = SCFSDeployment.for_variant(variant_name, seed=47)
        fs = deployment.create_agent("user")
        payload = bytes(i % 251 for i in range(512 * 1024))
        fs.write_file("/large.bin", payload)
        deployment.drain(3.0)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/large.bin") == payload


class TestWriteLocks:
    @pytest.mark.parametrize("variant, pause", [("SCFS-AWS-B", 0.0), ("SCFS-CoC-B", 60.0)])
    def test_locks_prevent_write_write_conflicts(self, variant, pause):
        """Also two lock leases after mount: a lock's lease counts from its take."""
        from repro.common.errors import LockHeldError

        deployment = SCFSDeployment.for_variant(variant, seed=49)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/f.txt", b"v", shared=True)
        alice.setfacl("/f.txt", "bob", Permission.READ_WRITE)
        deployment.drain(2.0)
        deployment.sim.advance(pause)
        handle = alice.open("/f.txt", "r+")
        with pytest.raises(LockHeldError):
            bob.open("/f.txt", "r+")
        alice.close(handle)
        bob.close(bob.open("/f.txt", "r+"))
