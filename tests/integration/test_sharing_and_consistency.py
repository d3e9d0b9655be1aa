"""Integration tests: controlled sharing, consistency-on-close and ACL enforcement.

These tests exercise several agents against the same deployment (clouds +
coordination service), i.e. the whole stack from the POSIX-like façade down to
the simulated providers.
"""

import pytest

from repro.common.errors import (
    AccessDeniedError,
    LockHeldError,
    PermissionDeniedError,
    QuorumNotReachedError,
)
from repro.common.types import Permission
from repro.core.deployment import SCFSDeployment


@pytest.fixture(params=["SCFS-AWS-B", "SCFS-CoC-B"])
def blocking_deployment(request):
    return SCFSDeployment.for_variant(request.param, seed=21)


@pytest.fixture(params=["SCFS-AWS-NB", "SCFS-CoC-NB"])
def nonblocking_deployment(request):
    return SCFSDeployment.for_variant(request.param, seed=22)


class TestControlledSharing:
    def test_grantee_can_read_after_setfacl(self, blocking_deployment):
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.mkdir("/project", shared=True)
        alice.write_file("/project/plan.txt", b"the plan", shared=True)
        alice.setfacl("/project/plan.txt", "bob", Permission.READ)
        deployment.drain(2.0)
        assert bob.read_file("/project/plan.txt") == b"the plan"

    def test_non_grantee_cannot_read(self, blocking_deployment):
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        eve = deployment.create_agent("eve")
        alice.write_file("/secret.txt", b"classified", shared=True)
        deployment.drain(2.0)
        with pytest.raises(PermissionDeniedError):
            eve.read_file("/secret.txt")

    def test_read_grant_does_not_allow_writes(self, blocking_deployment):
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/doc.txt", b"v1", shared=True)
        alice.setfacl("/doc.txt", "bob", Permission.READ)
        deployment.drain(2.0)
        with pytest.raises(PermissionDeniedError):
            bob.open("/doc.txt", "r+")

    def test_write_grant_allows_updates_visible_to_owner(self, blocking_deployment):
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/doc.txt", b"from alice", shared=True)
        alice.setfacl("/doc.txt", "bob", Permission.READ_WRITE)
        deployment.drain(2.0)
        bob.write_file("/doc.txt", b"from bob")
        deployment.drain(2.0)
        deployment.sim.advance(1.0)  # let the reader's metadata cache expire
        assert alice.read_file("/doc.txt") == b"from bob"

    def test_revoking_access(self, blocking_deployment):
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/doc.txt", b"v1", shared=True)
        alice.setfacl("/doc.txt", "bob", Permission.READ)
        deployment.drain(2.0)
        assert bob.read_file("/doc.txt") == b"v1"
        alice.setfacl("/doc.txt", "bob", Permission.NONE)
        deployment.sim.advance(1.0)
        with pytest.raises(PermissionDeniedError):
            bob.read_file("/doc.txt")

    def test_cloud_side_acls_enforced_not_just_metadata(self, blocking_deployment):
        """Even if a malicious agent skipped the metadata check, the clouds refuse."""
        deployment = blocking_deployment
        alice = deployment.create_agent("alice")
        eve = deployment.create_agent("eve")
        alice.write_file("/secret.txt", b"classified", shared=True)
        deployment.drain(2.0)
        meta = alice.stat("/secret.txt")
        # Eve bypasses her metadata service and talks to the backend directly:
        # one cloud denies her, and no k clouds of a cloud-of-clouds serve her.
        with pytest.raises((AccessDeniedError, QuorumNotReachedError)):
            eve.backend.read_version(meta.file_id, meta.digest, meta.locator)


class TestConsistencyOnClose:
    def test_blocking_close_makes_update_immediately_visible(self, blocking_deployment):
        deployment = blocking_deployment
        writer = deployment.create_agent("writer")
        reader = deployment.create_agent("reader")
        writer.write_file("/shared.bin", b"old", shared=True)
        writer.setfacl("/shared.bin", "reader", Permission.READ)
        deployment.drain(2.0)
        assert reader.read_file("/shared.bin") == b"old"

        writer.write_file("/shared.bin", b"new contents")
        # Close returned, so by consistency-on-close every other client must
        # now observe the new version (after its short metadata cache expires).
        deployment.sim.advance(1.0)
        assert reader.read_file("/shared.bin") == b"new contents"

    def test_non_blocking_update_visible_only_after_background_commit(self, nonblocking_deployment):
        deployment = nonblocking_deployment
        writer = deployment.create_agent("writer")
        reader = deployment.create_agent("reader")
        old_payload = b"o" * (1 << 20)
        new_payload = b"n" * (4 << 20)
        writer.write_file("/shared.bin", old_payload, shared=True)
        writer.setfacl("/shared.bin", "reader", Permission.READ)
        deployment.drain(2.0)
        deployment.sim.advance(1.0)
        assert reader.read_file("/shared.bin") == old_payload
        old_digest = reader.stat("/shared.bin").digest

        writer.write_file("/shared.bin", new_payload)
        deployment.sim.advance(0.7)  # past the metadata cache, before the upload completes
        # The upload of the 4 MB version is still in flight: the reader (whose
        # metadata cache has expired) still observes the previous version...
        assert reader.stat("/shared.bin").digest == old_digest
        # ...until the background commit completes.
        deployment.drain(2.0)
        deployment.sim.advance(1.0)
        assert reader.read_file("/shared.bin") == new_payload

    def test_writer_always_reads_its_own_writes(self, nonblocking_deployment):
        deployment = nonblocking_deployment
        writer = deployment.create_agent("writer")
        writer.write_file("/own.bin", b"version 1")
        assert writer.read_file("/own.bin") == b"version 1"
        writer.write_file("/own.bin", b"version 2")
        assert writer.read_file("/own.bin") == b"version 2"

    def test_mutual_exclusion_preserved_while_upload_pending(self, nonblocking_deployment):
        deployment = nonblocking_deployment
        writer = deployment.create_agent("writer")
        other = deployment.create_agent("other")
        writer.write_file("/shared.bin", b"v0", shared=True)
        deployment.drain(2.0)
        writer.setfacl("/shared.bin", "other", Permission.READ_WRITE)
        deployment.sim.advance(1.0)

        handle = writer.open("/shared.bin", "r+")
        writer.write(handle, b"v1")
        writer.close(handle)
        # The lock is only released after the background upload finishes, so a
        # concurrent open-for-write by another client must still fail.
        with pytest.raises(LockHeldError):
            other.open("/shared.bin", "r+")
        deployment.drain(2.0)
        handle2 = other.open("/shared.bin", "r+")
        other.close(handle2)

    def test_old_version_remains_readable_by_digest_after_update(self, blocking_deployment):
        deployment = blocking_deployment
        writer = deployment.create_agent("writer")
        writer.write_file("/doc.txt", b"first version")
        first = writer.stat("/doc.txt")
        writer.write_file("/doc.txt", b"second version")
        deployment.drain(2.0)
        # Multi-versioning: the previous version still exists in the cloud(s)
        # until the garbage collector reclaims it.  Drop any local copy so the
        # read goes to the cloud, by the locator the anchor named then.
        storage = writer.storage
        storage.forget(first.file_id, first.digest)
        reads = storage.cloud_reads
        assert storage.read_version(first.file_id, first.digest, first.locator) == b"first version"
        assert storage.cloud_reads == reads + 1


class TestCrashRecovery:
    def test_crashed_writer_lock_expires_and_other_client_can_write(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=5)
        config = deployment.config
        writer = deployment.create_agent("writer")
        other = deployment.create_agent("other")
        writer.write_file("/doc.txt", b"v1", shared=True)
        writer.setfacl("/doc.txt", "other", Permission.READ_WRITE)
        deployment.drain(2.0)

        handle = writer.open("/doc.txt", "r+")
        writer.write(handle, b"half-finished update")
        # The writer crashes without closing: its ephemeral lock must expire
        # after the lease so that other clients are not blocked forever.
        with pytest.raises(LockHeldError):
            other.open("/doc.txt", "r+")
        deployment.sim.advance(config.lock_lease + 1.0)
        handle2 = other.open("/doc.txt", "r+")
        other.truncate(handle2, 0)
        other.write(handle2, b"recovered")
        other.close(handle2)
        deployment.sim.advance(1.0)
        assert other.read_file("/doc.txt") == b"recovered"

    def test_completed_updates_survive_local_cache_loss(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=6)
        fs = deployment.create_agent("alice")
        fs.write_file("/important.txt", b"do not lose me")
        deployment.drain(2.0)
        # Simulate losing the local machine: wipe both local caches.
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/important.txt") == b"do not lose me"
