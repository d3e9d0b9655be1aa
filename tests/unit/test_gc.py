"""Direct coverage of the garbage collector (§2.5.3) and of the non-blocking
close ordering — both previously exercised only through integration flows."""

from __future__ import annotations

import pytest

from repro.common.errors import CloudUnavailableError
from repro.core.config import GarbageCollectionPolicy
from repro.core.deployment import SCFSDeployment
from repro.crypto.hashing import content_digest
from repro.scenarios.trace import TraceRecorder
from repro.simenv.failures import FaultKind


def make_deployment(seed=61, variant="SCFS-CoC-B", **gc_overrides):
    policy = GarbageCollectionPolicy(
        written_bytes_threshold=gc_overrides.pop("written_bytes_threshold", 4096),
        versions_to_keep=gc_overrides.pop("versions_to_keep", 2),
        **gc_overrides,
    )
    return SCFSDeployment.for_variant(variant, seed=seed, gc=policy)


class TestActivationPolicy:
    def test_activates_only_past_the_written_bytes_threshold(self, gc_runs):
        deployment = make_deployment(written_bytes_threshold=10_000)
        fs = deployment.create_agent("alice")
        gc = fs.gc
        fs.write_file("/small.txt", b"x" * 100)
        deployment.drain(1.0)
        assert gc_runs.count(gc) == 0  # 100 bytes < W: close did not trigger a run
        fs.write_file("/big.txt", b"x" * 20_000)
        deployment.drain(1.0)
        assert gc_runs.count(gc) == 1  # crossing W triggers exactly one background run

    def test_maybe_schedule_defers_a_background_run(self, gc_runs):
        deployment = make_deployment()
        fs = deployment.create_agent("alice")
        fs.write_file("/data.txt", b"x" * 8192)
        # close() already calls maybe_schedule; once the deferred task ran,
        # the byte counter is rearmed and a second schedule is a no-op.
        deployment.drain(1.0)
        assert gc_runs.count(fs.gc) >= 1
        assert fs.gc.maybe_schedule() is False

    def test_disabled_policy_never_activates(self):
        deployment = make_deployment(enabled=False)
        fs = deployment.create_agent("alice")
        fs.write_file("/data.txt", b"x" * 100_000)
        assert not fs.gc.should_activate()


class TestCollection:
    def test_keeps_only_the_last_v_versions(self):
        deployment = make_deployment(versions_to_keep=2)
        fs = deployment.create_agent("alice")
        for i in range(5):
            fs.write_file("/versioned.txt", b"generation-%d" % i)
            deployment.drain(3.0)
        report = fs.collect_garbage()
        meta = fs.stat("/versioned.txt")
        refs = fs.backend.list_versions(meta.file_id)
        assert len(refs) == 2
        assert meta.digest in {r.digest for r in refs}
        assert report.versions_deleted == 3
        assert report.bytes_reclaimed > 0

    def test_an_older_version_with_the_current_bytes_counts_against_v(self):
        deployment = make_deployment(versions_to_keep=2)
        fs = deployment.create_agent("alice")
        for data in (b"A", b"B", b"A", b"C"):
            fs.write_file("/revisited.txt", data * 64)
            deployment.drain(3.0)
        report = fs.collect_garbage()
        meta = fs.stat("/revisited.txt")
        refs = fs.backend.list_versions(meta.file_id)
        # v3 (A again) and v4 (C) stay; v1, with v3's bytes, goes with v2.
        assert [ref.digest for ref in refs] == [content_digest(b"A" * 64), meta.digest]
        assert report.versions_deleted == 2
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/revisited.txt") == b"C" * 64

    def test_deleting_an_older_copy_of_the_current_bytes_keeps_them_cached(self):
        deployment = make_deployment(versions_to_keep=2)
        fs = deployment.create_agent("alice")
        for data in (b"A", b"B", b"A"):
            fs.write_file("/reverted.txt", data * 64)
            deployment.drain(3.0)
        assert fs.collect_garbage().versions_deleted == 1
        reads = fs.storage.cloud_reads
        assert fs.read_file("/reverted.txt") == b"A" * 64
        assert fs.storage.cloud_reads == reads

    def test_current_version_is_always_kept(self):
        deployment = make_deployment(versions_to_keep=1)
        fs = deployment.create_agent("alice")
        for i in range(3):
            fs.write_file("/current.txt", b"rev-%d" % i)
            deployment.drain(3.0)
        fs.collect_garbage()
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/current.txt") == b"rev-2"

    def test_purges_user_deleted_files(self):
        deployment = make_deployment()
        fs = deployment.create_agent("alice")
        fs.write_file("/doomed.txt", b"payload" * 50)
        deployment.drain(3.0)
        meta = fs.stat("/doomed.txt")
        fs.unlink("/doomed.txt")
        report = fs.collect_garbage()
        assert report.deleted_files_purged == 1
        assert fs.backend.list_versions(meta.file_id) == []
        assert not fs.exists("/doomed.txt")

    def test_keep_interval_retains_newest_version_per_bucket(self):
        deployment = make_deployment(versions_to_keep=1, keep_interval_seconds=100.0)
        fs = deployment.create_agent("alice")
        for i in range(4):
            fs.write_file("/daily.txt", b"day-%d" % i)
            deployment.drain(0.0)
            deployment.sim.advance(100.0)  # one version per retention bucket
        fs.collect_garbage()
        meta = fs.stat("/daily.txt")
        refs = fs.backend.list_versions(meta.file_id)
        # One version per 100 s bucket survives, not just the current one.
        assert len(refs) == 4

    def test_only_owned_files_are_collected(self):
        deployment = make_deployment(variant="SCFS-CoC-B")
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.write_file("/mine.txt", b"alice data")
        bob.write_file("/yours.txt", b"bob data")
        deployment.drain(3.0)
        report = alice.collect_garbage()
        assert report.files_examined == 1  # only /mine.txt

    def test_backend_errors_are_reported_not_raised(self):
        deployment = make_deployment(versions_to_keep=1)
        fs = deployment.create_agent("alice")
        for i in range(3):
            fs.write_file("/flaky.txt", b"v%d" % i)
            deployment.drain(3.0)

        def explode(file_id, digest, locator=""):
            raise CloudUnavailableError("provider offline")

        fs.backend.delete_version = explode
        report = fs.collect_garbage()
        assert report.errors and "provider offline" in report.errors[0]

    def test_a_delete_that_missed_its_quorum_is_an_error_not_a_reclaimed_version(self):
        deployment = make_deployment(versions_to_keep=1)
        fs = deployment.create_agent("alice")
        for i in range(3):
            fs.write_file("/stuck.txt", b"v%d" % i)
            deployment.drain(3.0)
        meta = fs.stat("/stuck.txt")
        outage = deployment.sim.now()
        # The versions were listed, then three of four clouds went away: the
        # deletes reach one cloud, no write quorum.
        listing = fs.backend.list_versions(meta.file_id)
        fs.backend.list_versions = lambda file_id: listing
        for cloud in deployment.clouds[1:]:
            cloud.failures.add(FaultKind.UNAVAILABLE, start=outage, end=outage + 50.0)
        report = fs.collect_garbage()
        assert (report.versions_deleted, report.bytes_reclaimed) == (0, 0)
        assert len(report.errors) == 2 and all("not deleted" in e for e in report.errors)
        # The next pass finds them again by LIST and finishes the job.
        del fs.backend.list_versions
        deployment.sim.advance(60.0)
        report = fs.collect_garbage()
        assert (report.versions_deleted, report.errors) == (2, [])
        assert [ref.digest for ref in fs.backend.list_versions(meta.file_id)] == [meta.digest]

    def test_a_purge_that_could_not_delete_keeps_the_entry_for_the_next_pass(self):
        deployment = make_deployment()
        fs = deployment.create_agent("alice")
        fs.write_file("/doomed.txt", b"payload" * 50)
        deployment.drain(3.0)
        fs.unlink("/doomed.txt")
        fs.backend.delete_version = lambda file_id, digest, locator="": False
        report = fs.collect_garbage()
        assert (report.deleted_files_purged, report.versions_deleted) == (0, 0)
        del fs.backend.delete_version
        report = fs.collect_garbage()
        assert (report.deleted_files_purged, report.versions_deleted) == (1, 1)

    def test_gc_is_latency_free_for_the_foreground(self):
        deployment = make_deployment()
        fs = deployment.create_agent("alice")
        for i in range(3):
            fs.write_file("/quiet.txt", b"v%d" % i)
            deployment.drain(3.0)
        before = deployment.sim.now()
        fs.collect_garbage()
        assert deployment.sim.now() == before


class TestNonBlockingCloseOrdering:
    @pytest.mark.parametrize("variant", ["SCFS-CoC-NB", "SCFS-CoC-B"])
    def test_upload_then_commit_then_unlock(self, variant):
        """The commit pipeline preserves upload → metadata-update → unlock in
        both modes; in the non-blocking mode all three happen after close
        returned (§3.1)."""
        recorder = TraceRecorder()
        deployment = SCFSDeployment.for_variant(variant, seed=62)
        fs = deployment.create_agent("alice", events=recorder.record)
        handle = fs.open("/ordered.txt", "w", shared=True)
        fs.write(handle, b"payload" * 20)
        fs.close(handle)
        if variant.endswith("-NB"):
            # close returned before the cloud saw anything.
            assert recorder.count("upload") == 0
            assert len(fs._pending_commits) == 1
        deployment.drain(3.0)
        upload = next(recorder.by_kind("upload"))
        commit = next(recorder.by_kind("commit"))
        unlock = next(recorder.by_kind("unlock"))
        assert upload.seq < commit.seq < unlock.seq
        assert upload.get("background") is (variant.endswith("-NB"))

    def test_fsync_reaches_local_disk_only(self):
        recorder = TraceRecorder()
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=63)
        fs = deployment.create_agent("alice", events=recorder.record)
        handle = fs.open("/fsynced.txt", "w", shared=True)
        fs.write(handle, b"durable level 1")
        fs.fsync(handle)
        assert recorder.count("fsync") == 1
        assert recorder.count("upload") == 0  # nothing went to the cloud yet
        fs.close(handle)
        deployment.drain(3.0)
        assert recorder.count("commit") == 1
