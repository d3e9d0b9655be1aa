"""Unit tests for the baseline systems (LocalFS, S3FS-like, S3QL-like, Dropbox-like)."""

import pytest

from repro.baselines.dropbox import DropboxLikeService, DropboxProfile
from repro.baselines.localfs import LocalFS
from repro.baselines.s3fs import S3FSLike
from repro.baselines.s3ql import S3QLLike
from repro.clouds.providers import make_provider
from repro.common.errors import FileNotFoundErrorFS, InvalidHandleError, PermissionDeniedError
from repro.common.types import Principal
from repro.common.units import KB


@pytest.fixture
def localfs(sim):
    return LocalFS(sim)


@pytest.fixture
def s3fs(sim):
    return S3FSLike(sim, make_provider(sim, "amazon-s3"), Principal("u"))


@pytest.fixture
def s3ql(sim):
    return S3QLLike(sim, make_provider(sim, "amazon-s3"), Principal("u"))


@pytest.fixture(params=["localfs", "s3fs", "s3ql"])
def baseline(request, sim):
    if request.param == "localfs":
        return LocalFS(sim)
    store = make_provider(sim, "amazon-s3")
    cls = S3FSLike if request.param == "s3fs" else S3QLLike
    return cls(sim, store, Principal("u"))


class TestBaselineCommonBehaviour:
    def test_write_then_read_back(self, baseline, sim):
        baseline.write_file("/f.txt", b"hello")
        sim.drain(3.0)
        assert baseline.read_file("/f.txt") == b"hello"

    def test_missing_file_raises(self, baseline):
        with pytest.raises(FileNotFoundErrorFS):
            baseline.open("/missing", "r")

    def test_read_only_handles_reject_writes(self, baseline, sim):
        baseline.write_file("/f.txt", b"x")
        sim.drain(3.0)
        handle = baseline.open("/f.txt", "r")
        with pytest.raises(PermissionDeniedError):
            baseline.write(handle, b"no")
        baseline.close(handle)

    def test_unknown_open_mode_rejected(self, baseline):
        # The mode table SCFS accepts, nothing more: "x" was read as writable.
        with pytest.raises(ValueError, match="unsupported open mode"):
            baseline.open("/f.txt", "x")
        assert not baseline.exists("/f.txt")

    def test_unknown_handle_rejected(self, baseline):
        with pytest.raises(InvalidHandleError):
            baseline.read(1234)

    def test_a_copy_is_a_whole_read_and_a_whole_write(self, baseline, sim):
        baseline.write_file("/src", b"payload")
        sim.drain(3.0)
        baseline.write_file("/dst", baseline.read_file("/src"))
        sim.drain(3.0)
        assert baseline.read_file("/dst") == b"payload"

    def test_truncate_mode_resets_contents(self, baseline, sim):
        baseline.write_file("/f", b"long old content")
        sim.drain(3.0)
        baseline.write_file("/f", b"new")
        sim.drain(3.0)
        assert baseline.read_file("/f") == b"new"

    def test_exists_and_unlink(self, baseline, sim):
        baseline.write_file("/f", b"x")
        sim.drain(3.0)
        assert baseline.exists("/f")
        baseline.unlink("/f")
        assert not baseline.exists("/f")

    def test_fsync_does_not_lose_data(self, baseline, sim):
        handle = baseline.open("/f", "w")
        baseline.write(handle, b"durable")
        baseline.fsync(handle)
        baseline.close(handle)
        sim.drain(3.0)
        assert baseline.read_file("/f") == b"durable"

    def test_unmount_closes_open_handles(self, baseline, sim):
        handle = baseline.open("/f", "w")
        baseline.write(handle, b"data")
        baseline.unmount()
        with pytest.raises(InvalidHandleError):
            baseline.read(handle)


class TestLatencyShapes:
    def test_localfs_is_fast(self, localfs, sim):
        start = sim.now()
        for i in range(10):
            localfs.write_file(f"/f{i}", b"x" * 16 * KB)
        assert sim.now() - start < 1.0

    def test_s3fs_create_is_orders_of_magnitude_slower_than_localfs(self, sim):
        localfs = LocalFS(sim)
        start = sim.now()
        for i in range(10):
            localfs.write_file(f"/l{i}", b"x" * 16 * KB)
        local_elapsed = sim.now() - start

        s3fs = S3FSLike(sim, make_provider(sim, "amazon-s3"), Principal("u"))
        start = sim.now()
        for i in range(10):
            s3fs.write_file(f"/s{i}", b"x" * 16 * KB)
        s3fs_elapsed = sim.now() - start
        assert s3fs_elapsed > 100 * local_elapsed

    def test_s3ql_close_is_local_and_upload_happens_in_background(self, s3ql, sim):
        start = sim.now()
        s3ql.write_file("/f", b"x" * 64 * KB)
        assert sim.now() - start < 0.5
        assert not s3ql.store.exists("s3ql/f", s3ql.principal)
        sim.drain()
        sim.advance(s3ql.store.profile.propagation_delay)
        assert s3ql.store.exists("s3ql/f", s3ql.principal)

    def test_s3ql_small_writes_pay_the_chunk_penalty(self, s3ql, sim):
        handle = s3ql.open("/f", "w")
        start = sim.now()
        for i in range(100):
            s3ql.write(handle, b"x" * 4096, offset=i * 4096)
        small_elapsed = sim.now() - start
        start = sim.now()
        s3ql.write(handle, b"x" * 409_600, offset=0)
        large_elapsed = sim.now() - start
        s3ql.close(handle)
        assert small_elapsed > 10 * large_elapsed

    def test_s3fs_blocking_close_uploads_synchronously(self, s3fs, sim):
        s3fs.write_file("/f", b"x" * 256 * KB)
        assert s3fs.store.stored_bytes() >= 256 * KB  # stored before the close returned


class TestLocalFSSpecifics:
    def test_fsync_writes_to_disk_before_the_close(self, localfs, sim):
        handle = localfs.open("/f", "w")
        localfs.write(handle, b"synced")
        assert localfs.read_file("/f") == b""  # still only in the open file
        localfs.fsync(handle)
        assert localfs.read_file("/f") == b"synced"
        localfs.close(handle)

    def test_unlink_missing_raises(self, localfs):
        with pytest.raises(FileNotFoundErrorFS):
            localfs.unlink("/ghost")


class TestDropboxLikeService:
    def test_file_eventually_reaches_other_clients(self, sim):
        service = DropboxLikeService(sim)
        writer = service.register("writer")
        reader = service.register("reader")
        writer.write_file("/doc", b"shared bytes")
        assert not reader.has_file("/doc")
        waited = reader.wait_for("/doc")
        assert reader.read_file("/doc") == b"shared bytes"
        assert waited > 5.0  # detection + upload + processing + notify + download

    def test_writer_sees_its_own_file_immediately(self, sim):
        service = DropboxLikeService(sim)
        writer = service.register("writer")
        writer.write_file("/doc", b"x")
        assert writer.has_file("/doc")

    def test_reading_before_arrival_raises(self, sim):
        service = DropboxLikeService(sim)
        writer = service.register("writer")
        reader = service.register("reader")
        writer.write_file("/doc", b"x")
        with pytest.raises(FileNotFoundErrorFS):
            reader.read_file("/doc")

    def test_every_other_client_receives_the_file(self, sim):
        service = DropboxLikeService(sim)
        writer = service.register("writer")
        readers = [service.register(name) for name in ("r1", "r2")]
        writer.write_file("/doc", b"fan-out")
        for reader in readers:
            reader.wait_for("/doc")
            assert reader.read_file("/doc") == b"fan-out"

    def test_waiting_for_a_file_nobody_wrote_times_out(self, sim):
        service = DropboxLikeService(sim)
        reader = service.register("reader")
        start = sim.now()
        with pytest.raises(FileNotFoundErrorFS):
            reader.wait_for("/nope", poll_interval=1.0, timeout=5.0)
        assert 5.0 < sim.now() - start <= 6.0
        assert not reader.has_file("/nope")

    def test_larger_files_take_longer(self, sim):
        service = DropboxLikeService(sim, DropboxProfile())
        writer = service.register("writer")
        reader = service.register("reader")
        writer.write_file("/small", b"x" * 1024)
        small = reader.wait_for("/small")
        writer.write_file("/big", b"x" * (8 << 20))
        big = reader.wait_for("/big")
        assert big > small
