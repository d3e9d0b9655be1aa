"""Unit tests for the SCFS Agent's local services: PNS, metadata, locks, storage, GC, users."""

import pytest

from repro.clouds.providers import make_provider
from repro.common.errors import (
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    LockHeldError,
    PermissionDeniedError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import make_coordination_service
from repro.core.backend import SingleCloudBackend
from repro.core.cache import MetadataCache, make_disk_cache, make_memory_cache
from repro.core.config import GarbageCollectionPolicy
from repro.core.gc import GarbageCollector
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType
from repro.core.metadata_service import MetadataService
from repro.core.pns import PrivateNameSpace
from repro.core.storage_service import StorageService
from repro.core.users import UserRegistry
from repro.crypto.hashing import content_digest


@pytest.fixture
def single_backend(sim, alice):
    store = make_provider(sim, "amazon-s3", charge_latency=True)
    return SingleCloudBackend(sim, store, alice)


@pytest.fixture
def coordination(sim):
    return make_coordination_service(sim, "depspace", f=0)


def _file_meta(path="/f.txt", owner="alice", **kwargs):
    defaults = dict(path=path, file_type=FileType.FILE, owner=owner, file_id="file-1")
    defaults.update(kwargs)
    return FileMetadata(**defaults)


class TestPrivateNameSpace:
    def test_put_get_remove(self, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        meta = _file_meta()
        pns.put(meta)
        assert pns.contains("/f.txt")
        assert pns.get("/f.txt") == meta
        assert pns.remove("/f.txt") == meta
        assert not pns.contains("/f.txt")

    def test_get_returns_copy(self, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        pns.put(_file_meta())
        fetched = pns.get("/f.txt")
        fetched.grant("bob", Permission.READ)
        assert not pns.get("/f.txt").is_shared

    def test_save_and_load_round_trip_via_cloud(self, sim, single_backend, coordination, alice):
        session = coordination.open_session(alice)
        pns = PrivateNameSpace("alice", single_backend, coordination, session)
        pns.put(_file_meta("/a.txt"))
        pns.put(_file_meta("/b.txt", file_id="file-2"))
        digest = pns.save()
        assert digest is not None
        sim.advance(3.0)

        fresh = PrivateNameSpace("alice", single_backend, coordination, session)
        assert fresh.load()
        assert sorted(fresh.paths()) == ["/a.txt", "/b.txt"]

    def test_save_without_changes_is_noop(self, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        assert pns.save() is None

    def test_load_of_fresh_namespace_returns_false(self, single_backend, coordination, alice):
        session = coordination.open_session(alice)
        pns = PrivateNameSpace("alice", single_backend, coordination, session)
        assert not pns.load()

    def test_children_of(self, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        pns.put(_file_meta("/docs/a.txt"))
        pns.put(_file_meta("/docs/b.txt", file_id="file-2"))
        pns.put(_file_meta("/other/c.txt", file_id="file-3"))
        children = pns.children_of("/docs")
        assert sorted(m.path for m in children) == ["/docs/a.txt", "/docs/b.txt"]

    def test_background_save_does_not_advance_clock(self, sim, single_backend, coordination,
                                                    alice):
        """Neither half of a background save — the upload, the anchor put — is charged."""
        session = coordination.open_session(alice)
        pns = PrivateNameSpace("alice", single_backend, coordination, session)
        pns.put(_file_meta())
        before = sim.now()
        with sim.background():
            assert pns.save() is not None
        assert sim.now() == before
        assert coordination.get(pns.tuple_key, session).value


class TestMetadataService:
    def _service(self, sim, coordination, alice, pns=None, expiration=0.5):
        session = coordination.open_session(alice) if coordination else None
        cache = MetadataCache(sim.clock, expiration)
        return MetadataService(sim, alice, cache, coordination=coordination,
                               session=session, pns=pns)

    def test_requires_some_metadata_store(self, sim, alice):
        with pytest.raises(ValueError):
            MetadataService(sim, alice, MetadataCache(sim.clock, 0.5))

    def test_root_always_exists(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        assert service.get("/").is_directory

    def test_create_and_get(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(_file_meta("/x.txt"))
        assert service.get("/x.txt").path == "/x.txt"

    def test_create_duplicate_rejected(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(_file_meta("/x.txt"))
        with pytest.raises(FileExistsErrorFS):
            service.create(_file_meta("/x.txt"))

    def test_get_missing_raises(self, sim, coordination, alice):
        with pytest.raises(FileNotFoundErrorFS):
            self._service(sim, coordination, alice).get("/ghost")

    def test_cache_serves_repeated_lookups(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(_file_meta("/x.txt"))
        before = service.coordination_reads
        service.get("/x.txt")
        service.get("/x.txt")
        assert service.coordination_reads == before  # both served from cache

    def test_cache_expiration_forces_coordination_access(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice, expiration=0.1)
        service.create(_file_meta("/x.txt"))
        sim.advance(1.0)
        before = service.coordination_reads
        service.get("/x.txt")
        assert service.coordination_reads == before + 1

    def test_update_requires_write_permission(self, sim, coordination, alice, bob):
        service = self._service(sim, coordination, alice)
        meta = _file_meta("/x.txt", owner="bob")
        with pytest.raises(PermissionDeniedError):
            service.update(meta)

    def test_mark_deleted_hides_from_get(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        meta = service.create(_file_meta("/x.txt"))
        service.mark_deleted(meta)
        with pytest.raises(FileNotFoundErrorFS):
            service.get("/x.txt")
        assert service.lookup("/x.txt").deleted

    def test_list_children_merges_shared_and_private(self, sim, coordination, alice, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        service = self._service(sim, coordination, alice, pns=pns)
        service.create(_file_meta("/d/shared.txt"), shared=True)
        service.create(_file_meta("/d/private.txt", file_id="file-2"))
        names = [m.name for m in service.list_children("/d")]
        assert names == ["private.txt", "shared.txt"]

    def test_private_files_avoid_coordination(self, sim, coordination, alice, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        service = self._service(sim, coordination, alice, pns=pns)
        service.create(_file_meta("/home/private.txt"))
        before_reads, before_writes = service.coordination_reads, service.coordination_writes
        service.get("/home/private.txt", use_cache=False)
        meta = service.get("/home/private.txt", use_cache=False)
        meta.size = 10
        service.update(meta)
        assert (service.coordination_reads, service.coordination_writes) == (before_reads, before_writes)

    def test_promote_to_shared_moves_entry_out_of_pns(self, sim, coordination, alice, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        service = self._service(sim, coordination, alice, pns=pns)
        meta = service.create(_file_meta("/home/file.txt"))
        assert pns.contains("/home/file.txt")
        meta.grant("bob", Permission.READ)
        service.promote_to_shared(meta)
        assert not pns.contains("/home/file.txt")
        assert service.get("/home/file.txt", use_cache=False).is_shared

    def test_demote_to_private_moves_entry_back(self, sim, coordination, alice, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        service = self._service(sim, coordination, alice, pns=pns)
        meta = service.create(_file_meta("/shared.txt"), shared=True)
        service.demote_to_private(meta)
        assert pns.contains("/shared.txt")

    def test_rename_file(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(_file_meta("/old.txt"))
        service.rename("/old.txt", "/new.txt")
        assert service.exists("/new.txt") and not service.exists("/old.txt")

    def test_rename_directory_moves_descendants(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(FileMetadata(path="/dir", file_type=FileType.DIRECTORY, owner="alice"))
        service.create(_file_meta("/dir/a.txt"))
        service.create(_file_meta("/dir/sub/b.txt", file_id="file-2"))
        service.rename("/dir", "/moved")
        assert service.exists("/moved/a.txt")
        assert service.exists("/moved/sub/b.txt")
        assert not service.exists("/dir/a.txt")

    def test_rename_to_existing_path_rejected(self, sim, coordination, alice):
        service = self._service(sim, coordination, alice)
        service.create(_file_meta("/a.txt"))
        service.create(_file_meta("/b.txt", file_id="file-2"))
        with pytest.raises(FileExistsErrorFS):
            service.rename("/a.txt", "/b.txt")

    def test_owned_paths(self, sim, coordination, alice, single_backend):
        pns = PrivateNameSpace("alice", single_backend)
        service = self._service(sim, coordination, alice, pns=pns)
        service.create(_file_meta("/mine-shared.txt"), shared=True)
        service.create(_file_meta("/mine-private.txt", file_id="file-2"))
        assert set(service.owned_paths()) >= {"/mine-shared.txt", "/mine-private.txt"}


class TestLockService:
    def test_disabled_without_coordination(self, sim):
        service = LockService(sim, None, None)
        assert not service.enabled
        assert service.acquire(_file_meta()) is False
        service.release(_file_meta())  # no-op, must not raise

    def test_acquire_and_release(self, sim, coordination, alice):
        session = coordination.open_session(alice)
        service = LockService(sim, coordination, session)
        meta = _file_meta()
        assert service.acquire(meta)
        assert service.holds(meta)
        service.release(meta)
        assert not service.holds(meta)

    def test_conflict_raises(self, sim, coordination, alice, bob):
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        first = LockService(sim, coordination, s1)
        second = LockService(sim, coordination, s2)
        meta = _file_meta()
        first.acquire(meta)
        with pytest.raises(LockHeldError):
            second.acquire(meta)

    def test_lock_set_fires_one_transition_per_name_taken_or_returned(
            self, sim, coordination, alice):
        service = LockService(sim, coordination, coordination.open_session(alice))
        transitions = []
        service.on_transition = lambda kind, name: transitions.append((kind, name))
        a, b, c = (_file_meta(f"/{n}", file_id=f"f{n}") for n in "abc")
        service.acquire(b)  # e.g. a handle this agent holds open for writing
        commands = coordination.rsm.commands_executed
        service.acquire_set([a, b, c])
        service.release_set([a, b, c])
        assert coordination.rsm.commands_executed == commands + 2
        assert transitions == [("lock", "filelock:fb"), ("lock", "filelock:fa"),
                               ("lock", "filelock:fc"), ("unlock", "filelock:fa"),
                               ("unlock", "filelock:fc")]
        assert service.holds(b) and not service.holds(a) and not service.holds(c)

    def test_lock_set_with_two_paths_of_one_file_returns_what_it_took(
            self, sim, coordination, alice):
        session = coordination.open_session(alice)
        service = LockService(sim, coordination, session)
        # One file seen under two paths (read as /a, renamed to /b since).
        old, new = _file_meta("/a", file_id="f1"), _file_meta("/b", file_id="f1")
        service.acquire(old)  # an open write handle of this agent
        service.acquire_set([old, new])
        service.release_set([old, new])
        assert service.holds(old)
        assert coordination.lock_holder("filelock:f1") == session.session_id

    def test_refused_lock_set_holds_nothing_and_names_the_file(
            self, sim, coordination, alice, bob):
        mine = LockService(sim, coordination, coordination.open_session(alice))
        theirs = LockService(sim, coordination, coordination.open_session(bob))
        transitions = []
        mine.on_transition = lambda kind, name: transitions.append((kind, name))
        a, b, c = (_file_meta(f"/dir/{n}", file_id=f"f{n}") for n in "abc")
        theirs.acquire(b)
        with pytest.raises(LockHeldError, match="/dir/b is locked"):
            mine.acquire_set([a, b, c])
        assert transitions == []
        assert not any(mine.holds(meta) for meta in (a, b, c))
        assert coordination.lock_holder("filelock:fa") is None
        LockService(sim, None, None).acquire_set([a, b])  # disabled: a no-op

    def test_release_all(self, sim, coordination, alice):
        session = coordination.open_session(alice)
        service = LockService(sim, coordination, session)
        service.acquire(_file_meta("/a", file_id="fa"))
        service.acquire(_file_meta("/b", file_id="fb"))
        service.release_all()
        assert not service.holds(_file_meta("/a", file_id="fa"))


class TestStorageService:
    def _service(self, sim, backend):
        return StorageService(sim, backend,
                              make_memory_cache(1 << 20, sim.clock),
                              make_disk_cache(1 << 24, sim.clock),
                              read_retry_interval=0.5)

    def test_push_then_read_comes_from_memory(self, sim, single_backend):
        service = self._service(sim, single_backend)
        data = b"hello" * 100
        ref = service.push_to_cloud("file-1", data)
        service.store_in_memory("file-1", ref.digest, data)
        outcome = service.read_version("file-1", ref.digest)
        assert outcome.source == "memory" and outcome.data == data

    def test_read_falls_back_to_disk_then_cloud(self, sim, single_backend):
        service = self._service(sim, single_backend)
        data = b"content" * 50
        ref = service.push_to_cloud("file-1", data)
        service.flush_to_disk("file-1", ref.digest, data)
        assert service.read_version("file-1", ref.digest).source == "disk"

        other = self._service(sim, single_backend)
        sim.advance(3.0)
        outcome = other.read_version("file-1", ref.digest)
        assert outcome.source == "cloud" and outcome.data == data

    def test_cloud_read_waits_for_propagation(self, sim, single_backend):
        service = self._service(sim, single_backend)
        data = b"slow cloud"
        with sim.background():
            ref = single_backend.write_version("file-1", data)
        start = sim.now()
        outcome = service.read_version("file-1", ref.digest)
        assert outcome.data == data
        assert sim.now() > start  # had to poll at least once

    def test_empty_digest_means_empty_file(self, sim, single_backend):
        service = self._service(sim, single_backend)
        assert service.read_version("file-1", "").data == b""

    def test_memory_eviction_spills_to_disk(self, sim, single_backend):
        service = StorageService(sim, single_backend,
                                 make_memory_cache(150, sim.clock),
                                 make_disk_cache(1 << 20, sim.clock))
        service.store_in_memory("f1", "d1", b"x" * 100)
        service.store_in_memory("f2", "d2", b"y" * 100)  # evicts f1 from memory
        assert service.cached_locally("f1", "d1")
        assert service.read_version("f1", "d1").source == "disk"

    def test_bytes_pushed_counter(self, sim, single_backend):
        service = self._service(sim, single_backend)
        service.push_to_cloud("f", b"12345")
        service.push_to_cloud_uncharged("f", b"123")
        assert service.bytes_pushed == 8 and service.cloud_writes == 2

    def test_push_many_counts_like_single_pushes(self, sim, single_backend):
        service = self._service(sim, single_backend)
        refs = service.push_many_to_cloud([("f", b"12345", 1), ("g", b"123", 4)])
        assert [ref.digest for ref in refs] == [content_digest(b"12345"), content_digest(b"123")]
        assert service.bytes_pushed == 8 and service.cloud_writes == 2
        sim.advance(3.0)
        assert single_backend.read_version("g", refs[1].digest) == b"123"

    def test_forget_drops_cached_version(self, sim, single_backend):
        service = self._service(sim, single_backend)
        service.store_in_memory("f", "d", b"x")
        service.flush_to_disk("f", "d", b"x")
        service.forget("f", "d")
        assert not service.cached_locally("f", "d")


class TestGarbageCollector:
    def _setup(self, sim, coordination, alice, single_backend, policy=None):
        session = coordination.open_session(alice)
        cache = MetadataCache(sim.clock, 0.5)
        metadata = MetadataService(sim, alice, cache, coordination=coordination, session=session)
        storage = StorageService(sim, single_backend,
                                 make_memory_cache(1 << 20, sim.clock),
                                 make_disk_cache(1 << 24, sim.clock))
        policy = policy or GarbageCollectionPolicy(written_bytes_threshold=1000, versions_to_keep=2)
        collector = GarbageCollector(sim, policy, metadata, storage, single_backend)
        return metadata, storage, collector

    def _write_versions(self, metadata, storage, path, payloads):
        meta = _file_meta(path, file_id=f"unit-{path.strip('/')}")
        for payload in payloads:
            ref = storage.push_to_cloud(meta.file_id, payload)
            meta.digest = ref.digest
            meta.size = len(payload)
            meta.data_version += 1
        if metadata.exists(path):
            metadata.update(meta)
        else:
            metadata.create(meta, shared=True)
        return meta

    def test_old_versions_are_reclaimed(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(sim, coordination, alice, single_backend)
        self._write_versions(metadata, storage, "/doc.txt", [b"v1", b"v2" * 5, b"v3" * 10])
        sim.advance(3.0)
        report = collector.run()
        assert report.files_examined == 1
        assert report.versions_deleted == 1  # keeps current + one older (V=2)
        assert len(single_backend.list_versions("unit-doc.txt")) == 2

    def test_current_version_always_survives(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(
            sim, coordination, alice, single_backend,
            policy=GarbageCollectionPolicy(written_bytes_threshold=1, versions_to_keep=1))
        meta = self._write_versions(metadata, storage, "/doc.txt", [b"old", b"current"])
        sim.advance(3.0)
        collector.run()
        remaining = single_backend.list_versions(meta.file_id)
        assert [r.digest for r in remaining] == [content_digest(b"current")]

    def test_deleted_files_are_purged_with_metadata(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(sim, coordination, alice, single_backend)
        meta = self._write_versions(metadata, storage, "/gone.txt", [b"data"])
        metadata.mark_deleted(meta)
        sim.advance(3.0)
        report = collector.run()
        assert report.deleted_files_purged == 1
        assert single_backend.list_versions(meta.file_id) == []
        assert metadata.lookup("/gone.txt", use_cache=False) is None

    def test_activation_threshold(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(sim, coordination, alice, single_backend)
        assert not collector.should_activate()
        storage.push_to_cloud("some-file", b"x" * 2000)
        assert collector.should_activate()
        assert collector.maybe_schedule()
        assert not collector.maybe_schedule()  # counter reset until next W bytes
        sim.drain()
        assert collector.runs == 1

    def test_disabled_policy_never_activates(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(
            sim, coordination, alice, single_backend,
            policy=GarbageCollectionPolicy(enabled=False))
        storage.push_to_cloud("f", b"x" * (1 << 20))
        assert not collector.should_activate()

    def test_gc_does_not_charge_foreground_latency(self, sim, coordination, alice, single_backend):
        metadata, storage, collector = self._setup(sim, coordination, alice, single_backend)
        self._write_versions(metadata, storage, "/doc.txt", [b"v1", b"v2", b"v3"])
        sim.advance(3.0)
        before = sim.now()
        collector.run()
        assert sim.now() == before


class TestUserRegistry:
    def test_register_and_lookup_across_sessions(self, sim, coordination, alice, bob):
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        UserRegistry(coordination, bob_session).register(bob)
        registry = UserRegistry(coordination, alice_session)
        looked_up = registry.lookup("bob")
        assert looked_up.name == "bob"
        assert looked_up.canonical_id("amazon-s3") == "bob@amazon-s3"

    def test_unknown_user_raises(self, sim, coordination, alice):
        session = coordination.open_session(alice)
        registry = UserRegistry(coordination, session)
        with pytest.raises(FileNotFoundErrorFS):
            registry.lookup("nobody")

    def test_local_registry_without_coordination(self):
        registry = UserRegistry(None, None)
        registry.register(Principal("solo"))
        assert registry.lookup("solo").name == "solo"
        with pytest.raises(FileNotFoundErrorFS):
            registry.lookup("other")
