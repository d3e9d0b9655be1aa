"""Unit tests for file metadata tuples, caches, configuration and modes."""

import pytest

from repro.common.errors import ConfigurationError, FileSystemError
from repro.common.types import Permission
from repro.core.cache import LRUByteCache, MetadataCache, make_disk_cache, make_memory_cache
from repro.core.config import CacheConfig, GarbageCollectionPolicy, SCFSConfig
from repro.core.metadata import (
    FileMetadata,
    FileType,
    basename,
    normalize_path,
    parent_path,
)
from repro.core.modes import BackendKind, OperationMode, VARIANTS, variant
from repro.simenv.clock import SimClock


class TestPaths:
    def test_normalize_adds_leading_slash(self):
        assert normalize_path("a/b") == "/a/b"

    def test_normalize_collapses_dots_and_slashes(self):
        assert normalize_path("/a//b/../c/.") == "/a/c"

    def test_root_is_preserved(self):
        assert normalize_path("/") == "/"

    def test_empty_path_rejected(self):
        with pytest.raises(FileSystemError):
            normalize_path("")

    def test_parent_path(self):
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert parent_path("/") == "/"

    def test_basename(self):
        assert basename("/a/b/c.txt") == "c.txt"
        assert basename("/") == ""


class TestFileMetadata:
    def _meta(self, **kwargs):
        defaults = dict(path="/docs/file.txt", file_type=FileType.FILE, owner="alice",
                        size=10, file_id="file-1", digest="abc")
        defaults.update(kwargs)
        return FileMetadata(**defaults)

    def test_serialisation_round_trip(self):
        meta = self._meta(grants={"bob": Permission.READ}, data_version=3, deleted=True)
        parsed = FileMetadata.from_bytes(meta.to_bytes())
        assert parsed == meta

    def test_tuple_is_about_one_kilobyte(self):
        meta = self._meta(path="/" + "d" * 100, grants={"bob": Permission.READ_WRITE})
        assert len(meta.to_bytes()) < 1024

    def test_owner_always_allowed(self):
        assert self._meta().allows("alice", Permission.READ_WRITE)

    def test_grants_control_other_users(self):
        meta = self._meta(grants={"bob": Permission.READ})
        assert meta.allows("bob", Permission.READ)
        assert not meta.allows("bob", Permission.WRITE)
        assert not meta.allows("carol", Permission.READ)

    def test_grant_and_revoke(self):
        meta = self._meta()
        meta.grant("bob", Permission.READ_WRITE)
        assert meta.is_shared
        meta.grant("bob", Permission.NONE)
        assert not meta.is_shared

    def test_name_and_parent(self):
        meta = self._meta()
        assert meta.name == "file.txt" and meta.parent == "/docs"

    def test_touch_updates_mtime_and_size(self):
        meta = self._meta()
        meta.touch(now=42.0, size=99)
        assert meta.modified_at == 42.0 and meta.size == 99

    def test_renamed_copy(self):
        meta = self._meta(grants={"bob": Permission.READ})
        moved = meta.renamed("/other/place.txt")
        assert moved.path == "/other/place.txt"
        assert moved.grants == meta.grants
        assert meta.path == "/docs/file.txt"

    def test_copy_is_deep_enough(self):
        meta = self._meta()
        clone = meta.copy()
        clone.grant("bob", Permission.READ)
        assert not meta.is_shared

    def test_type_predicates(self):
        assert self._meta().is_file
        directory = self._meta(file_type=FileType.DIRECTORY)
        assert directory.is_directory and not directory.is_file


class TestLRUByteCache:
    def _cache(self, capacity=100):
        return LRUByteCache(capacity, SimClock(), name="test")

    def test_get_miss_returns_none(self):
        assert self._cache().get("missing") is None

    def test_put_then_get(self):
        cache = self._cache()
        cache.put("a", b"12345")
        assert cache.get("a") == b"12345"
        assert cache.hits == 1 and cache.misses == 0

    def test_capacity_enforced_with_lru_eviction(self):
        cache = self._cache(capacity=10)
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        cache.get("a")                      # refresh a; b becomes LRU
        evicted = cache.put("c", b"12345")
        assert [key for key, _ in evicted] == ["b"]
        assert cache.contains("a") and not cache.contains("b")

    def test_oversized_value_not_stored(self):
        cache = self._cache(capacity=4)
        assert cache.put("big", b"123456") == []
        assert not cache.contains("big")

    def test_replacing_key_updates_usage(self):
        cache = self._cache(capacity=10)
        cache.put("a", b"123456789")
        cache.put("a", b"12")
        assert cache.used_bytes == 2

    def test_remove_and_clear(self):
        cache = self._cache()
        cache.put("a", b"1")
        cache.remove("a")
        assert not cache.contains("a")
        cache.put("b", b"2")
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_access_charges_latency(self):
        clock = SimClock()
        cache = LRUByteCache(1000, clock)
        cache.put("a", b"x" * 100)
        cache.get("a")
        assert clock.now() > 0.0

    def test_disk_cache_slower_than_memory_cache(self):
        clock_mem, clock_disk = SimClock(), SimClock()
        memory = make_memory_cache(1 << 20, clock_mem)
        disk = make_disk_cache(1 << 20, clock_disk)
        memory.put("k", b"x" * 10_000)
        disk.put("k", b"x" * 10_000)
        assert clock_disk.now() > clock_mem.now()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUByteCache(-1, SimClock())


class TestMetadataCache:
    def test_entry_expires(self):
        clock = SimClock()
        cache = MetadataCache(clock, expiration=0.5)
        cache.put("k", "value")
        assert cache.get("k") == "value"
        clock.advance(0.6)
        assert cache.get("k") is None

    def test_zero_expiration_disables_caching(self):
        cache = MetadataCache(SimClock(), expiration=0.0)
        cache.put("k", "value")
        assert cache.get("k") is None

    def test_invalidate(self):
        cache = MetadataCache(SimClock(), expiration=10.0)
        cache.put("k", "value")
        cache.invalidate("k")
        assert cache.get("k") is None

    def test_hit_and_miss_counters(self):
        clock = SimClock()
        cache = MetadataCache(clock, expiration=1.0)
        cache.put("k", "v")
        cache.get("k")
        cache.get("other")
        assert cache.hits == 1 and cache.misses == 1

    def test_paths_never_asked_for_again_do_not_accumulate(self):
        """``len`` stays bounded by the entries younger than ``expiration``."""
        clock = SimClock()
        cache = MetadataCache(clock, expiration=0.5)
        for index in range(1000):  # one created file every 0.2 s, none looked up again
            cache.put(f"/d/f{index:04d}", index)
            assert len(cache) <= 3
            clock.advance(0.2)
        assert cache.get("/d/f0999") == 999 and cache.get("/d/f0996") is None

    def test_a_rewritten_entry_is_as_young_as_its_last_put(self):
        clock = SimClock()
        cache = MetadataCache(clock, expiration=0.5)
        cache.put("old", 1)
        cache.put("kept", 1)
        clock.advance(0.4)
        cache.put("old", 2)  # moves behind "kept" in stored order
        clock.advance(0.2)
        cache.put("new", 1)  # "kept" (0.6 s) goes, "old" (0.2 s) stays
        assert len(cache) == 2
        assert (cache.get("old"), cache.get("kept"), cache.get("new")) == (2, None, 1)
        assert (cache.hits, cache.misses) == (2, 1)

    def test_eviction_uses_the_verdict_of_get(self):
        """An entry exactly ``expiration`` old is still a hit, so it is not evicted."""
        clock = SimClock()
        cache = MetadataCache(clock, expiration=0.5)
        cache.put("edge", 1)
        clock.advance(0.5)
        cache.put("other", 1)
        assert len(cache) == 2 and cache.get("edge") == 1

    def test_negative_expiration_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache(SimClock(), expiration=-1.0)


class TestConfig:
    def test_default_config_is_valid(self):
        SCFSConfig().validate()

    def test_variant_configurations(self):
        blocking = SCFSConfig.for_variant("SCFS-CoC-B")
        assert blocking.mode is OperationMode.BLOCKING
        assert blocking.backend is BackendKind.COC
        assert blocking.fault_tolerance == 1 and blocking.encrypt_data

        aws_ns = SCFSConfig.for_variant("SCFS-AWS-NS")
        assert aws_ns.mode is OperationMode.NON_SHARING
        assert aws_ns.private_name_spaces
        assert aws_ns.fault_tolerance == 0 and not aws_ns.encrypt_data

    def test_non_sharing_requires_pns(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(mode=OperationMode.NON_SHARING, private_name_spaces=False).validate()

    def test_with_mode_forces_pns_for_non_sharing(self):
        config = SCFSConfig().with_mode(OperationMode.NON_SHARING)
        assert config.private_name_spaces
        config.validate()

    def test_bad_cache_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(caches=CacheConfig(memory_bytes=-1)).validate()

    def test_bad_gc_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            GarbageCollectionPolicy(versions_to_keep=0).validate()
        with pytest.raises(ConfigurationError):
            GarbageCollectionPolicy(written_bytes_threshold=0).validate()

    def test_unknown_coordination_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(coordination_kind="chubby").validate()

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            SCFSConfig.for_variant("SCFS-MOON-B")


class TestModes:
    def test_table2_has_six_variants(self):
        assert len(VARIANTS) == 6

    def test_variant_lookup_is_case_insensitive(self):
        assert variant("scfs-coc-nb").mode is OperationMode.NON_BLOCKING

    def test_labels(self):
        assert variant("SCFS-CoC-NB").label == "CoC-NB"
        assert variant("SCFS-AWS-B").label == "AWS-B"

    def test_mode_properties(self):
        assert OperationMode.BLOCKING.blocks_on_close
        assert not OperationMode.NON_BLOCKING.blocks_on_close
        assert not OperationMode.NON_SHARING.uses_coordination
        assert OperationMode.NON_BLOCKING.uses_coordination
