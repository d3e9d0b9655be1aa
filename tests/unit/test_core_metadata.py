"""Unit tests for file metadata tuples, caches, configuration and modes."""

import math

import pytest

from repro.common.errors import ConfigurationError, FileSystemError
from repro.common.types import Permission
from repro.core.cache import LRUByteCache, MetadataCache, make_disk_cache, make_memory_cache
from repro.core.config import DispatchPolicyConfig, SCFSConfig
from repro.core.metadata import (
    FileMetadata,
    FileType,
    basename,
    normalize_path,
    parent_path,
)
from repro.core.modes import BackendKind, OperationMode, VARIANTS, variant
from repro.simenv.environment import Simulation


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
        return LRUByteCache(capacity, Simulation(), name="test")

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
        cache.put("c", b"12345")
        assert list(cache._entries) == ["a", "c"]

    def test_oversized_value_not_stored(self):
        cache = self._cache(capacity=4)
        cache.put("big", b"123")
        cache.put("big", b"123456")
        assert not cache.contains("big") and cache._used == 0

    def test_a_key_holds_one_tagged_value(self):
        cache = self._cache()
        cache.put("f", b"old", tag="d1")
        cache.put("f", b"new", tag="d2")
        assert cache.get("f", "d1") is None and cache.get("f", "d2") == b"new"
        assert cache.hits == 1 and cache.misses == 1 and list(cache._entries) == ["f"]
        cache.remove("f", "d1")
        assert cache.contains("f", "d2")
        cache.remove("f", "d2")
        assert not cache.contains("f") and cache._used == 0

    def test_a_value_is_stored_by_reference_and_charged_at_its_stored_size(self):
        cache = self._cache()
        buffer = bytearray(b"1234")
        cache.put("open", buffer)
        buffer.extend(b"5678")
        assert cache.get("open") is buffer and cache._used == 4
        cache.remove("open")
        assert cache._used == 0

    def test_replacing_key_updates_usage(self):
        cache = self._cache(capacity=10)
        cache.put("a", b"123456789")
        cache.put("a", b"12")
        assert cache._used == 2

    def test_remove_and_clear(self):
        cache = self._cache()
        cache.put("a", b"1")
        cache.remove("a")
        assert not cache.contains("a")
        cache.put("b", b"2")
        cache.clear()
        assert not cache._entries and cache._used == 0

    def test_access_charges_latency(self):
        sim = Simulation()
        cache = LRUByteCache(1000, sim)
        cache.put("a", b"x" * 100)
        cache.get("a")
        assert sim.now() > 0.0

    def test_disk_cache_slower_than_memory_cache(self):
        sim_mem, sim_disk = Simulation(), Simulation()
        memory = make_memory_cache(1 << 20, sim_mem)
        disk = make_disk_cache(1 << 20, sim_disk)
        memory.put("k", b"x" * 10_000)
        disk.put("k", b"x" * 10_000)
        assert sim_disk.now() > sim_mem.now()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUByteCache(-1, Simulation())


class TestMetadataCache:
    def test_entry_expires(self):
        sim = Simulation()
        cache = MetadataCache(sim, expiration=0.5)
        cache.put("k", "value")
        assert cache.get("k") == "value"
        sim.advance(0.6)
        assert cache.get("k") is None

    def test_zero_expiration_disables_caching(self):
        cache = MetadataCache(Simulation(), expiration=0.0)
        cache.put("k", "value")
        assert cache.get("k") is None

    def test_invalidate(self):
        cache = MetadataCache(Simulation(), expiration=10.0)
        cache.put("k", "value")
        cache.invalidate("k")
        assert cache.get("k") is None

    def test_hit_and_miss_counters(self):
        sim = Simulation()
        cache = MetadataCache(sim, expiration=1.0)
        cache.put("k", "v")
        cache.get("k")
        cache.get("other")
        assert cache.hits == 1 and cache.misses == 1

    def test_paths_never_asked_for_again_do_not_accumulate(self):
        """The entries kept stay bounded by those younger than ``expiration``."""
        sim = Simulation()
        cache = MetadataCache(sim, expiration=0.5)
        for index in range(1000):  # one created file every 0.2 s, none looked up again
            cache.put(f"/d/f{index:04d}", index)
            assert len(cache._entries) <= 3
            sim.advance(0.2)
        assert cache.get("/d/f0999") == 999 and cache.get("/d/f0996") is None

    def test_a_rewritten_entry_is_as_young_as_its_last_put(self):
        sim = Simulation()
        cache = MetadataCache(sim, expiration=0.5)
        cache.put("old", 1)
        cache.put("kept", 1)
        sim.advance(0.4)
        cache.put("old", 2)  # moves behind "kept" in stored order
        sim.advance(0.2)
        cache.put("new", 1)  # "kept" (0.6 s) goes, "old" (0.2 s) stays
        assert len(cache._entries) == 2
        assert (cache.get("old"), cache.get("kept"), cache.get("new")) == (2, None, 1)
        assert (cache.hits, cache.misses) == (2, 1)

    def test_eviction_uses_the_verdict_of_get(self):
        """An entry exactly ``expiration`` old is still a hit, so it is not evicted."""
        sim = Simulation()
        cache = MetadataCache(sim, expiration=0.5)
        cache.put("edge", 1)
        sim.advance(0.5)
        cache.put("other", 1)
        assert len(cache._entries) == 2 and cache.get("edge") == 1

    def test_negative_expiration_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache(Simulation(), expiration=-1.0)


#: Every float the config surface takes, dotted as in ``test_config_surface.SURFACE``.
FLOAT_KNOBS = ("metadata_expiration", "lock_lease", "gc_threshold", "dispatch.timeout",
               "dispatch.hedge_delay", "dispatch.probe_backoff", "dispatch.probe_backoff_factor",
               "dispatch.probe_backoff_max")


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

    def test_bad_cache_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(metadata_expiration=-1.0).validate()

    def test_the_single_cloud_backend_tolerates_no_faults(self):
        # f follows the backend: one store and one DepSpace VM tolerate
        # nothing, and f = 1 is the only value the four CoC providers fit.
        assert SCFSConfig(backend=BackendKind.AWS).fault_tolerance == 0
        assert SCFSConfig(backend=BackendKind.COC).fault_tolerance == 1
        with pytest.raises(TypeError):
            SCFSConfig(backend=BackendKind.AWS, fault_tolerance=1)

    def test_bad_gc_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(gc_threshold=0).validate()

    def test_an_infinite_gc_threshold_is_valid(self):
        SCFSConfig(gc_threshold=math.inf).validate()

    @pytest.mark.parametrize("knob, value", [
        (knob, value) for knob in FLOAT_KNOBS for value in (math.nan, math.inf, -math.inf)
        if (knob, value) != ("gc_threshold", math.inf)  # W = inf: never collect
    ])
    def test_every_float_knob_rejects_nan_and_infinities(self, knob, value):
        # suspicion_threshold = 2: the probe knobs are read (and checked) only with a tracker.
        dispatch = {"suspicion_threshold": 2}
        top = {}
        group, _, name = knob.rpartition(".")
        (dispatch if group else top)[name] = value
        with pytest.raises(ConfigurationError):
            SCFSConfig(dispatch=DispatchPolicyConfig(**dispatch), **top).validate()

    def test_a_coc_variant_takes_encrypt_data_as_an_override(self):
        plain = SCFSConfig.for_variant("SCFS-CoC-B", encrypt_data=False)
        assert not plain.encrypt_data and plain.backend is BackendKind.COC

    def test_a_non_sharing_variant_takes_private_name_spaces_as_an_override(self):
        assert SCFSConfig.for_variant("SCFS-CoC-NS", private_name_spaces=True).private_name_spaces
        assert SCFSConfig.for_variant("SCFS-CoC-B", private_name_spaces=True).private_name_spaces

    def test_a_non_sharing_variant_without_pns_is_rejected(self):
        with pytest.raises(ConfigurationError, match="private name spaces"):
            SCFSConfig.for_variant("SCFS-CoC-NS", private_name_spaces=False)

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
