"""Unit tests for the simulated cloud object stores, ACLs, pricing and accounting."""

import pytest

from repro.clouds.access_control import ObjectACL
from repro.clouds.accounting import CostTracker, UsageBreakdown
from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.pricing import StoragePricing
from repro.clouds.providers import (
    COC_STORAGE_PROVIDERS,
    COMPUTE_PRICING,
    PROVIDER_PROFILES,
    make_cloud_of_clouds,
    make_provider,
)
from repro.common.errors import (
    AccessDeniedError,
    CloudUnavailableError,
    ObjectNotFoundError,
)
from repro.common.types import Permission, Principal
from repro.common.units import GB, MONTH_SECONDS
from repro.crypto.hashing import content_digest
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import NetworkProfile


class TestObjectACL:
    def test_owner_has_full_access(self):
        acl = ObjectACL(owner="alice")
        assert acl.allows("alice", Permission.READ_WRITE)

    def test_unknown_user_has_no_access(self):
        assert not ObjectACL(owner="alice").allows("bob", Permission.READ)

    def test_grant_and_revoke(self):
        acl = ObjectACL(owner="alice")
        acl.grant("bob", Permission.READ)
        assert acl.allows("bob", Permission.READ)
        assert not acl.allows("bob", Permission.WRITE)
        acl.revoke("bob")
        assert not acl.allows("bob", Permission.READ)

    def test_grant_none_removes_entry(self):
        acl = ObjectACL(owner="alice")
        acl.grant("bob", Permission.READ)
        acl.grant("bob", Permission.NONE)
        assert "bob" not in acl.grants

    def test_check_raises_for_denied(self):
        acl = ObjectACL(owner="alice@s3")
        with pytest.raises(AccessDeniedError):
            acl.check(Principal("bob"), "s3", Permission.READ)

    def test_copy_is_independent(self):
        acl = ObjectACL(owner="alice")
        clone = acl.copy()
        clone.grant("bob", Permission.READ)
        assert "bob" not in acl.grants


class TestPricing:
    def test_outbound_dominates_read_cost(self):
        pricing = StoragePricing()
        assert pricing.outbound_cost(GB) == pytest.approx(0.12)
        assert pricing.inbound_cost(GB) == 0.0

    def test_storage_cost_per_month(self):
        pricing = StoragePricing()
        assert pricing.storage_cost(GB, MONTH_SECONDS) == pytest.approx(0.09)

    def test_compute_pricing_lookup(self):
        ec2 = COMPUTE_PRICING["amazon-ec2"]
        assert ec2.price_per_day("large") == pytest.approx(6.24)
        with pytest.raises(KeyError):
            ec2.price_per_day("nano")

    def test_coc_vm_rental_matches_figure_11a(self):
        total = sum(COMPUTE_PRICING[p].price_per_day("large")
                    for p in ("amazon-ec2", "windows-azure", "rackspace", "elastichosts"))
        assert total == pytest.approx(39.60)


class TestCostTracker:
    def test_request_costs_accumulate(self):
        tracker = CostTracker(StoragePricing(put_request=1e-5, get_request=4e-6))
        tracker.record_put(100)
        tracker.record_get(100)
        tracker.record_get(100)
        assert tracker.request_cost() == pytest.approx(1e-5 + 8e-6)

    def test_traffic_cost_counts_only_outbound(self):
        tracker = CostTracker(StoragePricing())
        tracker.record_put(GB)   # inbound: free
        tracker.record_get(GB)   # outbound: $0.12
        assert tracker.traffic_cost() == pytest.approx(0.12)

    def test_storage_cost_uses_byte_seconds(self):
        tracker = CostTracker(StoragePricing())
        tracker.record_storage(GB, MONTH_SECONDS)
        assert tracker.storage_cost() == pytest.approx(0.09)

    def test_reset_clears_usage_but_keeps_pricing(self):
        tracker = CostTracker(StoragePricing())
        tracker.record_get(100)
        tracker.reset()
        assert tracker.total_cost() == 0.0

    def test_usage_merge(self):
        a = UsageBreakdown(put_requests=1, bytes_out=5)
        b = UsageBreakdown(put_requests=2, bytes_in=7)
        merged = a.merge(b)
        assert merged.put_requests == 3 and merged.bytes_out == 5 and merged.bytes_in == 7


class TestEventuallyConsistentStore:
    def _store(self, sim, **kwargs):
        return EventuallyConsistentStore(sim, name="amazon-s3", **kwargs)

    def test_put_then_get_after_propagation(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"value", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.get("k", alice) == b"value"

    def test_new_key_invisible_before_propagation(self, sim, alice):
        store = self._store(sim)
        profile = NetworkProfile(propagation_delay=100.0)
        store.profile = profile
        store.put("fresh", b"v", alice)
        with pytest.raises(ObjectNotFoundError):
            store.get("fresh", alice)

    def test_overwrite_returns_old_version_until_propagated(self, sim, alice):
        store = self._store(sim, profile=NetworkProfile(propagation_delay=50.0))
        store.put("k", b"old", alice)
        store.force_visibility()
        store.put("k", b"new", alice)
        assert store.get("k", alice) == b"old"
        sim.advance(60.0)
        assert store.get("k", alice) == b"new"

    def test_get_charges_latency(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"x" * 1024, alice)
        store.force_visibility()
        before = sim.now()
        store.get("k", alice)
        assert sim.now() > before

    def test_charge_latency_flag_disables_clock_advance(self, sim, alice):
        store = self._store(sim, charge_latency=False)
        store.put("k", b"x", alice)
        assert sim.now() == 0.0

    def test_missing_key_raises(self, sim, alice):
        with pytest.raises(ObjectNotFoundError):
            self._store(sim).get("nope", alice)

    def test_head_returns_metadata_without_payload(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"12345", alice)
        store.force_visibility()
        version = store.head("k", alice)
        assert version.size == 5 and version.key == "k"

    def test_head_digest_is_lazily_computed_and_cached(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"payload", alice)
        store.force_visibility()
        stored = store._objects["k"]
        assert stored.digest is None  # fault-free put defers the sha256
        version = store.head("k", alice)
        assert version.digest == content_digest(b"payload")
        assert stored.digest == version.digest  # cached after the first head

    def test_faulty_put_hashes_the_sent_bytes_eagerly(self, sim, alice):
        # When the stored bytes differ from the sent bytes (DROP_WRITES),
        # the as-put digest cannot be derived lazily from the stored data —
        # it must be captured at put time.
        failures = FailureSchedule()
        failures.add(FaultKind.DROP_WRITES)
        store = self._store(sim, failures=failures)
        store.put("k", b"value", alice)
        store.force_visibility()
        assert store._objects["k"].digest == content_digest(b"value")
        assert store.head("k", alice).digest == content_digest(b"value")

    def test_delete_is_idempotent(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"v", alice)
        store.delete("k", alice)
        store.delete("k", alice)
        assert not store.exists("k", alice)

    def test_acl_blocks_other_users(self, sim, alice, bob):
        store = self._store(sim)
        store.put("k", b"v", alice)
        store.force_visibility()
        with pytest.raises(AccessDeniedError):
            store.get("k", bob)

    def test_set_acl_grants_read(self, sim, alice, bob):
        store = self._store(sim)
        store.put("k", b"v", alice)
        store.force_visibility()
        store.set_acl("k", bob.canonical_id("amazon-s3"), Permission.READ, alice)
        assert store.get("k", bob) == b"v"
        with pytest.raises(AccessDeniedError):
            store.put("k", b"w", bob)

    def test_only_owner_may_set_acl(self, sim, alice, bob):
        store = self._store(sim)
        store.put("k", b"v", alice)
        store.force_visibility()
        with pytest.raises(AccessDeniedError):
            store.set_acl("k", "eve", Permission.READ, bob)

    def test_bucket_policy_covers_future_objects(self, sim, alice, bob):
        store = self._store(sim)
        store.set_bucket_policy("shared/", bob.canonical_id("amazon-s3"), Permission.READ, alice)
        store.put("shared/new.bin", b"v", alice)
        store.force_visibility()
        assert store.get("shared/new.bin", bob) == b"v"

    def test_list_keys_respects_prefix_and_acl(self, sim, alice, bob):
        store = self._store(sim)
        store.put("a/1", b"x", alice)
        store.put("a/2", b"y", alice)
        store.put("b/1", b"z", alice)
        store.force_visibility()
        assert store.list_keys("a/", alice).keys == ["a/1", "a/2"]
        assert store.list_keys("a/", bob).keys == []

    def test_list_entries_say_what_a_head_would(self, sim, alice):
        store = self._store(sim)
        store.put("a/1", b"four", alice)
        sim.advance(5.0)
        store.put("a/2", b"sixsix", alice)
        store.force_visibility()
        listing = store.list_keys("a/", alice)
        assert [(e.key, e.size) for e in listing.entries] == [("a/1", 4), ("a/2", 6)]
        assert listing.total_bytes == 10
        assert [e.created_at for e in listing.entries] == [
            store.head(key, alice).created_at for key in listing.keys]
        # One billed LIST, no HEAD per key.
        assert [kind for kind, _key, _size in store.request_log].count("list") == 1

    def test_the_key_index_lists_what_a_sorted_scan_would(self, sim, alice):
        store = self._store(sim)
        rng = sim.fork_rng("keys")
        keys = {f"{rng.choice('abc')}/{rng.choice('xyz')}{rng.randrange(40):02d}"
                for _ in range(200)}
        for key in sorted(keys, key=lambda key: (key[-1], key)):  # not in key order
            store.put(key, b"v", alice)
        store.put("a/x00", b"overwritten", alice)  # an existing key is indexed once
        gone = sorted(keys)[::3]
        for key in gone:
            store.delete(key, alice)
        store.delete("never/there", alice)
        store.force_visibility()
        left = sorted((keys | {"a/x00"}) - set(gone))
        assert store._keys == sorted(store._objects) == left
        for prefix in ("", "a/", "b/x", "b/x1", "c/z39", "d", "a0"):
            assert store.list_keys(prefix, alice).keys == [
                key for key in left if key.startswith(prefix)]

    def test_unavailability_fault(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.UNAVAILABLE, start=0.0, end=100.0)
        store = self._store(sim, failures=failures)
        with pytest.raises(CloudUnavailableError):
            store.put("k", b"v", alice)

    def test_fault_window_expires(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.UNAVAILABLE, start=0.0, end=5.0)
        store = self._store(sim, failures=failures)
        sim.advance(6.0)
        store.put("k", b"v", alice)
        store.force_visibility()
        assert store.get("k", alice) == b"v"

    def test_byzantine_fault_corrupts_reads(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.BYZANTINE)
        store = self._store(sim, failures=failures)
        store.put("k", b"value", alice)
        store.force_visibility()
        assert store.get("k", alice) != b"value"

    def test_drop_writes_fault_loses_data(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.DROP_WRITES)
        store = self._store(sim, failures=failures)
        store.put("k", b"value", alice)
        store.force_visibility()
        assert store.get("k", alice) == b""

    def test_cost_tracking_records_requests_and_traffic(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"x" * 1000, alice)
        store.force_visibility()
        store.get("k", alice)
        usage = store.costs.usage
        assert usage.put_requests == 1 and usage.get_requests == 1
        assert usage.bytes_in == 1000 and usage.bytes_out == 1000

    def test_stored_bytes_and_object_count(self, sim, alice):
        store = self._store(sim)
        store.put("a", b"12345", alice)
        store.put("b", b"123", alice)
        assert store.stored_bytes() == 8
        assert store.object_count() == 2


class TestProviders:
    def test_known_profiles_exist(self):
        assert set(COC_STORAGE_PROVIDERS) <= set(PROVIDER_PROFILES)

    def test_make_provider_unknown_name(self, sim):
        with pytest.raises(KeyError):
            make_provider(sim, "not-a-cloud")

    def test_make_cloud_of_clouds_returns_four_distinct_stores(self, sim):
        clouds = make_cloud_of_clouds(sim)
        assert len(clouds) == 4
        assert len({c.name for c in clouds}) == 4
        assert all(not c.charge_latency for c in clouds)

    def test_make_provider_charges_latency_by_default(self, sim):
        assert make_provider(sim, "amazon-s3").charge_latency
