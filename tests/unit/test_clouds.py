"""Unit tests for the simulated cloud object stores, ACLs, pricing and accounting."""

import pytest

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
from repro.common.types import ACL, Permission
from repro.common.units import GB, MONTH_SECONDS
from repro.simenv.environment import derive_rng
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import NetworkProfile


class TestACL:
    def test_owner_has_full_access(self):
        acl = ACL(owner="alice")
        assert acl.allows("alice", Permission.READ_WRITE)

    def test_unknown_user_has_no_access(self):
        assert not ACL(owner="alice").allows("bob", Permission.READ)

    def test_a_grant_allows_what_it_names_and_no_more(self):
        acl = ACL(owner="alice", grants={"bob": Permission.READ})
        assert acl.allows("bob", Permission.READ)
        assert not acl.allows("bob", Permission.WRITE)
        assert not acl.allows("carol", Permission.READ)

    def test_the_star_grant_covers_every_identity(self):
        acl = ACL(owner="alice", grants={"*": Permission.READ, "bob": Permission.WRITE})
        assert acl.allows("carol", Permission.READ)
        assert acl.allows("bob", Permission.READ_WRITE)
        assert not acl.allows("carol", Permission.WRITE)

    def test_with_grant_returns_a_new_acl_and_leaves_the_old_one_alone(self):
        acl = ACL(owner="alice", grants={"bob": Permission.READ})
        granted = acl.with_grant("bob", Permission.READ_WRITE).with_grant("carol", Permission.READ)
        assert granted == ACL("alice", {"bob": Permission.READ_WRITE, "carol": Permission.READ})
        assert acl == ACL("alice", {"bob": Permission.READ})
        assert list(granted.grants) == ["bob", "carol"]  # a re-grant keeps its place

    def test_with_grant_of_none_revokes(self):
        acl = ACL(owner="alice", grants={"bob": Permission.READ, "*": Permission.READ})
        revoked = acl.with_grant("*", Permission.NONE).with_grant("dave", Permission.NONE)
        assert revoked == ACL("alice", {"bob": Permission.READ})
        assert not revoked.allows("carol", Permission.READ)

    def test_a_policy_has_no_owner_and_allows_only_its_grants(self):
        policy = ACL().with_grant("bob", Permission.READ)
        assert policy.owner is None
        assert policy.allows("bob", Permission.READ)
        assert not policy.allows("bob", Permission.WRITE)
        assert not policy.allows("alice", Permission.READ)
        assert not ACL().allows("", Permission.READ)


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
        sim.advance(store.profile.propagation_delay)
        store.put("k", b"new", alice)
        assert store.get("k", alice) == b"old"
        sim.advance(60.0)
        assert store.get("k", alice) == b"new"

    def test_an_overwrite_keeps_no_version_below_the_newest_visible_one(self, sim, alice):
        store = self._store(sim, profile=NetworkProfile(propagation_delay=50.0))
        store.put("k", b"v0", alice)
        sim.advance(60.0)
        for index in range(1, 41):
            store.put("k", f"v{index}".encode(), alice)
            assert store.get("k", alice) == f"v{index - 1}".encode()
            sim.advance(60.0)
        # Two overwrites inside one window: GETs still see the visible version.
        store.put("k", b"a", alice)
        store.put("k", b"b", alice)
        assert store.get("k", alice) == b"v40"
        chain, version = [], store._objects["k"]
        while version is not None:
            chain.append(version.data)
            version = version.previous
        assert chain == [b"b", b"a", b"v40"] and store.stored_bytes() == 1
        sim.advance(60.0)
        assert store.get("k", alice) == b"b"

    def test_get_charges_latency(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"x" * 1024, alice)
        sim.advance(store.profile.propagation_delay)
        before = sim.now()
        store.get("k", alice)
        assert sim.now() > before

    def test_background_request_does_not_advance_clock(self, sim, alice):
        store = self._store(sim)
        with sim.background():
            store.put("k", b"x", alice)
        assert sim.now() == 0.0

    def test_missing_key_raises(self, sim, alice):
        with pytest.raises(ObjectNotFoundError):
            self._store(sim).get("nope", alice)

    def test_delete_is_idempotent(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"v", alice)
        store.delete("k", alice)
        store.delete("k", alice)
        assert not store.exists("k", alice)

    def test_acl_blocks_other_users(self, sim, alice, bob):
        store = self._store(sim)
        store.put("k", b"v", alice)
        sim.advance(store.profile.propagation_delay)
        with pytest.raises(AccessDeniedError):
            store.get("k", bob)

    def test_bucket_policy_covers_future_objects(self, sim, alice, bob):
        store = self._store(sim)
        store.set_bucket_policy("shared/", bob.canonical_id("amazon-s3"), Permission.READ, alice)
        store.put("shared/new.bin", b"v", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.get("shared/new.bin", bob) == b"v"

    def test_list_keys_respects_prefix_and_acl(self, sim, alice, bob):
        store = self._store(sim)
        store.put("a/1", b"x", alice)
        store.put("a/2", b"y", alice)
        store.put("b/1", b"z", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.list_keys("a/", alice).keys == ["a/1", "a/2"]
        assert store.list_keys("a/", bob).keys == []

    def test_list_entries_say_what_the_puts_stored(self, sim, alice):
        store = self._store(sim)
        first = store.put("a/1", b"four", alice)
        sim.advance(5.0)
        second = store.put("a/2", b"sixsix", alice)
        sim.advance(store.profile.propagation_delay)
        listing = store.list_keys("a/", alice)
        assert [(e.key, e.size) for e in listing.entries] == [("a/1", 4), ("a/2", 6)]
        assert [e.created_at for e in listing.entries] == [first.created_at, second.created_at]
        assert second.created_at >= first.created_at + 5.0
        # One billed LIST, nothing per key.
        assert store.costs.usage.list_requests == 1

    def test_the_key_index_lists_what_a_sorted_scan_would(self, sim, alice):
        store = self._store(sim)
        rng = derive_rng(sim.seed, "keys")
        keys = {f"{rng.choice('abc')}/{rng.choice('xyz')}{rng.randrange(40):02d}"
                for _ in range(200)}
        for key in sorted(keys, key=lambda key: (key[-1], key)):  # not in key order
            store.put(key, b"v", alice)
        store.put("a/x00", b"overwritten", alice)  # an existing key is indexed once
        gone = sorted(keys)[::3]
        for key in gone:
            store.delete(key, alice)
        store.delete("never/there", alice)
        sim.advance(store.profile.propagation_delay)
        left = sorted((keys | {"a/x00"}) - set(gone))
        assert list(store._keys.prefixed("")) == sorted(store._objects) == left
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
        sim.advance(store.profile.propagation_delay)
        assert store.get("k", alice) == b"v"

    def test_byzantine_fault_corrupts_reads(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.BYZANTINE)
        store = self._store(sim, failures=failures)
        store.put("k", b"value", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.get("k", alice) != b"value"

    def test_drop_writes_fault_loses_data(self, sim, alice):
        failures = FailureSchedule()
        failures.add(FaultKind.DROP_WRITES)
        store = self._store(sim, failures=failures)
        store.put("k", b"value", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.get("k", alice) == b""

    def test_drop_writes_fault_keeps_the_previous_version(self, sim, alice):
        failures = FailureSchedule()
        store = self._store(sim, failures=failures)
        store.put("k", b"old", alice)
        sim.advance(store.profile.propagation_delay)
        failures.add(FaultKind.DROP_WRITES, start=sim.now())
        store.put("k", b"new", alice)
        sim.advance(store.profile.propagation_delay)
        assert store.get("k", alice) == b"old"

    def test_cost_tracking_records_requests_and_traffic(self, sim, alice):
        store = self._store(sim)
        store.put("k", b"x" * 1000, alice)
        sim.advance(store.profile.propagation_delay)
        store.get("k", alice)
        usage = store.costs.usage
        assert usage.put_requests == 1 and usage.get_requests == 1
        assert usage.bytes_in == 1000 and usage.bytes_out == 1000

    def test_stored_bytes_and_object_count(self, sim, alice):
        store = self._store(sim)
        store.put("a", b"12345", alice)
        store.put("b", b"123", alice)
        assert store.stored_bytes() == 8
        assert len(store._objects) == 2


class TestProviders:
    def test_known_profiles_exist(self):
        assert set(COC_STORAGE_PROVIDERS) <= set(PROVIDER_PROFILES)

    def test_make_provider_unknown_name(self, sim):
        with pytest.raises(KeyError):
            make_provider(sim, "not-a-cloud")

    def test_make_cloud_of_clouds_returns_four_distinct_stores(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        assert len(clouds) == 4
        assert len({c.name for c in clouds}) == 4
        # Plain stores: a DepSky client, not the store, makes their requests
        # background work.
        clouds[0].put("k", b"x", alice)
        assert sim.now() > 0.0

    def test_a_store_charges_unless_the_caller_is_background(self, sim, alice):
        store = make_provider(sim, "amazon-s3")
        store.put("k", b"x", alice)
        charged = sim.now()
        with sim.background():
            store.put("k2", b"x", alice)
        assert charged > 0.0 and sim.now() == charged
