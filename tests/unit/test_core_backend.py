"""Unit tests for the storage backends and the consistency-anchor algorithm."""

import pytest

from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import IntegrityError, ObjectNotFoundError, QuorumNotReachedError
from repro.common.types import Permission
from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend
from repro.core.consistency import (
    AnchoredStorage,
    CoordinationConsistencyAnchor,
    DictConsistencyAnchor,
)
from repro.coordination.adapters import make_coordination_service
from repro.core.config import DispatchPolicyConfig
from repro.crypto.hashing import content_digest


@pytest.fixture(params=["single", "coc"])
def backend(request, sim, alice):
    """Both backends must satisfy the same StorageBackend contract."""
    if request.param == "single":
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        return SingleCloudBackend(sim, store, alice)
    clouds = make_cloud_of_clouds(sim)
    return CloudOfCloudsBackend(sim, clouds, alice, f=1)


class TestStorageBackends:
    def test_write_returns_reference_with_content_digest(self, backend):
        data = b"some file contents" * 10
        ref = backend.write_version("file-1", data)
        assert ref.key == "file-1"
        assert ref.digest == content_digest(data)
        assert ref.size == len(data)

    def test_read_version_by_digest(self, backend, sim):
        data = b"versioned data" * 20
        ref = backend.write_version("file-1", data)
        sim.advance(3.0)
        assert backend.read_version("file-1", ref.digest) == data

    def test_old_versions_remain_readable(self, backend, sim):
        first = backend.write_version("file-1", b"one")
        sim.advance(3.0)
        backend.write_version("file-1", b"two")
        sim.advance(3.0)
        # (The CoC heads name the latest version only: an older one is found
        # through the locator minted when it was written.)
        assert backend.read_version("file-1", first.digest, first.locator) == b"one"

    def test_read_before_propagation_raises(self, backend):
        ref = backend.write_version("file-1", b"fresh")
        with pytest.raises(ObjectNotFoundError):
            backend.read_version("file-1", ref.digest)

    def test_a_version_is_readable_from_the_time_its_locator_estimates(self, backend, sim):
        first = backend.write_version("file-1", b"fresh")
        readable_at = backend.estimate_readable_at(first.locator)
        assert sim.now() < readable_at
        with pytest.raises((ObjectNotFoundError, QuorumNotReachedError)):
            backend.read_version("file-1", first.digest, first.locator)
        sim.advance(max(0.0, readable_at - sim.now()))
        assert backend.read_version("file-1", first.digest, first.locator) == b"fresh"
        # The estimate belongs to the version, not to "the last write".
        second = backend.write_version("file-2", b"later")
        assert backend.estimate_readable_at(second.locator) > sim.now() > readable_at
        assert backend.estimate_readable_at(first.locator) == readable_at

    def test_without_a_locator_there_is_nothing_to_wait_for(self, backend):
        assert backend.estimate_readable_at("") == 0.0

    def test_a_locator_the_backend_cannot_have_minted_is_an_integrity_error(self, backend):
        with pytest.raises(IntegrityError):
            backend.estimate_readable_at("not a locator")

    def test_list_versions(self, backend, sim):
        backend.write_version("file-1", b"one")
        sim.advance(3.0)
        backend.write_version("file-1", b"two")
        sim.advance(3.0)
        refs = backend.list_versions("file-1")
        assert len(refs) == 2
        assert {r.digest for r in refs} == {content_digest(b"one"), content_digest(b"two")}

    def test_delete_version(self, backend, sim):
        first = backend.write_version("file-1", b"one")
        sim.advance(3.0)
        backend.write_version("file-1", b"two")
        sim.advance(3.0)
        backend.delete_version("file-1", first.digest)
        sim.advance(3.0)
        assert {r.digest for r in backend.list_versions("file-1")} == {content_digest(b"two")}

    def test_destroy_removes_all_versions(self, backend, sim):
        backend.write_version("file-1", b"one")
        sim.advance(3.0)
        backend.destroy("file-1")
        sim.advance(3.0)
        assert backend.list_versions("file-1") == []

    def test_latency_estimates_grow_with_size(self, backend):
        assert backend.estimate_write_latency(10 * 1024 * 1024) > backend.estimate_write_latency(1024)
        assert backend.estimate_read_latency(10 * 1024 * 1024) > backend.estimate_read_latency(1024)

    def test_background_write_suspends_clock(self, backend, sim):
        before = sim.now()
        with sim.background():
            backend.write_version("file-2", b"background upload")
        assert sim.now() == before
        backend.write_version("file-2", b"foreground upload")
        assert sim.now() > before

    def test_stored_bytes_reflects_overhead(self, backend, sim):
        data = b"x" * 100_000
        backend.write_version("file-3", data)
        sim.advance(3.0)
        stored = backend.stored_bytes("file-3")
        assert stored >= len(data) * 0.95
        assert stored <= len(data) * (backend.storage_overhead() + 0.3)


class TestSingleCloudACL:
    def test_set_acl_lets_grantee_read_future_versions(self, sim, alice, bob):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(sim, store, alice)
        backend.write_version("file-1", b"v1")
        backend.set_acl("file-1", bob, Permission.READ)
        ref = backend.write_version("file-1", b"v2")
        sim.advance(3.0)
        reader = SingleCloudBackend(sim, store, bob)
        assert reader.read_version("file-1", ref.digest) == b"v2"

    def test_storage_overhead_is_one(self, sim, alice):
        store = make_provider(sim, "amazon-s3")
        assert SingleCloudBackend(sim, store, alice).storage_overhead() == 1.0

    def test_corrupted_version_fails_integrity_check(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(sim, store, alice)
        ref = backend.write_version("file-1", b"good data")
        sim.advance(3.0)
        # Tamper with the stored object behind the backend's back.
        key = f"scfs/file-1/{ref.digest}"
        store._objects[key].data = b"tampered"
        with pytest.raises(ObjectNotFoundError):
            backend.read_version("file-1", ref.digest)


class TestCloudOfCloudsOverhead:
    def test_storage_overhead_is_n_over_k(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(sim, clouds, alice, f=1)
        assert backend.storage_overhead() == pytest.approx(2.0)

    @pytest.mark.parametrize("size", [64 * 1024, 4 * 1024 * 1024])
    def test_read_estimate_matches_what_a_locator_read_charges(self, sim, alice, size):
        """One quorum round of block GETs — no metadata-object round before it."""
        backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim, jitter=0.0), alice, f=1)
        ref = backend.write_version("file-1", bytes(size))
        sim.advance(3.0)
        before = sim.now()
        assert len(backend.read_version("file-1", ref.digest, ref.locator)) == size
        charged = sim.now() - before
        assert backend.estimate_read_latency(size) == pytest.approx(charged, rel=0.02)


class TestEwmaLatencyEstimates:
    """``ewma_estimates`` blends observed health EWMAs into the estimates.

    Profiles describe how a provider *should* behave; a gray-failing provider
    is slower than its profile claims, and only the health tracker's observed
    latency EWMA knows it.  With the knob on, the estimates (which drive the
    non-blocking mode's background-upload schedule) follow the observation;
    with it off they stay pinned to the profile.
    """

    def _warm(self, backend, names, latency, now):
        for name in names:
            for _ in range(backend.health.policy.min_samples):
                backend.health.observe(name, succeeded=True, latency=latency, now=now)

    def test_single_cloud_estimates_follow_the_observed_ewma(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(
            sim, store, alice,
            dispatch=DispatchPolicyConfig(suspicion_threshold=3, ewma_estimates=True))
        baseline_read = backend.estimate_read_latency(1024)
        baseline_write = backend.estimate_write_latency(1024)
        slow = 100.0 * max(baseline_read, baseline_write)
        self._warm(backend, [store.name], slow, sim.now())
        assert backend.estimate_read_latency(1024) == pytest.approx(slow)
        assert backend.estimate_write_latency(1024) == pytest.approx(slow)

    def test_estimates_stay_on_the_profile_with_the_knob_off(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(
            sim, store, alice,
            dispatch=DispatchPolicyConfig(suspicion_threshold=3))
        baseline = backend.estimate_read_latency(1024)
        self._warm(backend, [store.name], 100.0 * baseline, sim.now())
        assert backend.estimate_read_latency(1024) == pytest.approx(baseline)

    def test_cloud_of_clouds_estimates_see_gray_slow_providers(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(
            sim, clouds, alice, f=1,
            dispatch=DispatchPolicyConfig(suspicion_threshold=3, ewma_estimates=True))
        baseline = backend.estimate_read_latency(64 * 1024)
        # Every provider is observed far slower than its profile: the quorum
        # estimate cannot avoid the gray slowness and must rise above it.
        self._warm(backend, [c.name for c in clouds], 10.0 * baseline, sim.now())
        assert backend.estimate_read_latency(64 * 1024) >= 10.0 * baseline
        assert backend.estimate_write_latency(64 * 1024) >= 10.0 * baseline


class TestConsistencyAnchor:
    def test_read_returns_latest_completed_write(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(),
                                   SingleCloudBackend(sim, store, alice))
        anchored.write("obj", b"first")
        anchored.write("obj", b"second")
        assert anchored.read("obj") == b"second"

    def test_read_of_unknown_object_returns_none(self, sim, alice):
        store = make_provider(sim, "amazon-s3")
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(),
                                   SingleCloudBackend(sim, store, alice))
        assert anchored.read("ghost") is None

    def test_read_loop_waits_out_eventual_consistency(self, sim, alice):
        # Propagation of 30 s: the hash is anchored immediately but the data
        # only becomes visible later; the read loop (Figure 3, r2) must retry
        # until it does rather than return stale/absent data.
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        store.profile = store.profile.__class__(name=store.name, propagation_delay=30.0)
        backend = SingleCloudBackend(sim, store, alice)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(), backend, retry_interval=1.0)
        anchored.write("obj", b"slow to appear")
        start = sim.now()
        assert anchored.read("obj") == b"slow to appear"
        assert sim.now() - start >= 29.0

    def test_read_gives_up_after_retry_limit(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        backend = SingleCloudBackend(sim, store, alice)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(), backend,
                                   retry_interval=0.1, retry_limit=3)
        # Anchor a hash whose data never reaches the storage service.
        anchored.anchor.write_hash("obj", content_digest(b"never stored"))
        assert anchored.read("obj") is None

    def test_cloud_of_clouds_backend_works_as_storage_service(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(sim, clouds, alice, f=1)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(), backend, retry_interval=0.5)
        anchored.write("obj", b"cloud of clouds payload")
        assert anchored.read("obj") == b"cloud of clouds payload"

    def test_coordination_service_as_anchor(self, sim, alice):
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        coordination = make_coordination_service(sim, "depspace", f=0)
        session = coordination.open_session(alice)
        anchor = CoordinationConsistencyAnchor(coordination, session)
        anchored = AnchoredStorage(sim, anchor, SingleCloudBackend(sim, store, alice))
        anchored.write("obj", b"anchored in DepSpace")
        assert anchored.read("obj") == b"anchored in DepSpace"
        assert anchor.read_hash("missing") is None
