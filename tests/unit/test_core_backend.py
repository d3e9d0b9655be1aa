"""Unit tests for the storage backends and the consistency-anchor algorithm."""

import dataclasses
import math

import pytest

from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.health import MIN_SAMPLES, expected_latency
from repro.clouds.providers import (
    COC_STORAGE_PROVIDERS,
    PROVIDER_PROFILES,
    make_cloud_of_clouds,
    make_provider,
)
from repro.common.errors import (
    IntegrityError,
    ObjectNotFoundError,
    QuorumNotReachedError,
    VersionUnavailableError,
)
from repro.common.types import Permission
from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend
from repro.core.cache import make_disk_cache, make_memory_cache
from repro.core.config import DispatchPolicyConfig
from repro.core.consistency import READ_RETRY_LIMIT, anchor_value, split_anchor_value
from repro.core.storage_service import StorageService
from repro.crypto.hashing import content_digest
from repro.simenv.failures import FaultKind


@pytest.fixture(params=["single", "coc"])
def backend(request, sim, alice):
    """Both backends must satisfy the same StorageBackend contract."""
    if request.param == "single":
        store = make_provider(sim, "amazon-s3")
        return SingleCloudBackend(sim, store, alice)
    clouds = make_cloud_of_clouds(sim)
    return CloudOfCloudsBackend(sim, clouds, alice, f=1,
                                dispatch=DispatchPolicyConfig())


class TestStorageBackends:
    def test_write_returns_reference_with_content_digest(self, backend):
        data = b"some file contents" * 10
        ref = backend.write_version("file-1", data, version=1)
        assert ref.key == "file-1"
        assert ref.digest == content_digest(data)
        assert ref.size == len(data)

    def test_read_version_by_digest(self, backend, sim):
        data = b"versioned data" * 20
        ref = backend.write_version("file-1", data, version=1)
        sim.advance(3.0)
        assert backend.read_version("file-1", ref.digest, ref.locator) == data

    def test_old_versions_remain_readable(self, backend, sim):
        first = backend.write_version("file-1", b"one", version=1)
        sim.advance(3.0)
        backend.write_version("file-1", b"two", version=2)
        sim.advance(3.0)
        # (The CoC heads name the latest version only: an older one is found
        # through the locator minted when it was written.)
        assert backend.read_version("file-1", first.digest, first.locator) == b"one"

    def test_read_before_propagation_raises(self, backend):
        ref = backend.write_version("file-1", b"fresh", version=1)
        with pytest.raises((ObjectNotFoundError, QuorumNotReachedError)):
            backend.read_version("file-1", ref.digest, ref.locator)

    def test_a_version_is_readable_from_the_time_its_locator_estimates(self, backend, sim):
        first = backend.write_version("file-1", b"fresh", version=1)
        readable_at = backend.estimate_readable_at(first.locator)
        assert sim.now() < readable_at
        with pytest.raises((ObjectNotFoundError, QuorumNotReachedError)):
            backend.read_version("file-1", first.digest, first.locator)
        sim.advance(max(0.0, readable_at - sim.now()))
        assert backend.read_version("file-1", first.digest, first.locator) == b"fresh"
        # The estimate belongs to the version, not to "the last write".
        second = backend.write_version("file-2", b"later", version=1)
        assert backend.estimate_readable_at(second.locator) > sim.now() > readable_at
        assert backend.estimate_readable_at(first.locator) == readable_at

    def test_without_a_locator_there_is_nothing_to_wait_for(self, backend):
        assert backend.estimate_readable_at("") == 0.0

    def test_a_locator_the_backend_cannot_have_minted_is_an_integrity_error(self, backend):
        with pytest.raises(IntegrityError):
            backend.estimate_readable_at("not a locator")

    def test_a_write_names_its_version(self, backend):
        # Every SCFS write is numbered by the anchor; no write goes without one.
        with pytest.raises(TypeError):
            backend.write_version("file-1", b"unnumbered")

    def test_list_versions(self, backend, sim):
        backend.write_version("file-1", b"one", version=1)
        sim.advance(3.0)
        backend.write_version("file-1", b"two", version=2)
        sim.advance(3.0)
        refs = backend.list_versions("file-1")
        assert len(refs) == 2
        assert {r.digest for r in refs} == {content_digest(b"one"), content_digest(b"two")}

    def test_delete_version(self, backend, sim):
        first = backend.write_version("file-1", b"one", version=1)
        sim.advance(3.0)
        backend.write_version("file-1", b"two", version=2)
        sim.advance(3.0)
        oldest = backend.list_versions("file-1")[0]
        assert oldest.digest == first.digest
        backend.delete_version("file-1", oldest.digest, oldest.locator)
        sim.advance(3.0)
        assert {r.digest for r in backend.list_versions("file-1")} == {content_digest(b"two")}

    def test_destroy_removes_all_versions(self, backend, sim):
        backend.write_version("file-1", b"one", version=1)
        sim.advance(3.0)
        backend.destroy("file-1")
        sim.advance(3.0)
        assert backend.list_versions("file-1") == []

    def test_latency_estimates_grow_with_size(self, backend):
        assert backend.estimate_write_latency(10 * 1024 * 1024) > backend.estimate_write_latency(1024)

    def test_background_write_suspends_clock(self, backend, sim):
        before = sim.now()
        with sim.background():
            backend.write_version("file-2", b"background upload", version=1)
        assert sim.now() == before
        backend.write_version("file-2", b"foreground upload", version=2)
        assert sim.now() > before

    def test_stored_bytes_reflects_overhead(self, backend, sim):
        """One cloud holds the version once; DepSky's preferred quorum puts
        ``n - f`` blocks of ``1/k`` of it on the clouds: ≈1.5×."""
        data = b"x" * 100_000
        backend.write_version("file-3", data, version=1)
        sim.advance(3.0)
        if isinstance(backend, SingleCloudBackend):
            clouds, overhead = [backend.store], 1.0
        else:
            clouds, overhead = backend.client.clouds, 1.5
        stored = sum(cloud.stored_bytes() for cloud in clouds)
        assert len(data) * overhead <= stored <= len(data) * (overhead + 0.02)


class TestSingleCloudACL:
    def test_set_acl_lets_grantee_read_future_versions(self, sim, alice, bob):
        store = make_provider(sim, "amazon-s3")
        backend = SingleCloudBackend(sim, store, alice)
        backend.write_version("file-1", b"v1", version=1)
        backend.set_acl("file-1", bob, Permission.READ)
        ref = backend.write_version("file-1", b"v2", version=2)
        sim.advance(3.0)
        reader = SingleCloudBackend(sim, store, bob)
        assert reader.read_version("file-1", ref.digest, ref.locator) == b"v2"

    def test_storage_overhead_is_one(self, sim, alice):
        store = make_provider(sim, "amazon-s3")
        SingleCloudBackend(sim, store, alice).write_version("file-1", b"x" * 1000, version=1)
        assert store.stored_bytes() == 1000

    def test_corrupted_version_fails_integrity_check(self, sim, alice):
        store = make_provider(sim, "amazon-s3")
        backend = SingleCloudBackend(sim, store, alice)
        ref = backend.write_version("file-1", b"good data", version=1)
        sim.advance(3.0)
        # Tamper with the stored object behind the backend's back.
        key = f"scfs/file-1/{ref.digest}"
        store._objects[key].data = b"tampered"
        with pytest.raises(ObjectNotFoundError):
            backend.read_version("file-1", ref.digest, ref.locator)


class TestCloudOfCloudsOverhead:
    def test_a_delete_removes_only_the_version_its_locator_names(self, sim, alice):
        backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                       dispatch=DispatchPolicyConfig())
        first = backend.write_version("file-1", b"same bytes", version=1)
        backend.write_version("file-1", b"same bytes", version=2)
        sim.advance(3.0)
        assert backend.delete_version("file-1", first.digest, first.locator)
        sim.advance(3.0)
        [left] = backend.list_versions("file-1")
        assert left.digest == first.digest and left.locator != first.locator

    def test_a_delete_needs_the_listed_locator(self, sim, alice):
        backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                       dispatch=DispatchPolicyConfig())
        ref = backend.write_version("file-1", b"bytes", version=1)
        sim.advance(3.0)
        with pytest.raises(TypeError):
            backend.delete_version("file-1", ref.digest)
        assert [r.digest for r in backend.list_versions("file-1")] == [ref.digest]

    def test_a_read_without_a_locator_is_an_integrity_error(self, sim, alice, cloud_requests):
        # The anchor hands over the locator; there is no head read to fall back on.
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(sim, clouds, alice, f=1, dispatch=DispatchPolicyConfig())
        ref = backend.write_version("file-1", b"bytes", version=1)
        sim.advance(3.0)
        logged = [len(cloud_requests[cloud]) for cloud in clouds]
        with pytest.raises(IntegrityError):
            backend.read_version("file-1", ref.digest, "")
        assert [len(cloud_requests[cloud]) for cloud in clouds] == logged

def _jitter_free_clouds(sim, f):
    """``3f + 1`` jitter-free clouds: the four provider profiles, repeated under fresh names."""
    names = [COC_STORAGE_PROVIDERS[i % len(COC_STORAGE_PROVIDERS)] for i in range(3 * f + 1)]
    return [EventuallyConsistentStore(sim, name=f"{name}-{i}", profile=PROVIDER_PROFILES[name].network)
            for i, name in enumerate(names)]


@pytest.mark.parametrize("size", [200, 16 * 1024, 1024 * 1024])
@pytest.mark.parametrize("encrypt", [True, False])
@pytest.mark.parametrize("f", [1, 2])
class TestEstimatesAreDryRuns:
    """An estimate is a dry run of the calls the operation sends, so with no
    jitter it is what the operation charges: the same stages, the same bytes."""

    def test_write_estimate_is_what_a_numbered_write_charges(self, sim, alice, size, encrypt, f, cloud_requests):
        clouds = _jitter_free_clouds(sim, f)
        backend = CloudOfCloudsBackend(sim, clouds, alice, f=f, encrypt=encrypt,
                                       dispatch=DispatchPolicyConfig())
        estimate = backend.estimate_write_latency(size)
        before = sim.now()
        backend.write_version("file-1", bytes(size), version=1)
        # (The estimate's stand-in head may differ from the real one by a few
        # digits: a byte is well under a microsecond at these bandwidths.)
        assert abs(estimate - (sim.now() - before)) <= 1e-5
        blocks = {n for cloud in clouds for kind, key, n in cloud_requests[cloud]
                  if kind == "put" and not key.endswith("/metadata")}
        assert blocks == {backend.client._blob_size(size)}

    def test_read_estimate_is_what_a_locator_read_charges(self, sim, alice, size, encrypt, f):
        """One quorum round of block GETs — no metadata-object round before it."""
        backend = CloudOfCloudsBackend(sim, _jitter_free_clouds(sim, f), alice, f=f, encrypt=encrypt,
                                       dispatch=DispatchPolicyConfig())
        ref = backend.write_version("file-1", bytes(size), version=1)
        sim.advance(3.0)
        estimate = backend.estimate_read_latency(size)
        before = sim.now()
        assert len(backend.read_version("file-1", ref.digest, ref.locator)) == size
        assert abs(estimate - (sim.now() - before)) <= 1e-9


@pytest.mark.parametrize("size", [200, 16 * 1024, 1024 * 1024])
def test_write_estimate_demotes_a_suspected_holder_as_the_write_does(sim, alice, size):
    """A suspected block holder is demoted by the same re-plan in the estimate
    as in the write: the spill-over cloud takes its block, and its price."""
    backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                   dispatch=DispatchPolicyConfig(suspicion_threshold=3))
    healthy = backend.estimate_write_latency(size)
    holder = backend.client.clouds[0]
    holder.failures.add(FaultKind.UNAVAILABLE, start=sim.now())
    for _ in range(3):
        backend.health.observe(holder.name, succeeded=False, latency=0.0, now=sim.now())
    assert backend.health.is_suspected(holder.name)
    estimate = backend.estimate_write_latency(size)
    assert estimate > healthy
    before = sim.now()
    backend.write_version("file-1", bytes(size), version=1)
    assert abs(estimate - (sim.now() - before)) <= 1e-5


class TestEwmaLatencyEstimates:
    """With a health tracker, its observed latency EWMAs raise the estimates.

    Profiles describe how a provider *should* behave; a gray-failing provider
    is slower than its profile claims, and only the health tracker's observed
    latency EWMA knows it.  The estimates (which drive the non-blocking mode's
    background-upload schedule) follow the observation.
    """

    def _warm(self, backend, names, latency, now):
        for name in names:
            for _ in range(MIN_SAMPLES):
                backend.health.observe(name, succeeded=True, latency=latency, now=now)

    def test_single_cloud_estimates_come_from_the_profile(self, sim, alice):
        # No tracker, so no EWMA: the expected PUT under the provider's profile.
        store = make_provider(sim, "amazon-s3")
        backend = SingleCloudBackend(sim, store, alice)
        expected = expected_latency(store, "object_put", 1 << 20)
        assert backend.estimate_write_latency(1 << 20) == pytest.approx(expected)
        for version in range(1, 4):
            backend.write_version("file-1", b"x" * 1024, version=version)
        assert backend.estimate_write_latency(1 << 20) == pytest.approx(expected)

    def test_cloud_of_clouds_estimates_see_gray_slow_providers(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        backend = CloudOfCloudsBackend(
            sim, clouds, alice, f=1, dispatch=DispatchPolicyConfig(suspicion_threshold=3))
        baseline = backend.estimate_read_latency(64 * 1024)
        # Every provider is observed far slower than its profile: the quorum
        # estimate cannot avoid the gray slowness and must rise above it.
        self._warm(backend, [c.name for c in clouds], 10.0 * baseline, sim.now())
        assert backend.estimate_read_latency(64 * 1024) >= 10.0 * baseline
        assert backend.estimate_write_latency(64 * 1024) >= 10.0 * baseline


def _clouds(backend):
    """The store(s) under ``backend``."""
    return backend.client.clouds if isinstance(backend, CloudOfCloudsBackend) else [backend.store]


def _serve_stale(cloud, gets):
    """``cloud`` answers its next ``gets`` GETs of stored bytes with other bytes."""
    real_get, left = cloud.get, [gets]

    def get(key, principal):
        data = real_get(key, principal)
        if left[0] > 0:
            left[0] -= 1
            return b"stale " + data
        return data

    cloud.get = get


class TestAnchoredRead:
    """Figure 3 as SCFS runs it: the anchor is a dict here, w2 the backend's
    ``write_version`` and r2 a cold ``StorageService.read_version``."""

    @staticmethod
    def _write(backend, anchor, object_id, data):
        # Numbered by the anchor, as every SCFS write is.
        version = backend.version_after(split_anchor_value(anchor.get(object_id, ""))[1], 0)
        anchor[object_id] = anchor_value(backend.write_version(object_id, data, version))  # w1-w3

    @staticmethod
    def _read(sim, backend, anchor, object_id, polls=None):
        service = StorageService(sim, backend, make_memory_cache(1 << 20, sim),
                                 make_disk_cache(1 << 24, sim))
        if polls is not None:
            service.on_poll = lambda: polls.append(sim.now())
        data = service.read_version(object_id, *split_anchor_value(anchor[object_id]))  # r1, r2
        assert service.cloud_reads == 1
        return data

    def test_a_cold_read_returns_the_latest_anchored_write(self, backend, sim):
        anchor = {}
        self._write(backend, anchor, "obj", b"first")
        self._write(backend, anchor, "obj", b"second")
        assert self._read(sim, backend, anchor, "obj") == b"second"

    def test_a_propagation_delay_is_waited_out(self, backend, sim):
        # The hash is anchored at once, the data only visible 30 s later: r2
        # must wait for it rather than return stale or absent data.
        for cloud in _clouds(backend):
            cloud.profile = dataclasses.replace(cloud.profile, propagation_delay=30.0)
        anchor = {}
        self._write(backend, anchor, "obj", b"slow to appear")
        start = sim.now()
        assert self._read(sim, backend, anchor, "obj") == b"slow to appear"
        assert sim.now() - start >= 29.0

    def test_stale_bytes_are_polled_past(self, backend, sim):
        anchor = {}
        self._write(backend, anchor, "obj", b"fresh")
        for cloud in _clouds(backend):
            _serve_stale(cloud, gets=2)
        polls = []
        assert self._read(sim, backend, anchor, "obj", polls) == b"fresh"
        assert len(polls) == 2

    @pytest.mark.parametrize("fault", ["stale", "absent"])
    def test_a_version_never_served_is_unavailable_not_wrong(self, backend, sim, fault):
        anchor = {}
        if fault == "stale":
            self._write(backend, anchor, "obj", b"anchored")
            for cloud in _clouds(backend):
                _serve_stale(cloud, gets=math.inf)
        else:
            # A well-formed anchor whose version was stored under another object.
            anchor["obj"] = anchor_value(backend.write_version("elsewhere", b"never stored", 1))
        polls = []
        with pytest.raises(VersionUnavailableError) as raised:
            self._read(sim, backend, anchor, "obj", polls)
        assert raised.value.attempts == READ_RETRY_LIMIT + 1 == len(polls) + 1
