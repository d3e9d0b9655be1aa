"""Cloud round trips per cold read (the Figure 3, r1–r2 budget).

The anchor hands a reader the hash *and* the locator of the version it names,
so a cold read is the block fetch alone: one DepSky quorum call and ``k`` GETs,
whichever commit path anchored the version — and a reader that arrives before
the clouds show the version waits for it once instead of polling.  These tests
pin that budget, counted below DepSky: at ``QuorumCall.execute`` and in the
stores' request methods.
"""

from __future__ import annotations

import base64

import pytest
from hypothesis import given, settings, strategies as st

from repro.clouds.providers import make_cloud_of_clouds
from repro.common.errors import (
    IntegrityError,
    ObjectNotFoundError,
    QuorumNotReachedError,
    VersionUnavailableError,
)
from repro.common.types import Permission
from repro.core.backend import CloudOfCloudsBackend
from repro.core.config import DispatchPolicyConfig
from repro.core.consistency import READ_RETRY_INTERVAL, READ_RETRY_LIMIT
from repro.core.deployment import SCFSDeployment
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient
from repro.scenarios.pool import POOL_PAYLOAD, prime_pool
from repro.scenarios.spec import ScenarioSpec
from repro.simenv.environment import Simulation
from repro.simenv.failures import FaultKind


def assert_one_block_fetch(meter, k: int = 2) -> None:
    gets = meter.requests("get")  # a 0-byte GET is a billed not-found
    assert meter.quorum_calls() == 1
    assert len(gets) == k and all(size > 0 for _kind, _key, size in gets)
    assert not any(key.endswith("/metadata") for _kind, key, _size in gets)


@pytest.fixture
def shared(cloud_meter):
    """A blocking CoC deployment, ``/f`` written by alice and readable by bob."""
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17)
    alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
    alice.write_file("/f", b"first", shared=True)
    alice.setfacl("/f", "bob", Permission.READ_WRITE)
    return deployment, alice, bob, cloud_meter(deployment.clouds)


# ------------------------------------------------------------ the budget, fault-free


def test_cold_read_of_a_closed_file_is_one_quorum_call_and_k_gets(shared):
    deployment, alice, bob, meter = shared
    alice.write_file("/f", b"closed by alice")
    deployment.sim.advance(5.0)
    meter.mark()
    assert bob.read_file("/f") == b"closed by alice"
    assert_one_block_fetch(meter)


def test_cold_read_of_a_background_closed_file_is_the_same(cloud_meter):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=17)
    alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
    alice.write_file("/f", b"first", shared=True)
    alice.setfacl("/f", "bob", Permission.READ)
    alice.write_file("/f", b"uploaded in the background")
    deployment.drain()
    deployment.sim.advance(5.0)
    meter = cloud_meter(deployment.clouds)
    assert bob.read_file("/f") == b"uploaded in the background"
    assert_one_block_fetch(meter)


def test_cold_read_of_a_transaction_written_file_is_the_same(shared):
    deployment, alice, bob, meter = shared
    alice.write_file("/g", b"second", shared=True)
    alice.setfacl("/g", "bob", Permission.READ)
    txn = alice.transactions.begin()
    txn.write("/f", b"F by txn")
    txn.write("/g", b"G by txn")
    txn.commit()
    for path, data in (("/f", b"F by txn"), ("/g", b"G by txn")):
        meter.mark()
        assert bob.read_file(path) == data
        assert_one_block_fetch(meter)


def test_mounting_a_saved_pns_is_the_same(cloud_meter):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17, private_name_spaces=True)
    fs = deployment.create_agent("alice")
    fs.write_file("/private.txt", b"mine")
    fs.unmount()
    deployment.sim.advance(5.0)
    meter = cloud_meter(deployment.clouds)
    again = deployment.create_agent("alice")
    assert_one_block_fetch(meter)
    assert again.pns.contains("/private.txt")


def test_cold_read_of_a_pool_primed_file_is_the_same(cloud_meter):
    spec = ScenarioSpec.generate_scale(seed=9, agents=2, files=6, ops_per_agent=1,
                                       directories=2)
    deployment = SCFSDeployment(spec.config, sim=Simulation(seed=spec.seed))
    prime_pool(deployment, spec)
    fs = deployment.create_agent("carol")
    deployment.sim.advance(5.0)
    meter = cloud_meter(deployment.clouds)
    assert fs.read_file(spec.shared_files[0]) == POOL_PAYLOAD
    assert_one_block_fetch(meter)


# ---------------------------------------------------------- the propagation window


def test_a_reader_inside_the_propagation_window_waits_once_and_never_misses(shared):
    deployment, alice, bob, meter = shared
    alice.write_file("/f", b"just closed")
    locator = bob.stat("/f").locator
    readable_at = bob.backend.estimate_readable_at(locator)
    assert deployment.sim.now() < readable_at  # close returned inside the window
    attempts = []
    read_version = bob.backend.read_version
    bob.backend.read_version = lambda *args: (
        attempts.append(deployment.sim.now()) or read_version(*args))
    meter.mark()
    assert bob.read_file("/f") == b"just closed"
    assert attempts == [readable_at]
    assert_one_block_fetch(meter)


def test_a_mount_inside_the_propagation_window_of_the_pns_save_loads_it():
    # Regression: load() had no r2 loop, the mount swallowed the not-found and
    # the user came up with an empty name space.
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17, private_name_spaces=True)
    fs = deployment.create_agent("alice")
    fs.write_file("/private.txt", b"mine")
    fs.unmount()
    again = deployment.create_agent("alice")
    assert again.pns.contains("/private.txt")  # the mount loaded the saved name space
    assert again.read_file("/private.txt") == b"mine"


def test_a_wrong_hint_leaves_the_poll_as_the_safety_net(shared):
    deployment, alice, bob, meter = shared
    alice.write_file("/f", b"slower than its profile says")
    # The estimator believes propagation is instant.
    bob.backend.client.readable_at = lambda record: record.created_at
    started = deployment.sim.now()
    assert bob.read_file("/f") == b"slower than its profile says"
    assert deployment.sim.now() - started >= READ_RETRY_INTERVAL


def test_exhausting_the_retry_limit_raises_a_typed_error(shared):
    deployment, alice, bob, meter = shared
    # A well-formed locator, but no version of this file was ever written.
    locator = alice.stat("/f").locator
    started = deployment.sim.now()
    with pytest.raises(VersionUnavailableError) as raised:
        bob.storage.read_version("file-never-written", "ab" * 32, locator)
    error = raised.value
    assert isinstance(error, ObjectNotFoundError)
    assert (error.file_id, error.attempts) == ("file-never-written", READ_RETRY_LIMIT + 1)
    assert "ab" * 6 in str(error)
    assert deployment.sim.now() - started >= READ_RETRY_LIMIT * READ_RETRY_INTERVAL


# ------------------------------------------------------------------ below the anchor


@pytest.fixture
def unit(sim, alice):
    """A CoC backend with one propagated version of ``unit``: ``(backend, ref, data)``."""
    backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                   dispatch=DispatchPolicyConfig())
    data = bytes(range(256)) * 40
    ref = backend.write_version("unit", data, version=1)
    sim.advance(5.0)
    return backend, ref, data


@pytest.mark.parametrize("fault", [FaultKind.CORRUPTION, FaultKind.BYZANTINE])
def test_a_bad_systematic_block_under_the_locator_falls_back_to_parity(unit, fault):
    backend, ref, data = unit
    backend.client.clouds[0].failures.add(fault)
    assert backend.read_version("unit", ref.digest, ref.locator) == data
    assert (backend.read_paths.coded, backend.read_paths.systematic) == (1, 0)


def test_a_failed_read_latest_bills_exactly_n_gets(unit, cloud_requests):
    backend, _ref, _data = unit
    clouds = backend.client.clouds
    logged = [len(cloud_requests[cloud]) for cloud in clouds]
    with pytest.raises(ObjectNotFoundError):
        backend.client.read_latest("ghost")
    new = [entry for cloud, start in zip(clouds, logged) for entry in cloud_requests[cloud][start:]]
    assert [kind for kind, _key, _size in new] == ["get"] * backend.client.n


def test_a_short_locator_never_disables_the_block_check(unit):
    backend, ref, _data = unit
    client: DepSkyClient = backend.client
    record = VersionRecord.from_locator(ref.locator, ref.digest)
    short = VersionRecord(record.version, record.data_digest, record.size,
                          record.block_digests[:1], record.created_at)
    with pytest.raises(IntegrityError):
        client.read_matching("unit", ref.digest, record=short)
    with pytest.raises(IntegrityError):
        backend.read_version("unit", ref.digest, short.locator())
    # Block 1 has no digest in the short record: its (genuine) bytes must fail.
    with pytest.raises(IntegrityError):
        client._block_get_request("unit", short, 1).send()
    assert client._block_get_request("unit", short, 0).send()


def _at(sim, instant: float) -> None:
    """Advance the clock to exactly ``instant`` (``now + (t - now)`` may fall short)."""
    while (wait := instant - sim.now()) > 0:
        sim.advance(wait)


def test_a_propagated_version_is_k_gets_to_the_two_fastest_clouds(unit, cloud_meter):
    backend, ref, data = unit
    meter = cloud_meter(backend.client.clouds)
    assert backend.read_version("unit", ref.digest, ref.locator) == data
    assert_one_block_fetch(meter)
    # The UK pair (0.090 / 0.095 s round trip, 5 MB/s) holds the systematic blocks.
    assert meter.asked("get") == ["rackspace-files", "windows-azure"]
    assert (backend.read_paths.systematic, backend.read_paths.coded) == (1, 0)


def test_readable_at_is_the_kth_holders_visibility_instant(unit):
    backend, ref, _data = unit
    client = backend.client
    record = VersionRecord.from_locator(ref.locator, ref.digest)
    holders = client.clouds[:client.n - client.f]
    instants = sorted(record.created_at + cloud.profile.propagation_delay for cloud in holders)
    readable_at = backend.estimate_readable_at(ref.locator)
    assert readable_at == client.readable_at(record) == instants[client.k - 1]
    # Azure (0.8 s) and Google (1.2 s) are in by then; Rackspace (1.5 s) is not.
    assert readable_at == record.created_at + 1.2


@pytest.mark.parametrize("offset", [1.2, 1.3, 1.5, 2.0])
def test_inside_the_window_no_get_goes_to_a_holder_not_yet_visible(sim, alice, cloud_meter,
                                                                   offset):
    backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                   dispatch=DispatchPolicyConfig())
    client = backend.client
    data = bytes(range(256)) * 40
    ref = backend.write_version("unit", data, version=1)
    record = VersionRecord.from_locator(ref.locator, ref.digest)
    _at(sim, record.created_at + offset)
    holders = client.clouds[:client.n - client.f]
    visible = [cloud.name for cloud in holders
               if record.created_at + cloud.profile.propagation_delay <= sim.now()]
    assert len(visible) >= client.k
    meter = cloud_meter(client.clouds)
    assert backend.read_version("unit", ref.digest, ref.locator) == data
    assert_one_block_fetch(meter)  # no billed not-found either
    assert set(meter.asked("get")) <= set(visible)
    # Before Rackspace's copy lands a visible parity holder stands in for it.
    assert backend.read_paths.coded == (offset < 1.5)


def test_a_locator_of_another_version_names_no_stored_block(unit, sim):
    backend, ref, _data = unit
    newer = backend.write_version("unit", b"newer", version=2)
    sim.advance(5.0)
    # Block names carry (version, digest): v1 of the *newer* plaintext was never written.
    with pytest.raises(QuorumNotReachedError):
        backend.read_version("unit", newer.digest, ref.locator)


# ------------------------------------------------------------------------ the codec

_DIGESTS = st.binary(min_size=32, max_size=32).map(bytes.hex)
_RECORDS = st.builds(
    VersionRecord,
    version=st.integers(0, 2**64 - 1), data_digest=_DIGESTS, size=st.integers(0, 2**64 - 1),
    block_digests=st.lists(_DIGESTS, max_size=8).map(tuple),
    created_at=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(record=_RECORDS)
def test_locator_round_trip(record):
    assert VersionRecord.from_locator(record.locator(), record.data_digest) == record


@settings(max_examples=300, deadline=None)
@given(garbage=st.one_of(st.text(max_size=300),
                         st.binary(max_size=240).map(lambda raw: raw.hex()),
                         _RECORDS.flatmap(lambda record: st.integers(1, 40).map(
                             lambda cut: record.locator()[:-cut]))))
def test_garbage_in_integrity_error_out(garbage):
    try:
        record = VersionRecord.from_locator(garbage, "")
    except IntegrityError:
        return
    # The few strings that do parse are locators: they name their own encoding.
    assert record.locator() == garbage


@settings(max_examples=200, deadline=None)
@given(record=_RECORDS)
def test_head_round_trip(record):
    head = record.to_bytes()
    assert len(head) == 26 + 32 * len(record.block_digests) + 32
    assert head[:-32] == base64.urlsafe_b64decode(record.locator())
    assert VersionRecord.from_bytes(head) == record


@settings(max_examples=200, deadline=None)
@given(record=_RECORDS, cut=st.integers(1, 64), extra=st.binary(min_size=1, max_size=64))
def test_a_truncated_extended_or_garbled_head_raises(record, cut, extra):
    head = record.to_bytes()
    for blob in (head[:-cut], head + extra, b"byzantine:" + head[::-1]):
        with pytest.raises(ValueError):
            VersionRecord.from_bytes(blob)


# A head (the locator ‖ a data digest) is not a locator, nor is one of another format.
@pytest.mark.parametrize("mangle", [lambda raw: raw + bytes(32), lambda raw: b"\x02" + raw[1:]])
def test_a_bad_locator_raises_integrity_error(mangle):
    raw = base64.urlsafe_b64decode(VersionRecord(3, "ab" * 32, 10, ("cd" * 32,) * 4, 1.5).locator())
    with pytest.raises(IntegrityError):
        VersionRecord.from_locator(base64.urlsafe_b64encode(mangle(raw)).decode(), "")
