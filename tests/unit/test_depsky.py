"""Unit tests for the DepSky cloud-of-clouds protocols."""

import hashlib

import pytest

from repro.clouds.providers import make_cloud_of_clouds
from repro.common.errors import IntegrityError, ObjectNotFoundError, QuorumNotReachedError
from repro.common.types import Permission
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import DepSkyClient, preferred_order
from repro.simenv.environment import Simulation
from repro.simenv.failures import FaultKind


def make_client(sim, alice, **kwargs):
    """A client and its clouds in its preferred order: ``clouds[i]`` holds block ``i``."""
    client = DepSkyClient(sim, make_cloud_of_clouds(sim), alice, f=1, **kwargs)
    return client, client.clouds


def _record(version=1, digest="d1", writer="alice"):
    return VersionRecord(version=version, data_digest=digest, size=10,
                         block_digests=("a", "b", "c", "d"), created_at=0.0, writer=writer)


class TestHead:
    """The per-unit object: the latest version's record, nothing else."""

    def test_serialisation_round_trip(self):
        assert VersionRecord.from_bytes(_record().to_bytes()) == _record()

    @pytest.mark.parametrize("blob", [
        b"byzantine garbage", b"[]", b"{}", b'{"version": "x"}',
        b'{"version": 1, "data_digest": "d", "size": 1, "block_digests": 7, '
        b'"created_at": 0, "writer": "w"}'])
    def test_malformed_blob_raises(self, blob):
        with pytest.raises(ValueError):
            VersionRecord.from_bytes(blob)

    def test_a_parsed_head_is_hashable_whatever_it_held(self):
        blob = _record().to_bytes().replace(b'"a"', b'["nested"]')
        assert hash(VersionRecord.from_bytes(blob)) is not None

    def test_the_head_does_not_grow_with_the_history(self, sim, alice):
        client, clouds = make_client(sim, alice)
        sizes = []
        for generation in range(12):
            client.write("unit", b"generation %d" % generation)
            sizes.append(len(clouds[0].raw_object("depsky/unit/metadata")))
        # Only the decimal rendering of the version and the instant varies.
        assert max(sizes) - min(sizes) < 24
        assert VersionRecord.from_bytes(
            clouds[0].raw_object("depsky/unit/metadata")).version == 12


class TestHeadAgreement:
    """What a client believes of the n heads — never one copy alone."""

    def _client(self, sim, alice):
        client, clouds = make_client(sim, alice)
        return client, [cloud.name for cloud in clouds]

    def test_a_record_is_certified_by_f_plus_1_identical_copies(self, sim, alice):
        client, (a, b, c, d) = self._client(sim, alice)
        new, old = _record(5, "new"), _record(4, "old")
        assert client._certified_head([(a, new), (b, new), (c, old), (d, old)]) == new
        assert client._certified_head([(a, new), (b, old), (c, old)]) == old
        assert client._certified_head([(a, new), (b, old)]) is None
        assert client._certified_head([]) is None

    def test_the_same_pair_with_other_block_digests_confirms_nothing(self, sim, alice):
        client, (a, b, _c, _d) = self._client(sim, alice)
        forged = VersionRecord(5, "new", 10, ("x",) * 4, 0.0, "alice")
        assert client._certified_head([(a, _record(5, "new")), (b, forged)]) is None

    def test_the_vouched_version_is_the_f_plus_1_th_highest(self, sim, alice):
        client, (a, b, c, d) = self._client(sim, alice)
        heads = [(a, _record(10**9, "inflated")), (b, _record(7)), (c, _record(7)),
                 (d, _record(6))]
        assert client._vouched_version(heads) == 7          # not burnt by one cloud
        heads[0] = (a, _record(1, "rolled back"))
        assert client._vouched_version(heads) == 7          # nor rolled back
        assert client._vouched_version(heads[:1]) == 0

    def test_one_faulty_head_neither_rolls_back_nor_burns_the_version_space(
            self, sim, alice):
        client, clouds = make_client(sim, alice)
        for generation in range(3):
            client.write("unit", b"v%d" % generation)
            sim.advance(3.0)
        fresh = DepSkyClient(sim, clouds, alice, f=1)
        key = "depsky/unit/metadata"
        for forged in (_record(10**6, "f" * 64).to_bytes(), _record(1, "0" * 64).to_bytes(),
                       b"garbage"):
            clouds[0].put(key, forged, alice)
            sim.advance(3.0)
            latest = fresh.read_latest("unit").record.version
            assert latest >= 3
            assert DepSkyClient(sim, clouds, alice, f=1).write(
                "unit", b"next").version == latest + 1
            sim.advance(3.0)

    def test_a_forged_head_with_the_anchored_digest_cannot_fail_the_read(self, sim, alice):
        client, clouds = make_client(sim, alice)
        record = client.write("unit", b"anchored" * 40)
        forged = VersionRecord(record.version, record.data_digest, record.size,
                               ("0" * 64,) * 4, record.created_at, "mallory")
        sim.advance(3.0)
        for cloud in clouds:
            genuine = cloud.raw_object("depsky/unit/metadata")
            cloud.put("depsky/unit/metadata", forged.to_bytes(), alice)
            sim.advance(3.0)
            assert client.read_matching("unit", record.data_digest).data == b"anchored" * 40
            assert client.read_latest("unit").data == b"anchored" * 40
            cloud.put("depsky/unit/metadata", genuine, alice)

    def test_read_latest_takes_an_uncertified_head_only_if_its_blocks_assemble(
            self, sim, alice):
        client, clouds = make_client(sim, alice)
        client.write("unit", b"one")
        sim.advance(3.0)
        second = client.write("unit", b"two")
        # Mid-propagation: some clouds show the new head, the others the old.
        lags = sorted(cloud.profile.propagation_delay for cloud in clouds)
        assert lags[0] < lags[-1]
        sim.advance((lags[0] + lags[-1]) / 2)
        heads, _stats = client._read_heads("unit")
        assert {head.version for _cloud, head in heads} == {1, 2}
        assert client.read_latest("unit").data == b"two"
        # A head naming blocks nobody holds is passed over for the certified one.
        clouds[0].put("depsky/unit/metadata", _record(9, "f" * 64).to_bytes(), alice)
        sim.advance(3.0)
        assert client.read_latest("unit").data == b"two"


class TestDepSkyClient:
    def test_requires_enough_clouds(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)[:3]
        with pytest.raises(ValueError):
            DepSkyClient(sim, clouds, alice, f=1)

    def test_write_then_read_matching(self, sim, alice):
        client, _ = make_client(sim, alice)
        data = b"dependable storage" * 100
        record = client.write("unit", data)
        sim.advance(3.0)
        result = client.read_matching("unit", record.data_digest)
        assert result.data == data
        assert len(result.clouds_used) == client.k

    def test_read_latest_returns_newest_version(self, sim, alice):
        client, _ = make_client(sim, alice)
        client.write("unit", b"version one")
        sim.advance(3.0)
        record = client.write("unit", b"version two")
        sim.advance(3.0)
        assert client.read_latest("unit").data == b"version two"
        assert record.version == 2

    def test_read_matching_old_version_still_possible(self, sim, alice):
        client, _ = make_client(sim, alice)
        first = client.write("unit", b"version one")
        sim.advance(3.0)
        client.write("unit", b"version two")
        sim.advance(3.0)
        # The heads name the latest version only: an older one is read through
        # its record (SCFS anchors it), found by LIST, or not at all.
        assert client.read_matching("unit", first.data_digest, record=first).data == \
            b"version one"
        with pytest.raises(ObjectNotFoundError):
            client.read_matching("unit", first.data_digest)

    def test_read_unknown_unit_raises(self, sim, alice):
        client, _ = make_client(sim, alice)
        with pytest.raises(ObjectNotFoundError):
            client.read_latest("ghost")
        with pytest.raises(ObjectNotFoundError):
            client.read_matching("ghost", "digest")

    def test_read_not_yet_visible_digest_raises(self, sim, alice):
        client, _ = make_client(sim, alice)
        record = client.write("unit", b"data")
        sim.advance(3.0)
        with pytest.raises(ObjectNotFoundError):
            client.read_matching("unit", "digest-that-does-not-exist" + record.data_digest[:8])

    def test_write_charges_quorum_latency(self, sim, alice):
        client, _ = make_client(sim, alice)
        before = sim.now()
        client.write("unit", b"x" * 100_000)
        assert sim.now() > before

    def test_charge_latency_can_be_disabled(self, sim, alice):
        client, _ = make_client(sim, alice, charge_latency=False)
        client.write("unit", b"x" * 100_000)
        assert sim.now() == 0.0

    def test_tolerates_one_unavailable_cloud(self, sim, alice):
        client, clouds = make_client(sim, alice)
        clouds[0].failures.add(FaultKind.UNAVAILABLE)
        data = b"still available" * 50
        record = client.write("unit", data)
        sim.advance(3.0)
        assert client.read_matching("unit", record.data_digest).data == data

    def test_tolerates_one_byzantine_cloud_on_read(self, sim, alice):
        client, clouds = make_client(sim, alice)
        data = b"integrity matters" * 50
        record = client.write("unit", data)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.BYZANTINE)
        result = client.read_matching("unit", record.data_digest)
        assert result.data == data
        assert clouds[0].name not in result.clouds_used

    def test_healthy_read_takes_systematic_path(self, sim, alice):
        client, clouds = make_client(sim, alice)
        data = b"fast path" * 64
        client.write("unit", data)
        sim.advance(3.0)
        result = client.read_latest("unit")
        assert result.data == data
        assert result.path == "systematic"
        assert result.block_indices == tuple(range(client.k))
        assert result.clouds_used == [c.name for c in clouds[: client.k]]

    def test_read_latest_falls_back_to_coded_blocks(self, sim, alice):
        """Regression: with exactly n - k systematic clouds failed, the read
        must succeed via the parity blocks and record the fallback."""
        client = DepSkyClient(sim, make_cloud_of_clouds(sim), alice, f=1,
                              preferred_quorums=False)
        clouds = client.clouds
        data = b"coded fallback" * 50
        client.write("unit", data)
        sim.advance(3.0)
        failed = client.n - client.k  # = k for f=1: both systematic clouds
        for cloud in clouds[:failed]:
            cloud.failures.add(FaultKind.UNAVAILABLE)
        result = client.read_latest("unit")
        assert result.data == data
        assert result.path == "coded"
        assert result.block_indices == (2, 3)
        # clouds_used reflects the fallback: only non-failed, parity-holding clouds.
        assert result.clouds_used == [c.name for c in clouds[failed:]]
        for cloud in clouds[:failed]:
            assert cloud.name not in result.clouds_used

    def test_single_failed_preferred_cloud_uses_spillover_block(self, sim, alice):
        client, clouds = make_client(sim, alice)
        data = b"one preferred cloud down" * 20
        client.write("unit", data)
        sim.advance(3.0)
        clouds[0].failures.add(FaultKind.UNAVAILABLE)
        result = client.read_latest("unit")
        assert result.data == data
        assert result.path == "coded"
        assert result.block_indices == (1, 2)
        assert clouds[0].name not in result.clouds_used

    def test_two_unavailable_clouds_block_writes(self, sim, alice):
        client, clouds = make_client(sim, alice)
        clouds[0].failures.add(FaultKind.UNAVAILABLE)
        clouds[1].failures.add(FaultKind.UNAVAILABLE)
        with pytest.raises(QuorumNotReachedError):
            client.write("unit", b"too many failures")

    def test_preferred_quorum_skips_last_cloud(self, sim, alice):
        client, clouds = make_client(sim, alice)
        client.write("unit", b"z" * 1000)
        # The fourth cloud receives only the head, no data block.
        last = clouds[-1]
        keys = [key for kind, key, _ in last.request_log if kind == "put"]
        assert all(key.endswith("/metadata") for key in keys)

    def test_without_preferred_quorums_every_cloud_stores_a_block(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        client = DepSkyClient(sim, clouds, alice, f=1, preferred_quorums=False)
        client.write("unit", b"z" * 1000)
        for cloud in clouds:
            assert any("-b" in key for kind, key, _ in cloud.request_log if kind == "put")

    def test_storage_overhead_about_one_and_a_half(self, sim, alice):
        client, _ = make_client(sim, alice)
        data = b"q" * 200_000
        client.write("unit", data)
        sim.advance(3.0)  # stored objects become listable once propagated
        stored = client.stored_bytes("unit")
        assert 1.3 * len(data) < stored < 1.8 * len(data)

    def test_unencrypted_mode_stores_plaintext_blocks(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        client = DepSkyClient(sim, clouds, alice, f=1, encrypt=False)
        data = b"public data" * 20
        record = client.write("unit", data)
        sim.advance(3.0)
        assert client.read_matching("unit", record.data_digest).data == data

    def test_confidentiality_no_single_cloud_holds_plaintext(self, sim, alice):
        client, clouds = make_client(sim, alice)
        secret = b"TOPSECRET" * 100
        client.write("unit", secret)
        for cloud in clouds:
            for _key, obj in cloud._objects.items():
                assert secret not in obj.data

    def test_list_versions(self, sim, alice):
        client, _ = make_client(sim, alice)
        client.write("unit", b"one")
        sim.advance(3.0)
        client.write("unit", b"two")
        sim.advance(3.0)
        first, second = client.list_versions("unit")
        assert (first.version, second.version) == (1, 2)
        assert second.data_digest == hashlib.sha256(b"two").hexdigest()
        assert first.created_at < second.created_at and first.size > 0
        # What a listing knows locates a version; it cannot stand in for a read.
        with pytest.raises(IntegrityError):
            client.read_matching("unit", second.data_digest, record=second)
        assert client.list_versions("ghost") == []

    def test_list_versions_is_one_billed_list_per_cloud_and_nothing_else(self, sim, alice):
        client, clouds = make_client(sim, alice)
        client.write("unit", b"one")
        sim.advance(3.0)
        logged = [len(cloud.request_log) for cloud in clouds]
        lists = [cloud.costs.usage.list_requests for cloud in clouds]
        client.list_versions("unit")
        for cloud, start, before in zip(clouds, logged, lists):
            assert cloud.request_log[start:] == [("list", "depsky/unit/", 0)]
            assert cloud.costs.usage.list_requests == before + 1

    def test_a_version_one_cloud_invents_is_not_listed_and_one_it_hides_still_is(
            self, sim, alice):
        client, clouds = make_client(sim, alice)
        record = client.write("unit", b"genuine")
        clouds[0].put(f"depsky/unit/v00000009-{'e' * 64}-b0", b"invented", alice)
        sim.advance(3.0)
        clouds[1].delete(client._block_key("unit", 1, record.data_digest, 1), alice)
        assert [(v.version, v.data_digest) for v in client.list_versions("unit")] == [
            (1, record.data_digest)]

    def test_delete_version_is_block_deletes_only(self, sim, alice):
        client, clouds = make_client(sim, alice)
        first = client.write("unit", b"one")
        sim.advance(3.0)
        client.write("unit", b"two")
        sim.advance(3.0)
        logged = [len(cloud.request_log) for cloud in clouds]
        assert client.delete_version("unit", first.version, first.data_digest) is True
        for cloud, start in zip(clouds, logged):
            assert [kind for kind, _key, _size in cloud.request_log[start:]] == ["delete"]
        assert [v.version for v in client.list_versions("unit")] == [2]
        with pytest.raises(QuorumNotReachedError):
            client.read_matching("unit", first.data_digest, record=first)
        assert client.read_latest("unit").data == b"two"

    def test_delete_version_says_when_it_missed_its_quorum(self, sim, alice):
        client, clouds = make_client(sim, alice)
        first = client.write("unit", b"one")
        for cloud in clouds[:2]:
            cloud.failures.add(FaultKind.UNAVAILABLE, start=sim.now())
        assert client.delete_version("unit", first.version, first.data_digest) is False

    def test_destroy_unit_removes_everything(self, sim, alice):
        client, clouds = make_client(sim, alice)
        client.write("unit", b"bye")
        sim.advance(3.0)
        client.destroy_unit("unit")
        for cloud in clouds:
            assert cloud.list_keys("depsky/unit/", alice).keys == []

    def test_set_acl_lets_grantee_read(self, sim, alice, bob):
        client, clouds = make_client(sim, alice)
        bob_full = bob
        for cloud in clouds:
            bob_full = bob_full.with_canonical_id(cloud.name, f"bob@{cloud.name}")
        record = client.write("unit", b"shared data" * 30)
        client.set_acl("unit", bob_full, Permission.READ)
        sim.advance(3.0)
        reader = DepSkyClient(sim, clouds, bob_full, f=1)
        assert reader.read_matching("unit", record.data_digest).data == b"shared data" * 30

    def test_acl_grant_covers_future_versions(self, sim, alice, bob):
        client, clouds = make_client(sim, alice)
        bob_full = bob
        for cloud in clouds:
            bob_full = bob_full.with_canonical_id(cloud.name, f"bob@{cloud.name}")
        client.write("unit", b"v1")
        client.set_acl("unit", bob_full, Permission.READ)
        record = client.write("unit", b"v2 new version")
        sim.advance(3.0)
        reader = DepSkyClient(sim, clouds, bob_full, f=1)
        assert reader.read_matching("unit", record.data_digest).data == b"v2 new version"


class TestPreferredOrder:
    """Block *i* lives on the *i*-th cloud of an order every client derives alike."""

    ORDERS = [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]

    def test_the_order_is_by_profile_get_latency(self, sim):
        clouds = make_cloud_of_clouds(sim)
        assert [cloud.name for cloud in preferred_order(clouds)] == [
            "rackspace-files", "windows-azure", "google-storage", "amazon-s3"]
        # Health is not configuration: a degraded cloud keeps its place.
        clouds[2].failures.add(FaultKind.DEGRADED, factor=50.0)
        assert preferred_order(clouds)[0] is clouds[2]

    def test_clients_of_differently_ordered_lists_produce_identical_layouts(self, alice):
        layouts = []
        for order in self.ORDERS:
            sim = Simulation(seed=3)
            clouds = make_cloud_of_clouds(sim)
            client = DepSkyClient(sim, [clouds[i] for i in order], alice, f=1)
            client.write("unit", b"layout" * 300)
            client.write("unit", b"second")
            layouts.append({cloud.name: {key: obj.data for key, obj in cloud._objects.items()}
                            for cloud in clouds})
        assert layouts[0] == layouts[1] == layouts[2]

    def test_a_reader_of_another_order_reads_the_systematic_blocks(self, sim, alice):
        clouds = make_cloud_of_clouds(sim)
        writer = DepSkyClient(sim, clouds, alice, f=1)
        record = writer.write("unit", b"read me" * 100)
        sim.advance(3.0)
        for order in self.ORDERS:
            reader = DepSkyClient(sim, [clouds[i] for i in order], alice, f=1)
            result = reader.read_matching("unit", record.data_digest, record=record)
            assert result.data == b"read me" * 100 and result.path == "systematic"
            assert result.clouds_used == ["rackspace-files", "windows-azure"]


def _elapsed(sim, operation) -> float:
    before = sim.now()
    operation()
    return sim.now() - before


class TestWriteMany:
    """The whole write set through the three DepSky phases in lockstep."""

    def test_four_units_cost_what_one_does(self, alice):
        # ``make_cloud_of_clouds`` profiles are jitter-free: latencies are exact.
        data = b"p" * 40_000
        one_sim, many_sim = Simulation(seed=1), Simulation(seed=1)
        one, _ = make_client(one_sim, alice)
        many, clouds = make_client(many_sim, alice)
        single = _elapsed(one_sim, lambda: one.write("unit-0", data))
        records = []
        batch = _elapsed(many_sim, lambda: records.extend(
            many.write_many([(f"unit-{i}", data, None) for i in range(4)])))
        assert batch == single > 0
        many_sim.advance(3.0)
        for index, record in enumerate(records):
            assert many.read_matching(f"unit-{index}", record.data_digest).data == data

    def test_each_phase_is_charged_once_at_its_slowest_member(self, sim, alice):
        client, _ = make_client(sim, alice)
        charged: dict[str, list[float]] = {}
        client.on_quorum = lambda op, _unit, stats: charged.setdefault(op, []).append(
            stats.charged)
        sizes = (1_000, 3_000_000, 200_000)
        batch = _elapsed(sim, lambda: client.write_many(
            [(f"unit-{size}", b"x" * size, None) for size in sizes]))
        phases = [charged[op] for op in ("meta_read", "block_put", "meta_put")]
        assert [len(waits) for waits in phases] == [3, 3, 3]
        assert max(charged["block_put"]) > 2 * min(charged["block_put"])
        assert batch == pytest.approx(sum(max(waits) for waits in phases))
        # ... which is what the biggest unit pays alone, not the sum of the three.
        alone_sim = Simulation(seed=1)
        alone, _ = make_client(alone_sim, alice)
        assert batch == pytest.approx(
            _elapsed(alone_sim, lambda: alone.write("unit-3000000", b"x" * 3_000_000)))

    def test_a_missed_block_quorum_publishes_no_unit_of_the_batch(self, sim, alice, bob):
        clouds = make_cloud_of_clouds(sim)
        for cloud in clouds:
            bob = bob.with_canonical_id(cloud.name, f"bob@{cloud.name}")
        # bob already owns the very names alice's blocks of "theirs" would take
        # (version 1 of that plaintext): her block-put is refused everywhere,
        # the other two units' succeed.
        client = DepSkyClient(sim, clouds, alice, f=1)
        usurped = hashlib.sha256(b"usurped").hexdigest()
        for index, cloud in enumerate(client.clouds):
            cloud.put(client._block_key("theirs", 1, usurped, index), b"bob's", bob)
        sim.advance(3.0)
        with pytest.raises(QuorumNotReachedError, match="data blocks of 'theirs'"):
            client.write_many([("mine-a", b"a" * 500, None), ("theirs", b"usurped", None),
                               ("mine-b", b"b" * 500, None)])
        sim.advance(3.0)
        for cloud in clouds:
            keys = cloud.list_keys("depsky/", alice).keys
            assert not [key for key in keys if key.endswith("/metadata")]
        assert any(cloud.list_keys("depsky/mine-a/", alice).keys for cloud in clouds)
        with pytest.raises(ObjectNotFoundError):
            client.read_latest("mine-a")

    def test_one_version_per_unit_and_an_empty_set(self, sim, alice):
        client, _ = make_client(sim, alice)
        with pytest.raises(ValueError):
            client.write_many([("unit", b"1", None), ("unit", b"2", None)])
        assert client.write_many([]) == [] and sim.now() == 0.0

    @pytest.mark.parametrize("batched", [False, True])
    def test_one_item_is_the_parent_commits_write(self, alice, batched):
        """``write`` is the batched code with one item: same stored blobs, same
        clock, same RNG state.  The RNG state is the one recorded before
        ``write_many`` existed (faf3381) — the write still draws the same
        numbers in the same order; blobs and clock were re-recorded when the
        per-unit object became the head and block names gained the digest, and
        again when block *i* moved to the *i*-th cloud of the preferred order
        (faster clouds: an earlier clock, so the second record's dispatch
        instant changed; the RNG state did not)."""
        sim = Simulation(seed=2024)
        clouds = make_cloud_of_clouds(sim, jitter=0.2)
        client = DepSkyClient(sim, clouds, alice, f=1)
        for data, min_version in ((b"first payload " * 300, None), (b"second", 7)):
            if batched:
                client.write_many([("unit-a", data, min_version)])
            else:
                client.write("unit-a", data, min_version=min_version)
        blobs = hashlib.sha256()
        for cloud in client.clouds:
            for key in sorted(cloud._objects):
                blobs.update(key.encode())
                blobs.update(cloud._objects[key].data)
        assert blobs.hexdigest() == \
            "ef45feb8fcad40c23d16043ab7b46505eb27a764479f09683af5b1d5e8d8df05"
        assert sim.now() == 1.2052389799394891
        assert hashlib.sha256(repr(sim.rng.getstate()).encode()).hexdigest() == \
            "551fc109da49a6eda1d3719d43ee61231a9b1db9168b7f715ee8256ac728ce0e"

