"""Cloud requests and bytes per DepSky write, and per collected file.

A write uploads its own record, not the file's history: the per-unit object is
the *head* (the latest version's record) and blocks are written once under
names carrying ``(version, digest)``.  So the 200th write of a unit costs what
the first did — ``n`` head GETs, ``n - f`` block PUTs, ``n`` head PUTs, three
quorum calls, the same bytes — and the collector finds the stored versions by
one LIST per cloud, with no head read or rewrite.  A transaction commit numbers
its write set by the anchor it validated under its locks, so it sends no head
GET at all: two quorum calls per unit.  These tests pin that budget,
counted below DepSky like ``test_read_budget.py``: at ``QuorumCall.execute``
and in the providers' ``request_log``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.clouds.eventual import EventuallyConsistentStore
from repro.clouds.providers import make_cloud_of_clouds
from repro.core.config import GarbageCollectionPolicy
from repro.core.deployment import SCFSDeployment
from repro.depsky.protocol import DepSkyClient

#: Slack for the head's decimal rendering of a version number and an instant.
RENDERING = 24


def _shape(requests):
    """What a write's requests are, apart from the names: kind, head or block, count."""
    shape: dict[tuple[str, str], int] = {}
    for kind, key, _size in requests:
        what = "head" if key.endswith("/metadata") else "block"
        shape[kind, what] = shape.get((kind, what), 0) + 1
    return shape


def _bytes(requests, kind):
    return sum(size for request, _key, size in requests if request == kind)


def test_the_200th_write_of_a_unit_costs_what_the_first_did(sim, alice, cloud_meter):
    clouds = make_cloud_of_clouds(sim)
    client = DepSkyClient(sim, clouds, alice, f=1)
    n, f = client.n, client.f
    meter = cloud_meter(clouds)
    up, down = [], []
    for generation in range(1, 201):
        meter.mark()
        record = client.write("unit", b"generation %03d of a hot 4 KiB file" % generation * 128)
        assert record.version == generation
        requests = meter.requests()
        assert meter.quorum_calls() == 3
        assert _shape(requests) == {("get", "head"): n, ("put", "block"): n - f,
                                    ("put", "head"): n}
        up.append(_bytes(requests, "put"))
        down.append(_bytes(requests, "get"))
        sim.advance(3.0)
    # Up: n - f blocks of one payload size and n heads, whatever came before.
    assert max(up) - min(up) <= n * RENDERING
    # Down: nothing the first time (no head yet), then n heads — not n histories.
    assert down[0] == 0
    assert max(down[1:]) - min(down[1:]) <= n * RENDERING
    head = len(clouds[0].raw_object("depsky/unit/metadata"))
    assert down[-1] == n * head and head < 600


def test_a_batch_of_units_is_the_same_budget_per_unit(sim, alice, cloud_meter):
    clouds = make_cloud_of_clouds(sim)
    client = DepSkyClient(sim, clouds, alice, f=1)
    meter = cloud_meter(clouds)
    client.write_many([(f"unit-{i}", b"x" * 4096, None) for i in range(3)])
    assert meter.quorum_calls() == 3 * 3
    assert _shape(meter.requests()) == {("get", "head"): 3 * 4, ("put", "block"): 3 * 3,
                                        ("put", "head"): 3 * 4}


def test_a_numbered_batch_asks_no_cloud_for_a_head(sim, alice, cloud_meter):
    clouds = make_cloud_of_clouds(sim)
    client = DepSkyClient(sim, clouds, alice, f=1)
    meter = cloud_meter(clouds)
    records = client.write_numbered([(f"unit-{i}", b"x" * 4096, 7 + i) for i in range(3)])
    assert [record.version for record in records] == [7, 8, 9]
    assert meter.quorum_calls() == 3 * 2
    assert _shape(meter.requests()) == {("put", "block"): 3 * 3, ("put", "head"): 3 * 4}
    # The client's own floor is the one thing that raises a number: it already
    # spent 7 on unit-0, whatever the caller's anchor says.
    assert client.write_numbered([("unit-0", b"y" * 4096, 3)])[0].version == 8


@pytest.mark.parametrize("files", [1, 3])
def test_a_transaction_write_set_is_two_quorum_calls_per_unit_and_no_head_get(
        files, cloud_meter):
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=61)
    fs = deployment.create_agent("alice")
    paths = [f"/f{index}" for index in range(files)]
    for path in paths:
        fs.write_file(path, b"before", shared=True)
    deployment.drain(3.0)
    n, f = len(deployment.clouds), 1
    meter = cloud_meter(deployment.clouds)
    fs.write_files({path: b"after " + path.encode() for path in paths})
    assert meter.quorum_calls() == 2 * files
    assert _shape(meter.requests()) == {("put", "block"): files * (n - f),
                                        ("put", "head"): files * n}
    assert [fs.read_file(path) for path in paths] == [b"after " + p.encode() for p in paths]


def test_a_plain_close_still_reads_the_heads(cloud_meter):
    """Deliberately unchanged: ``write`` / ``write_version`` / ``SCFSAgent._commit``
    keep their head read (``n`` GETs) and their RNG draw order.  The anchored
    locator could number a close as it numbers a commit, but ``faulty_1m`` cuts
    its fault phases by round index, so a 0.095 s shorter round reads there as
    fetch p50 +4…8 % — the fold stays parked behind ROADMAP item 1h."""
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=61)
    fs = deployment.create_agent("alice")
    fs.write_file("/f", b"before", shared=True)
    deployment.drain(3.0)
    n, f = len(deployment.clouds), 1
    meter = cloud_meter(deployment.clouds)
    fs.write_file("/f", b"after", shared=True)
    assert meter.quorum_calls() == 3
    assert _shape(meter.requests()) == {("get", "head"): n, ("put", "block"): n - f,
                                        ("put", "head"): n}


def test_no_block_name_is_ever_put_twice_with_different_bytes(sim, alice, monkeypatch):
    stored: dict[tuple[str, str], set[str]] = {}
    put = EventuallyConsistentStore.put

    def recorded(store, key, data, principal):
        stored.setdefault((store.name, key), set()).add(hashlib.sha256(data).hexdigest())
        return put(store, key, data, principal)

    monkeypatch.setattr(EventuallyConsistentStore, "put", recorded)
    clouds = make_cloud_of_clouds(sim)
    # Two clients with no lock and no shared counter, inside one propagation
    # window: both mint version 1, 2, ... — of different plaintexts.
    first, second = (DepSkyClient(sim, clouds, alice, f=1) for _ in range(2))
    for generation in range(20):
        first.write("unit", b"first writer %d" % generation)
        second.write("unit", b"second writer %d" % generation)
    blocks = {name: blobs for name, blobs in stored.items() if not name[1].endswith("/metadata")}
    assert len(blocks) == 2 * 20 * (first.n - first.f)
    assert all(len(blobs) == 1 for blobs in blocks.values())
    sim.advance(3.0)
    assert len(first.list_versions("unit")) == 2 * 20


@pytest.mark.parametrize("stored_versions", [3, 9])
def test_collecting_a_file_is_one_list_per_cloud_plus_the_deletes(stored_versions, cloud_meter):
    deployment = SCFSDeployment.for_variant(
        "SCFS-CoC-B", seed=61,
        gc=GarbageCollectionPolicy(written_bytes_threshold=1 << 30, versions_to_keep=2))
    fs = deployment.create_agent("alice")
    for generation in range(stored_versions):
        fs.write_file("/hot.txt", b"generation %d" % generation)
        deployment.drain(3.0)
    file_id = fs.stat("/hot.txt").file_id
    meter = cloud_meter(deployment.clouds)
    report = fs.collect_garbage()
    deleted = stored_versions - 2
    assert (report.versions_deleted, report.errors) == (deleted, [])
    assert meter.quorum_calls() == 1 + deleted
    n = len(deployment.clouds)
    requests = meter.requests()
    assert sorted(kind for kind, _key, _size in requests) == (
        ["delete"] * (n * deleted) + ["list"] * n)
    assert {key for kind, key, _size in requests if kind == "list"} == {f"depsky/{file_id}/"}
    assert not any(key.endswith("/metadata") for _kind, key, _size in requests)
    assert [cloud.costs.usage.list_requests for cloud in deployment.clouds] == [1] * n
