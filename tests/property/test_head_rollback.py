"""Property: a file's history survives whatever one faulty cloud says of it.

Since the per-unit object is a constant-size *head* and the stored versions
are found by LIST, one cloud of the four may serve a rolled-back head, an
inflated one, garbage, or a listing that hides keys or invents them — and,
propagation lagging, the correct clouds disagree among themselves while a
write's puts are in flight.  Hypothesis draws the faulty cloud, an interleaving
of two lock-holding writers (each numbers its write from the anchored version,
as SCFS does), clock advances shorter and longer than the propagation delays,
changes of what the faulty cloud lies about, collector passes (the real
``GarbageCollector._collect_file``, V = 3) and ``read_latest`` calls.  Then

* every anchored version is readable through its locator once propagated, and
  so is the newest other one the collector must keep;
* a writer never reuses a ``(version, digest)`` name: each write takes exactly
  the number after the anchored one — neither rolled back nor burnt;
* the collector never deletes the anchored version or the ``V - 1`` newest
  others;
* ``read_latest`` never returns a version older than one that ``f + 1``
  correct clouds serve, and never fails once the correct clouds agree.

A second property covers the writers that ask no cloud for a head at all — the
transaction commit's ``write_numbered``, numbered by the anchor validated
under the file's lock — alternating with orphaned uploads (an attempt that
aborted before its commit point) at the very number the next write takes.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.clouds.object_store import ObjectListing, ObjectVersion
from repro.clouds.providers import make_cloud_of_clouds
from repro.common.errors import CloudError, QuorumNotReachedError
from repro.common.types import Principal
from repro.core.backend import CloudOfCloudsBackend
from repro.core import gc
from repro.core.config import DispatchPolicyConfig
from repro.core.gc import VERSIONS_TO_KEEP as KEEP, GarbageCollector, GCReport
from repro.depsky.dataunit import VersionRecord
from repro.depsky.protocol import _BLOCK_NAME, DepSkyClient
from repro.simenv.environment import Simulation

UNIT = "unit"
HEAD_KEY = f"depsky/{UNIT}/metadata"
LIES = ("honest", "rollback", "inflate", "garbage", "hide", "invent")

_step = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1)),
    st.tuples(st.just("advance"), st.sampled_from((0.05, 0.4, 1.0, 5.0))),
    st.tuples(st.just("lie"), st.sampled_from(LIES)),
    st.tuples(st.just("collect"), st.integers(0, 1)),
    st.tuples(st.just("read_latest"), st.just(0)),
)


class Liar:
    """Makes one store answer head GETs and LISTs as a faulty provider might."""

    def __init__(self, store, lie: str):
        self.lie = lie
        self.first_head: bytes | None = None
        get, list_keys = store.get, store.list_keys

        def lying_get(key, principal):
            blob = get(key, principal)
            if key != HEAD_KEY:
                return blob
            self.first_head = self.first_head or blob
            if self.lie == "rollback":
                return self.first_head
            if self.lie == "inflate":
                head = VersionRecord.from_bytes(blob)
                return VersionRecord(head.version + 10**6, "f" * 64, head.size,
                                     head.block_digests, head.created_at).to_bytes()
            return b"\x00garbage" if self.lie == "garbage" else blob

        def lying_list(prefix, principal):
            listing = list_keys(prefix, principal)
            if self.lie == "hide":
                return ObjectListing(listing.entries[:1])
            if self.lie == "invent":
                invented = [ObjectVersion(f"{prefix}v{version:08d}-{'e' * 64}-b0", 10**6, 0.0)
                            for version in (0, 5, 10**6)]
                return ObjectListing(listing.entries + invented)
            return listing

        store.get, store.list_keys = lying_get, lying_list


def _stored(clouds, faulty: int) -> set[tuple[int, str]]:
    """``(version, digest)`` of every version a correct cloud still holds a block of."""
    return {(int(name[1]), name[2])
            for index, cloud in enumerate(clouds) if index != faulty
            for key in cloud._keys.prefixed(f"depsky/{UNIT}/")
            if (name := _BLOCK_NAME.fullmatch(key, len(f"depsky/{UNIT}/"))) is not None}


@settings(max_examples=250, deadline=None)
@given(faulty=st.integers(0, 3), lie=st.sampled_from(LIES),
       steps=st.lists(_step, min_size=4, max_size=30), order=st.permutations(range(4)))
def test_history_survives_one_cloud_lying_about_heads_and_listings(faulty, lie, steps, order):
    sim = Simulation(seed=11)
    clouds = make_cloud_of_clouds(sim)
    alice = Principal("alice", tuple((cloud.name, f"alice@{cloud.name}") for cloud in clouds))
    liar = Liar(clouds[faulty], lie)
    correct = [cloud for index, cloud in enumerate(clouds) if index != faulty]
    writers = [CloudOfCloudsBackend(sim, clouds, alice, f=1, dispatch=DispatchPolicyConfig())
               for _ in range(2)]
    collectors = [
        GarbageCollector(sim, math.inf, None, SimpleNamespace(forget=lambda *_args: None), backend)
        for backend in writers]
    # Read as background work, so that what the correct clouds serve can be
    # asked at the very instant the read saw it; handed the providers in
    # another order than the writers, it still finds block i where they put it.
    reader = DepSkyClient(sim, [clouds[index] for index in order], alice, f=1)
    anchored: list[tuple[int, bytes, object]] = []   # (version, data, ref) in anchor order

    for kind, argument in steps:
        if kind == "write":
            version = anchored[-1][0] if anchored else 0
            data = b"version %d by writer %d" % (version + 1, argument)
            # The head-read path (standalone DepSky's ``write``), given the
            # anchored bound: what the heads say must neither lower nor raise it.
            ref = CloudOfCloudsBackend._ref(
                UNIT, writers[argument].client.write(UNIT, data, min_version=version + 1))
            record = VersionRecord.from_locator(ref.locator, ref.digest)
            assert record.version == version + 1
            anchored.append((record.version, data, ref))
        elif kind == "advance":
            sim.advance(argument)
        elif kind == "lie":
            liar.lie = argument
        elif kind == "collect" and anchored:
            before = _stored(clouds, faulty)
            current = anchored[-1]
            meta = SimpleNamespace(file_id=UNIT, digest=current[2].digest, locator=current[2].locator,
                                   data_version=current[0], deleted=False, path="/f")
            collectors[argument]._collect_file(meta, GCReport())
            deleted = before - _stored(clouds, faulty)
            others = sorted(pair for pair in before if pair != (current[0], current[2].digest))
            protected = {(current[0], current[2].digest), *others[-(KEEP - 1):]}
            assert not deleted & protected, (deleted, protected)
        elif kind == "read_latest":
            served: dict[VersionRecord, int] = {}
            try:
                with sim.background():
                    for cloud in correct:
                        try:
                            head = VersionRecord.from_bytes(cloud.get(HEAD_KEY, alice))
                        except CloudError:
                            continue
                        served[head] = served.get(head, 0) + 1
                    result = reader.read_latest(UNIT)
            except (CloudError, QuorumNotReachedError):
                # Legitimate while puts propagate; never once the correct clouds agree.
                assert len(correct) not in served.values()
                continue
            certain = [head.version for head, count in served.items() if count >= 2]
            assert result.record.version >= max(certain, default=0)
            assert result.data in {data for _version, data, _ref in anchored}

    sim.advance(10.0)
    for _version, data, ref in anchored[-KEEP:]:
        assert writers[0].read_version(UNIT, ref.digest, ref.locator) == data
    versions = [version for version, _data, _ref in anchored]
    assert versions == list(range(1, len(anchored) + 1))


# ------------------------------------------------------- numbered by the anchor

_numbered_step = st.one_of(
    # (writer, content): few contents, so that one comes back — also twice in a row.
    st.tuples(st.just("write"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("orphan"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("advance"), st.sampled_from((0.05, 0.4, 1.0, 5.0)), st.just(0)),
    st.tuples(st.just("lie"), st.sampled_from(LIES), st.just(0)),
    st.tuples(st.just("collect"), st.integers(0, 1), st.just(0)),
)


def _numbered_history(faulty: int, lie: str, steps) -> None:
    """Run ``steps`` with two lock-holding ``write_numbered`` writers; assert the properties."""
    sim = Simulation(seed=11)
    clouds = make_cloud_of_clouds(sim)
    alice = Principal("alice", tuple((cloud.name, f"alice@{cloud.name}") for cloud in clouds))
    liar = Liar(clouds[faulty], lie)
    put_blobs: dict[tuple[str, str], set[str]] = {}
    head_asked: list[str] = []
    for cloud in clouds:
        def recording_put(key, data, principal, put=cloud.put, name=cloud.name):
            if key != HEAD_KEY:  # the head is the one object a write replaces
                put_blobs.setdefault((name, key), set()).add(hashlib.sha256(data).hexdigest())
            return put(key, data, principal)

        def recording_get(key, principal, get=cloud.get, name=cloud.name):
            if key == HEAD_KEY:
                head_asked.append(name)
            return get(key, principal)
        cloud.put, cloud.get = recording_put, recording_get
    writers = [CloudOfCloudsBackend(sim, clouds, alice, f=1, dispatch=DispatchPolicyConfig())
               for _ in range(2)]

    def collector(backend) -> GarbageCollector:
        return GarbageCollector(sim, math.inf, None, SimpleNamespace(forget=lambda *_args: None), backend)

    def head_gets() -> int:
        return len(head_asked)

    def meta():
        return SimpleNamespace(file_id=UNIT, digest=anchor[1], locator=anchor[2],
                               data_version=data_version, deleted=False, path="/f")

    # The anchor: ``(version of the anchored locator, digest, locator, data)``;
    # and what each writer's own floor must be, kept without asking anything.
    anchor: tuple[int, str, str, bytes] = (0, "", "", b"")
    data_version = 0
    floors = [0, 0]
    orphans = 0
    for kind, argument, content in steps:
        if kind in ("write", "orphan"):
            if kind == "orphan":
                orphans += 1
                data = b"orphan %d: an attempt that never reached its commit point" % orphans
            else:
                data = b"content %d of the file" % content
            asked = head_gets()
            version = writers[argument].version_after(anchor[2], data_version)
            [ref] = writers[argument].write_versions([(UNIT, data, version)])
            record = VersionRecord.from_locator(ref.locator, ref.digest)
            assert head_gets() == asked, "a numbered write read a head"
            assert all(len(blobs) == 1 for blobs in put_blobs.values()), (
                "a block key was put twice with different bytes")
            # One past the anchored version, or past what this writer itself
            # already spent: whatever the heads, rolled back or inflated, say.
            assert record.version == max(anchor[0], floors[argument]) + 1
            floors[argument] = record.version
            if kind == "write":
                anchor = (record.version, ref.digest, ref.locator, data)
                data_version += 1
        elif kind == "advance":
            sim.advance(argument)
        elif kind == "lie":
            liar.lie = argument
        elif kind == "collect" and anchor[0]:
            collector(writers[argument])._collect_file(meta(), GCReport())
            assert (anchor[0], anchor[1]) in _stored(clouds, faulty)

    if not anchor[0]:
        return
    sim.advance(10.0)
    assert writers[1].read_version(UNIT, anchor[1], anchor[2]) == anchor[3]
    # The collector protects the anchored version: with V lowered to 1 it
    # keeps that one alone (an older version of the same bytes goes too) and
    # reclaims every orphan, also one that shares its number.
    with mock.patch.object(gc, "VERSIONS_TO_KEEP", 1):
        collector(writers[0])._collect_file(meta(), GCReport())
    sim.advance(10.0)
    assert _stored(clouds, faulty) == {(anchor[0], anchor[1])}
    assert writers[0].read_version(UNIT, anchor[1], anchor[2]) == anchor[3]


@settings(max_examples=250, deadline=None)
@given(faulty=st.integers(0, 3), lie=st.sampled_from(LIES),
       steps=st.lists(_numbered_step, min_size=3, max_size=25))
def test_numbering_by_the_anchor_needs_no_head_and_survives_orphans(faulty, lie, steps):
    _numbered_history(faulty, lie, steps)


def test_the_property_kills_a_mutant_that_reuses_the_anchored_number(monkeypatch):
    """``version = anchored`` instead of ``anchored + 1``: rewriting the anchored
    bytes would then put new ciphertext under the anchored version's own keys."""
    rewrite = [("write", 0, 0), ("write", 1, 0)]
    _numbered_history(0, "honest", rewrite)
    correct = CloudOfCloudsBackend.version_after
    monkeypatch.setattr(CloudOfCloudsBackend, "version_after",
                        lambda self, locator, data_version:
                        correct(self, locator, data_version) - bool(locator))
    with pytest.raises(AssertionError, match="put twice with different bytes"):
        _numbered_history(0, "honest", rewrite)
    # Different bytes escape the key check (the digest is in the key), not the numbering one.
    with pytest.raises(AssertionError, match="assert 1 == "):
        _numbered_history(0, "honest", [("write", 0, 0), ("write", 1, 1)])
