"""Property-based tests for core data structures and protocols.

* the LRU caches never exceed their capacity and never corrupt values;
* the consistency-anchor composition always returns the latest completed
  write, for arbitrary interleavings of writes and reads of many objects;
* the DepSpace tuple space behaves like a simple model (a multiset of tuples)
  under arbitrary operation sequences;
* two sessions' interleaved conditional and unconditional puts on one entry
  never lose an update and never skip a version, on either service;
* the SCFS file system agrees with a plain in-memory dictionary model under
  arbitrary sequences of whole-file operations.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clouds.providers import make_provider
from repro.common.errors import ConflictError, FileExistsErrorFS, FileNotFoundErrorFS
from repro.common.types import Permission, Principal
from repro.coordination.adapters import make_coordination_service
from repro.core.backend import SingleCloudBackend
from repro.core.cache import LRUByteCache
from repro.core.consistency import AnchoredStorage, DictConsistencyAnchor
from repro.core.deployment import SCFSDeployment
from repro.coordination.tuplespace import ANY, DepSpace
from repro.simenv.clock import SimClock
from repro.simenv.environment import Simulation


class TestLRUCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        operations=st.lists(
            st.tuples(st.sampled_from("pgr"), st.integers(0, 9), st.binary(max_size=16)),
            max_size=80,
        ),
    )
    def test_capacity_never_exceeded_and_values_never_corrupted(self, capacity, operations):
        cache = LRUByteCache(capacity, SimClock())
        model: dict[str, bytes] = {}
        for op, key_index, value in operations:
            key = f"k{key_index}"
            if op == "p":
                cache.put(key, value)
                if len(value) <= capacity:
                    model[key] = value
            elif op == "g":
                cached = cache.get(key)
                if cached is not None:
                    assert cached == model.get(key)
            else:
                cache.remove(key)
                model.pop(key, None)
            assert cache.used_bytes <= capacity
            assert cache.used_bytes == sum(len(v) for k, v in
                                           ((k, cache._entries[k]) for k in cache._entries))


class TestConsistencyAnchorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        script=st.lists(
            st.tuples(st.sampled_from("wr"), st.integers(0, 3), st.binary(min_size=1, max_size=64)),
            min_size=1, max_size=25,
        )
    )
    def test_reads_always_return_the_latest_completed_write(self, script):
        sim = Simulation(seed=7)
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        anchored = AnchoredStorage(sim, DictConsistencyAnchor(),
                                   SingleCloudBackend(sim, store, Principal("alice")),
                                   retry_interval=0.5)
        latest: dict[str, bytes] = {}
        for op, object_index, payload in script:
            object_id = f"object-{object_index}"
            if op == "w":
                anchored.write(object_id, payload)
                latest[object_id] = payload
            else:
                observed = anchored.read(object_id)
                assert observed == latest.get(object_id)


class TestDepSpaceModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.tuples(st.sampled_from(["out", "inp", "rdp", "cas"]),
                      st.integers(0, 4), st.integers(0, 4)),
            max_size=60,
        )
    )
    def test_tuple_space_matches_a_multiset_model(self, script):
        space = DepSpace()
        model: list[tuple] = []
        for op, key, value in script:
            fields = ("entry", f"k{key}", value)
            template = ("entry", f"k{key}", ANY)
            if op == "out":
                space.out(fields, now=0.0)
                model.append(fields)
            elif op == "cas":
                inserted = space.cas(template, fields, now=0.0)
                model_has = any(t[1] == f"k{key}" for t in model)
                assert inserted == (not model_has)
                if inserted:
                    model.append(fields)
            elif op == "rdp":
                found = space.rdp(template, now=0.0)
                assert (found is not None) == any(t[1] == f"k{key}" for t in model)
            else:  # inp
                removed = space.inp(template, now=0.0)
                matching = [t for t in model if t[1] == f"k{key}"]
                assert (removed is not None) == bool(matching)
                if removed is not None:
                    model.remove(removed)
        assert space.total_tuples(now=0.0) == len(model)


class TestEntryVersionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("depspace", "zookeeper")),
        steps=st.lists(st.tuples(st.integers(0, 1),
                                 st.sampled_from(("put", "cas", "stale-cas", "insert"))),
                       max_size=30),
    )
    def test_interleaved_puts_lose_nothing_and_skip_no_version(self, kind, steps):
        coordination = make_coordination_service(Simulation(seed=1), kind, f=1)
        sessions = [coordination.open_session(Principal(name=name)) for name in ("ann", "ben")]
        coordination.put("k", b"seed", sessions[0])
        coordination.set_entry_acl("k", "ben", Permission.READ_WRITE, sessions[0])
        version, value = 2, b"seed"  # the model: what the entry must hold
        for number, (who, how) in enumerate(steps):
            payload = f"{who}:{number}".encode()
            expected = {"put": None, "cas": version, "stale-cas": version - 1, "insert": 0}[how]
            try:
                entry = coordination.put("k", payload, sessions[who], expected_version=expected)
            except ConflictError:
                assert how in ("stale-cas", "insert")
            else:
                assert how in ("put", "cas")
                version, value = version + 1, payload
                assert entry.version == version
            stored = coordination.get("k", sessions[1 - who])
            assert (stored.version, stored.value) == (version, value)


class SCFSFileSystemModel(RuleBasedStateMachine):
    """Stateful test: SCFS behaves like a dict of path -> bytes.

    Whole-file writes, reads, deletes and renames on a single agent must agree
    with a trivial in-memory model regardless of the operation order, with
    background uploads drained at arbitrary points.
    """

    paths = st.sampled_from([f"/dir/file-{i}.dat" for i in range(4)])
    payloads = st.binary(min_size=0, max_size=256)

    @initialize()
    def setup(self):
        self.deployment = SCFSDeployment.for_variant("SCFS-AWS-NB", seed=99)
        self.fs = self.deployment.create_agent("alice")
        self.fs.mkdir("/dir")
        self.model: dict[str, bytes] = {}

    @rule(path=paths, data=payloads)
    def write(self, path, data):
        self.fs.write_file(path, data)
        self.model[path] = data

    @rule(path=paths)
    def read(self, path):
        if path in self.model:
            assert self.fs.read_file(path) == self.model[path]
        else:
            try:
                self.fs.read_file(path)
                assert False, "read of a missing file must fail"
            except FileNotFoundErrorFS:
                pass

    @rule(path=paths)
    def delete(self, path):
        if path in self.model:
            self.fs.unlink(path)
            del self.model[path]
        else:
            try:
                self.fs.unlink(path)
                assert False, "unlink of a missing file must fail"
            except FileNotFoundErrorFS:
                pass

    @rule(src_path=paths, dst_path=paths)
    def rename(self, src_path, dst_path):
        if src_path == dst_path:
            return
        try:
            self.fs.rename(src_path, dst_path)
        except FileNotFoundErrorFS:
            assert src_path not in self.model
            return
        except FileExistsErrorFS:
            assert dst_path in self.model
            return
        assert src_path in self.model and dst_path not in self.model
        self.model[dst_path] = self.model.pop(src_path)

    @rule()
    def drain_background_work(self):
        self.deployment.drain(0.5)

    @invariant()
    def directory_listing_matches_model(self):
        listed = set(self.fs.readdir("/dir"))
        expected = {path.rsplit("/", 1)[1] for path in self.model}
        assert listed == expected


SCFSFileSystemModel.TestCase.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None
)
TestSCFSAgainstDictModel = SCFSFileSystemModel.TestCase
