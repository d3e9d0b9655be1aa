"""Property-based tests for core data structures and protocols.

* the LRU caches never exceed their capacity and never corrupt values;
* the consistency-anchor composition always returns the latest completed
  write, for arbitrary interleavings of writes and reads of many objects;
* the DepSpace and ZooKeeper replicas answer every entry command identically,
  and their prefix listings match a brute-force filter of a plain dict model;
* two sessions' interleaved conditional and unconditional puts on one entry
  never lose an update and never skip a version, on either service;
* the SCFS file system agrees with a plain in-memory dictionary model under
  arbitrary sequences of whole-file operations.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clouds.providers import make_provider
from repro.common.errors import (
    ConflictError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    ReproError,
    TupleNotFoundError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import make_coordination_service
from repro.coordination.base import EntryACL
from repro.core.backend import SingleCloudBackend
from repro.core.cache import LRUByteCache
from repro.core.consistency import AnchoredStorage, DictConsistencyAnchor
from repro.core.deployment import SCFSDeployment
from repro.coordination.tuplespace import DepSpace
from repro.coordination.zookeeper import ZooKeeperLike
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


#: Keys with sibling boundaries (``meta:/a/b`` vs ``meta:/a/b2``: a prefix
#: ``meta:/a/b/`` must not list the latter), ``/`` and ``%`` inside a name.
KEYS = ("meta:/a", "meta:/a/b", "meta:/a/b2", "meta:/a/b/c", "meta:/a/b/c%2Fd",
        "meta:/a/b%", "meta:/a%2Fb", "meta:/ab", "meta:%", "txn:1")
PREFIXES = ("", "meta:", "meta:/a", "meta:/a/", "meta:/a/b", "meta:/a/b/", "meta:/a/b2",
            "meta:/a%", "meta:%", "meta:/a/b/c%", "txn:", "zzz")
USERS = ("ann", "ben")

_keys = st.sampled_from(KEYS)
_users = st.sampled_from(USERS)
_entry_step = st.one_of(
    st.tuples(st.just("put"), _keys, _users, st.sampled_from((None, 0, "current", "stale"))),
    st.tuples(st.just("delete"), _keys, _users),
    st.tuples(st.just("move"), _keys, _keys, _users, st.sampled_from((0, "current"))),
    st.tuples(st.just("acl"), _keys, _users, _users,
              st.sampled_from((Permission.NONE, Permission.READ, Permission.READ_WRITE))),
)


class _DictModel:
    """What the replicas' entry commands must do, over a dict of (owner, version, value, acl)."""

    def __init__(self):
        self.entries: dict[str, tuple[str, int, bytes, EntryACL]] = {}

    def _writable(self, key, user, expected):
        found = self.entries.get(key)
        if expected is not None and (found[1] if found else 0) != expected:
            raise ConflictError("version mismatch")
        if found is not None and not found[3].allows(user, Permission.WRITE):
            raise ConflictError("write denied")
        return found

    def apply(self, step, number):
        kind, key = step[0], step[1]
        value = f"{kind}:{number}".encode()
        if kind == "put":
            _, _, user, expected = step
            found = self._writable(key, user, expected)
            owner, version, acl = (found[0], found[1], found[3]) if found else (
                user, 0, EntryACL(owner=user))
            self.entries[key] = (owner, version + 1, value, acl)
        elif kind == "delete":
            if self._writable(key, step[2], None) is not None:
                del self.entries[key]
        elif kind == "move":
            _, _, new_key, user, target = step
            found = self._writable(key, user, None)
            if found is None:
                raise TupleNotFoundError("no source")
            self._writable(new_key, user, target)
            del self.entries[key]
            self.entries[new_key] = (found[0], max(found[1], target) + 1, value, found[3])
        else:
            _, _, user, grantee, permission = step
            found = self.entries.get(key)
            if found is None:
                raise TupleNotFoundError("no entry")
            if user != found[0]:
                raise ConflictError("not the owner")
            grants = {u: p for u, p in found[3].grants.items() if u != grantee}
            if permission is not Permission.NONE:
                grants[grantee] = permission
            self.entries[key] = (found[0], found[1] + 1, found[2], EntryACL(found[0], grants))

    def listing(self, prefix, user):
        return [(key, value, version, owner)
                for key, (owner, version, value, acl) in sorted(self.entries.items())
                if key.startswith(prefix) and acl.allows(user, Permission.READ)]


def _concrete(step, model):
    """Resolve a drawn step's symbolic versions against the model's current state."""
    def version(key, how):
        current = model.entries[key][1] if key in model.entries else 0
        return {"current": current, "stale": max(current - 1, 0)}.get(how, how)

    if step[0] == "put":
        return (*step[:3], version(step[1], step[3]))
    if step[0] == "move":
        return (*step[:4], version(step[2], step[4]))
    return step


def _send(replica, step, number):
    kind, key = step[0], step[1]
    value = f"{kind}:{number}".encode()
    if kind == "put":
        return replica.entry_put(key, value, step[2], 0.0, expected_version=step[3])
    if kind == "delete":
        return replica.entry_delete(key, step[2], 0.0)
    if kind == "move":
        return replica.entry_move(key, step[2], value, step[3], 0.0, target_version=step[4])
    return replica.entry_set_acl(key, step[2], step[3], step[4], 0.0)


def _outcome(call):
    try:
        return call()
    except ReproError as refused:
        return type(refused)


class TestEntryStoreProperties:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_entry_step, max_size=40))
    def test_both_replicas_agree_with_a_dict_model(self, steps):
        replicas, model = (DepSpace(), ZooKeeperLike()), _DictModel()
        for number, drawn in enumerate(steps):
            step = _concrete(drawn, model)
            outcomes = [_outcome(lambda r=replica: _send(r, step, number)) for replica in replicas]
            expected = _outcome(lambda: model.apply(step, number))
            assert outcomes[0] == outcomes[1]
            if isinstance(expected, type):
                assert outcomes[0] is expected
            else:
                assert not isinstance(outcomes[0], type)
            for prefix in PREFIXES:
                for user in USERS:
                    listed = [[(e.key, e.value, e.version, e.owner)
                               for e in replica.entry_list(prefix, user, 0.0)]
                              for replica in replicas]
                    assert listed[0] == listed[1] == model.listing(prefix, user)
            assert replicas[0].entry_count() == replicas[1].entry_count() == len(model.entries)


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
