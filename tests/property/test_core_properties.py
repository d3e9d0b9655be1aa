"""Property-based tests for core data structures and protocols.

* the LRU caches never exceed their capacity and never corrupt values;
* a read through the consistency anchor always returns the latest anchored
  write, on either backend, for arbitrary interleavings of writes and reads
  of many objects;
* the DepSpace replica answers every ``entry_multi`` command as a plain dict
  model applying the steps does — one step or several, all or nothing — and
  its entries, locks and prefix listings match the model's;
* two sessions' interleaved conditional and unconditional puts on one entry
  never lose an update and never skip a version;
* the SCFS file system agrees with a plain in-memory dictionary model under
  arbitrary sequences of whole-file operations.
"""

import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clouds.providers import make_cloud_of_clouds, make_provider
from repro.common.errors import (
    ConflictError,
    EntryDeniedError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    LockHeldError,
    ReproError,
    TupleNotFoundError,
)
from repro.common.types import Permission, Principal
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Delete, Grant, List, Lock, Move, Put, Update
from repro.coordination.entries import EntryCommands, Holder
from repro.core.backend import CloudOfCloudsBackend, SingleCloudBackend
from repro.core.cache import LRUByteCache, make_disk_cache, make_memory_cache
from repro.core.config import DispatchPolicyConfig
from repro.core.consistency import anchor_value, split_anchor_value
from repro.core.storage_service import StorageService
from repro.core.deployment import SCFSDeployment
from repro.simenv.environment import Simulation

from conftest import lock_holder


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
        cache = LRUByteCache(capacity, Simulation())
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
            assert cache._used <= capacity
            assert cache._used == sum(len(model[k]) for k in cache._entries)


class TestAnchoredReadProperties:
    @pytest.mark.parametrize("kind", ["single", "coc"])
    @settings(max_examples=25, deadline=None)
    @given(
        script=st.lists(
            st.tuples(st.sampled_from("wr"), st.integers(0, 3), st.binary(min_size=1, max_size=64)),
            min_size=1, max_size=25,
        )
    )
    def test_reads_always_return_the_latest_anchored_write(self, kind, script):
        # Figure 3 with a dict as the anchor: w2 is the backend's write, r2 a
        # cold StorageService read.
        sim = Simulation(seed=7)
        alice = Principal("alice")
        if kind == "single":
            backend = SingleCloudBackend(sim, make_provider(sim, "amazon-s3"), alice)
        else:
            backend = CloudOfCloudsBackend(sim, make_cloud_of_clouds(sim), alice, f=1,
                                           dispatch=DispatchPolicyConfig())
        anchor: dict[str, str] = {}
        latest: dict[str, bytes] = {}
        for op, object_index, payload in script:
            object_id = f"object-{object_index}"
            if op == "w":
                version = backend.version_after(split_anchor_value(anchor.get(object_id, ""))[1], 0)
                anchor[object_id] = anchor_value(backend.write_version(object_id, payload, version))
                latest[object_id] = payload
            elif object_id in anchor:
                reader = StorageService(sim, backend, make_memory_cache(1 << 16, sim),
                                        make_disk_cache(1 << 16, sim))
                digest, locator = split_anchor_value(anchor[object_id])
                assert reader.read_version(object_id, digest, locator) == latest[object_id]


#: Keys with sibling boundaries (``meta:/a/b`` vs ``meta:/a/b2``: a prefix
#: ``meta:/a/b/`` must not list the latter), ``/`` and ``%`` inside a name.
KEYS = ("meta:/a", "meta:/a/b", "meta:/a/b2", "meta:/a/b/c", "meta:/a/b/c%2Fd",
        "meta:/a/b%", "meta:/a%2Fb", "meta:/ab", "meta:%", "txn:1")
PREFIXES = ("", "meta:", "meta:/a", "meta:/a/", "meta:/a/b", "meta:/a/b/", "meta:/a/b2",
            "meta:/a%", "meta:%", "meta:/a/b/c%", "txn:", "zzz")
USERS = ("ann", "ben")

LOCKS = ("L1", "L2")

_keys = st.sampled_from(KEYS)
_entry_step = st.one_of(
    st.tuples(st.just("put"), _keys, st.sampled_from((None, 0, "current", "stale"))),
    st.tuples(st.just("update"), _keys, st.sampled_from(("current", "other")),
              st.sampled_from((None, "current", "stale"))),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("move"), _keys, _keys, st.sampled_from((0, "current"))),
    st.tuples(st.just("acl"), _keys, st.sampled_from(USERS),
              st.sampled_from((Permission.NONE, Permission.READ, Permission.READ_WRITE))),
    st.tuples(st.just("lock"), st.sampled_from(LOCKS)),
)
_command = st.tuples(st.sampled_from(USERS), st.lists(_entry_step, min_size=2, max_size=4))


def _value(number: int, position: int) -> bytes:
    """A stored value: a JSON object naming a file, as metadata tuples do (every third a tombstone)."""
    return json.dumps({"file_id": f"f{number}.{position}", "n": number, "deleted": number % 3 == 0},
                      sort_keys=True).encode()


def _holder(user: str) -> Holder:
    return Holder(f"s-{user}", deadline=1e9)


class _DictModel:
    """What the replicas' steps must do, over a dict of (owner, version, value, grants) and a lock map."""

    def __init__(self):
        self.entries: dict[str, tuple[str, int, bytes, dict[str, Permission]]] = {}
        self.locks: dict[str, str] = {}

    @staticmethod
    def _may(found, user, permission):
        """The model's own spelling of the rule: the owner, or what grants to ``user`` and to anyone hold."""
        owner, _version, _value, grants = found
        held = Permission.NONE
        for grantee, granted in grants.items():
            if grantee in (user, "*"):
                held |= granted
        return user == owner or held & permission == permission

    def _writable(self, key, user, expected):
        found = self.entries.get(key)
        if expected is not None and (found[1] if found else 0) != expected:
            raise ConflictError("version mismatch")
        if found is not None and not self._may(found, user, Permission.WRITE):
            raise EntryDeniedError("write denied")
        return found

    def _step(self, op, user):
        """Apply one concrete step for ``user``; its result as ``(key, value, version, owner)``."""
        if isinstance(op, Lock):
            if op.name in self.locks:
                raise LockHeldError("held", lock=op.name)
            self.locks[op.name] = f"s-{user}"
            return None
        key = op.key
        if isinstance(op, Put):
            found = self._writable(key, user, op.expected_version)
            if found is None or json.loads(found[2])["deleted"]:
                # Over nothing or a tombstone: a new entry, the sender's.
                owner, grants = user, dict(op.grants or {})
            else:
                owner, grants = found[0], found[3]
            self.entries[key] = (owner, (found[1] if found else 0) + 1, op.value, grants)
        elif isinstance(op, Update):
            found = self.entries.get(key)
            if found is None or json.loads(found[2])["file_id"] != op.file_id:
                raise ConflictError("another file")
            if op.expected_version is not None and found[1] != op.expected_version:
                raise ConflictError("version mismatch")
            if not self._may(found, user, Permission.WRITE):
                raise EntryDeniedError("write denied")
            value = json.dumps({**json.loads(found[2]), **op.fields}, sort_keys=True).encode()
            self.entries[key] = (found[0], found[1] + 1, value, found[3])
        elif isinstance(op, Delete):
            if self._writable(key, user, None) is not None:
                del self.entries[key]
            return None
        elif isinstance(op, Move):
            found = self.entries.get(key)
            if found is None or json.loads(found[2])["deleted"]:  # no version names a tombstone
                raise TupleNotFoundError("no source")
            self._writable(key, user, None)
            self._writable(op.new_key, user, op.target_version)
            del self.entries[key]
            key = op.new_key
            value = json.dumps({**json.loads(found[2]), **op.fields}, sort_keys=True).encode()
            self.entries[key] = (found[0], max(found[1], op.target_version) + 1, value, found[3])
        else:
            found = self.entries.get(key)
            if found is None:
                raise TupleNotFoundError("no entry")
            if user != found[0]:
                raise EntryDeniedError("not the owner")
            grants = {u: p for u, p in found[3].items() if u != op.user}
            if op.permission is not Permission.NONE:
                grants[op.user] = op.permission
            self.entries[key] = (found[0], found[1] + 1, found[2], grants)
            return None
        owner, version, value, _grants = self.entries[key]
        return (key, value, version, owner)

    def command(self, ops, user):
        """All or nothing: each key and lock changed once, then the steps in order."""
        changed = [(isinstance(op, Lock), key) for op in ops
                   for key in ((op.key, op.new_key) if isinstance(op, Move) else (op[0],))]
        if len(set(changed)) != len(changed):
            raise ConflictError("changed twice")
        entries, locks = dict(self.entries), dict(self.locks)
        try:
            return [self._step(op, user) for op in ops]
        except ReproError:
            self.entries, self.locks = entries, locks
            raise

    def listing(self, prefix, user):
        return [(key, found[2], found[1], found[0]) for key, found in sorted(self.entries.items())
                if key.startswith(prefix) and self._may(found, user, Permission.READ)]


def _concrete(step, model, number, position):
    """The step a drawn one names, its symbolic versions and file ids resolved against ``model``."""
    def version(key, how):
        current = model.entries[key][1] if key in model.entries else 0
        return {"current": current, "stale": max(current - 1, 0)}.get(how, how)

    kind, key = step[0], step[1]
    if kind == "put":
        return Put(key, _value(number, position), version(key, step[2]))
    if kind == "update":
        current = model.entries.get(key)
        file_id = json.loads(current[2])["file_id"] if current and step[2] == "current" else "other"
        return Update(key, file_id, {"n": number}, version(key, step[3]))
    if kind == "delete":
        return Delete(key)
    if kind == "move":
        return Move(key, step[2], {"n": number}, target_version=version(step[2], step[3]))
    if kind == "acl":
        return Grant(key, step[2], step[3])
    return Lock(key)


def _outcome(call):
    try:
        return call()
    except ReproError as refused:
        return type(refused)


def _replies(entries):
    return [None if entry is None else (entry.key, entry.value, entry.version, entry.acl.owner)
            for entry in entries]


def _send(replica, ops, user):
    return _replies(replica.entry_multi(ops, user, 0.0, holder=_holder(user)))


def _assert_agree(replica, model):
    for prefix in PREFIXES:
        for user in USERS:
            [entries] = replica.entry_multi([List(prefix)], user, 0.0, holder=_holder(user))
            listed = [(e.key, e.value, e.version, e.acl.owner) for e in entries]
            assert listed == model.listing(prefix, user)
    assert replica.entry_count() == len(model.entries)
    for name in LOCKS:
        assert lock_holder(replica, name, 0.0) == model.locks.get(name)


class TestEntryStoreProperties:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(USERS), _entry_step), max_size=40))
    # A grantee re-creates the entry over ann's tombstone (step 0's value): it is now ben's.
    @example(steps=[("ann", ("put", "meta:/a", None)),
                    ("ann", ("acl", "meta:/a", "ben", Permission.READ_WRITE)),
                    ("ben", ("put", "meta:/a", "current"))])
    def test_the_replica_agrees_with_a_dict_model(self, steps):
        """One-step ``entry_multi`` commands: the client's ``put``, ``delete``, ``move``, ..."""
        replica, model = EntryCommands(), _DictModel()
        for number, (user, drawn) in enumerate(steps):
            op = _concrete(drawn, model, number, 0)
            outcome = _outcome(lambda: _send(replica, [op], user))
            assert outcome == _outcome(lambda: model.command([op], user))
            _assert_agree(replica, model)

    @settings(max_examples=150, deadline=None)
    @given(commands=st.lists(_command, max_size=12))
    def test_a_command_of_several_steps_is_all_or_nothing(self, commands):
        """Refused: every replica byte-identical to before.  Accepted: the model's steps in order."""
        replica, model = EntryCommands(), _DictModel()
        for number, (user, drawn) in enumerate(commands):
            ops = [_concrete(step, model, number, position) for position, step in enumerate(drawn)]
            before = pickle.dumps(replica)
            outcome = _outcome(lambda: _send(replica, ops, user))
            expected = _outcome(lambda: model.command(ops, user))
            assert outcome == expected
            if isinstance(expected, type):
                assert pickle.dumps(replica) == before
            _assert_agree(replica, model)


class TestEntryVersionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(0, 1),
                                 st.sampled_from(("put", "cas", "stale-cas", "insert"))),
                       max_size=30),
    )
    def test_interleaved_puts_lose_nothing_and_skip_no_version(self, steps):
        coordination = DepSpaceCoordination(Simulation(seed=1), f=1)
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


class SCFSMountModel(RuleBasedStateMachine):
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


SCFSMountModel.TestCase.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None
)
TestSCFSAgainstDictModel = SCFSMountModel.TestCase
