"""Unit tests for the coordination substrate: the replica state machine, replication, locks."""

import json
import pickle
import random

import pytest

from repro.common.errors import (
    ConfigurationError,
    ConflictError,
    DirectoryNotEmptyError,
    EntryDeniedError,
    FileExistsErrorFS,
    FileNotFoundErrorFS,
    InvalidMoveError,
    LockHeldError,
    NotADirectoryErrorFS,
    PermissionDeniedError,
    QuorumNotReachedError,
    TupleNotFoundError,
)
from repro.common.types import Permission
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import (
    Check, Delete, Get, Grant, List, Lock, Move, Put, Unheld, Unlock, Update)
from repro.coordination.entries import EntryCommands, Holder
from repro.core.lock_service import LockService
from repro.core.deployment import SCFSDeployment
from repro.core.metadata import FileMetadata, FileType
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import FaultPhase, ScenarioSpec
from repro.scenarios.trace import TraceRecorder

from conftest import lock_holder


def _multi(replica, steps, user="alice", now=0.0, session="s1", deadline=None):
    """One ``entry_multi`` of ``steps`` for ``user``'s session (deadline: ``now`` + a 10 s lease)."""
    holder = Holder(session, deadline=now + 10.0 if deadline is None else deadline)
    return replica.entry_multi(steps, user, now, holder=holder)


def _take(replica, names, now, session="s1", deadline=None):
    """Take ``names`` in one command for ``session``."""
    return _multi(replica, [Lock(name) for name in names], now=now, session=session,
                  deadline=deadline)


def _list(replica, prefix, user="alice"):
    """The entries a ``List`` step shows ``user`` under ``prefix``."""
    return _multi(replica, [List(prefix)], user)[0]


def _value(replica, key, user):
    """The value a ``Get`` step shows ``user`` under ``key`` (None: absent)."""
    entry, = _multi(replica, [Get(key)], user)
    return None if entry is None else entry.value


@pytest.fixture
def replica():
    """One DepSpace replica state machine."""
    return EntryCommands()


class TestReplica:
    def test_apply_dispatches_commands(self, replica):
        holder = Holder("s1", 10.0)
        replica.apply(("entry_multi", ((Put("k", b"v"),), "alice", 0.0), {"holder": holder}))
        listed, = replica.apply(("entry_multi", ((List("k"),), "alice", 0.0), {"holder": holder}))
        assert [e.value for e in listed] == [b"v"]

    def test_apply_accepts_exactly_its_commands(self, replica):
        assert replica.COMMANDS == {"entry_multi", "close_session"}
        for operation in ("entry_put", "entry_get", "entry_list", "entry_count", "lock_holder", "apply",
                          "_expire", "install", "_entries", "not_an_op"):
            with pytest.raises(ConflictError, match=type(replica).__name__):
                replica.apply((operation, (0.0,), {}))

    def test_a_held_lock_refuses_a_take_and_an_unlock_by_another_session(self, replica):
        _take(replica, ["f"], 0.0)
        with pytest.raises(LockHeldError):
            _take(replica, ["f"], 1.0, session="s2")
        _multi(replica, [Unlock("f")], "bob", 1.0, session="s2", deadline=11.0)
        assert lock_holder(replica, "f", 1.0) == "s1"
        _multi(replica, [Unlock("f")], "alice", 1.0)
        assert lock_holder(replica, "f", 1.0) is None

    def test_a_refused_multi_takes_no_lock(self, replica):
        with pytest.raises(ConflictError):
            _multi(replica, [Lock("l"), Put("k", b"x", 5)])
        assert lock_holder(replica, "l", 0.0) is None and replica.entry_count() == 0

    def test_grants_apply_when_a_put_creates_the_entry_only(self, replica):
        _multi(replica, [Put("k", b"v1", grants={"*": Permission.READ})])
        assert _value(replica, "k", "bob") == b"v1"
        with pytest.raises(ConflictError):
            _multi(replica, [Put("k", b"bob's")], "bob")  # READ, not WRITE
        # An update keeps the ACL the entry has, whatever grants it names.
        _multi(replica, [Put("k", b"v2", grants={"bob": Permission.READ_WRITE})])
        assert _value(replica, "k", "carol") == b"v2"
        with pytest.raises(ConflictError):
            _multi(replica, [Put("k", b"bob's")], "bob")

    def test_an_update_keeps_an_acl_set_after_creation(self, replica):
        _multi(replica, [Put("k", b"v1")])
        assert _multi(replica, [Grant("k", "bob", Permission.READ)]) == [None]
        _multi(replica, [Put("k", b"v2")])
        assert _value(replica, "k", "bob") == b"v2"

    def test_a_put_step_creates_its_entry_with_its_grants(self, replica):
        _multi(replica, [Put("a", b"x", 0, {"bob": Permission.READ}), Put("b", b"y", 0)])
        assert _value(replica, "a", "bob") == b"x"
        with pytest.raises(ConflictError):
            _value(replica, "b", "bob")

    def test_a_lock_taken_now_lapses_ten_seconds_on(self, replica):
        """Take at 0: the lease ends at 10."""
        _take(replica, ["f"], 0.0)
        assert lock_holder(replica, "f", 9.99) == "s1"
        assert lock_holder(replica, "f", 10.0) is None
        _take(replica, ["f"], 10.0, session="s2", deadline=20.0)
        assert lock_holder(replica, "f", 10.0) == "s2"

    def test_listing_visits_only_its_prefix_sorted(self, replica):
        _multi(replica, [Put(key, key.encode()) for key in (
            "meta:/a/b2", "meta:/a/b/c", "meta:/a/b", "meta:/a%2F", "meta:/a/b/%", "meta:/ab")])
        listed = [entry.key for entry in _list(replica, "meta:/a/b/")]
        assert listed == ["meta:/a/b/%", "meta:/a/b/c"]
        listed = [entry.key for entry in _list(replica, "meta:/a/b")]
        assert listed == ["meta:/a/b", "meta:/a/b/%", "meta:/a/b/c", "meta:/a/b2"]
        listed = [entry.key for entry in _list(replica, "meta:/a%")]
        assert listed == ["meta:/a%2F"]
        assert _list(replica, "meta:/a/b", "bob") == []  # nothing granted to bob
        assert replica.entry_count() == 6

    def test_a_move_reindexes_the_entry(self, replica):
        _multi(replica, [Put("meta:/d/x", b'{"n": 1, "path": "/d/x"}')])
        moved, = _multi(replica, [Move("meta:/d/x", "meta:/e/x", {"path": "/e/x"})])
        assert (moved.key, moved.value, moved.version) == (
            "meta:/e/x", b'{"n": 1, "path": "/e/x"}', 2)
        assert _list(replica, "meta:/d/") == []
        assert [e.key for e in _list(replica, "meta:/e/")] == ["meta:/e/x"]
        assert _multi(replica, [Delete("meta:/e/x"), Delete("meta:/never")]) == [None, None]
        assert replica.entry_count() == 0 and _value(replica, "meta:/e/x", "alice") is None

    def test_a_move_changes_both_its_keys_once(self, replica):
        _multi(replica, [Put("a", b"1"), Put("b", b"1")])
        for steps in ([Move("a", "a", target_version=1)],
                      [Move("a", "c"), Put("c", b"3")],
                      [Move("a", "c"), Delete("a")]):
            with pytest.raises(ConflictError, match="only once"):
                _multi(replica, steps)
        assert [e.key for e in _list(replica, "")] == ["a", "b"]

    def test_checks_of_every_step_precede_every_change(self, replica):
        _multi(replica, [Put("a", b"1"), Put("b", b"1")])
        _multi(replica, [Put("theirs", b"t")], "bob")
        before = pickle.dumps(replica)
        for steps, refusal in (
                ([Delete("a"), Move("b", "c"), Grant("theirs", "alice", Permission.READ)],
                 ConflictError),
                ([Grant("a", "bob", Permission.READ), Move("missing", "d")],
                 TupleNotFoundError),
                ([Delete("b"), Grant("gone", "bob", Permission.READ)], TupleNotFoundError),
                ([Move("a", "c"), Delete("theirs")], ConflictError)):
            with pytest.raises(refusal):
                _multi(replica, steps)
            assert pickle.dumps(replica) == before
        assert _multi(replica, [Delete("a"), Move("b", "c"), Lock("l")])[1].version == 2


def _node(path, kind="directory", file_id="", deleted=False):
    """A metadata value as the agent stores it (the fields the replica reads)."""
    return json.dumps({"path": path, "type": kind, "file_id": file_id, "deleted": deleted},
                      sort_keys=True).encode()


def _tree(replica):
    """``/d`` holding the file ``f`` and ``/d/s`` with a tombstone; the sibling ``/d2``."""
    _multi(replica, [Put("meta:/d", _node("/d")), Put("meta:/d/f", _node("/d/f", "file", "f")),
                     Put("meta:/d/s", _node("/d/s")),
                     Put("meta:/d/s/g", _node("/d/s/g", "file", "g", deleted=True)),
                     Put("meta:/d2", _node("/d2"))])


class TestNamespaceTree:
    """A directory's ``Move``, an ``rmdir``'s ``Delete`` and the ``Unheld`` guard."""

    def test_a_directory_move_carries_every_entry_below_it_and_its_path(self, replica):
        _tree(replica)
        versions = {entry.key: entry.version for entry in _list(replica, "meta:/d/")}
        moved, = _multi(replica, [Move("meta:/d", "meta:/e", {"path": "/e"})])
        assert json.loads(moved.value)["path"] == "/e"
        assert {entry.key: (json.loads(entry.value)["path"], entry.version)
                for entry in _list(replica, "meta:/e/")} == {
            key.replace("/d/", "/e/"): (key[len("meta:"):].replace("/d/", "/e/"), version + 1)
            for key, version in versions.items()}
        assert [entry.key for entry in _list(replica, "meta:/d")] == ["meta:/d2"]

    def test_a_refused_directory_move_changes_nothing(self, replica):
        _tree(replica)
        _multi(replica, [Put("meta:/taken/f", _node("/taken/f", "file", "t"))])
        _multi(replica, [Grant("meta:/d", "bob", Permission.READ_WRITE),
                         Grant("meta:/d/s", "bob", Permission.READ_WRITE),
                         Grant("meta:/d/s/g", "bob", Permission.READ_WRITE)])
        before = pickle.dumps(replica)
        for user, new_key, refusal in (("alice", "meta:/d/s/in", InvalidMoveError),
                                       ("alice", "meta:/taken", FileExistsErrorFS),
                                       ("bob", "meta:/e", EntryDeniedError)):
            with pytest.raises(refusal):
                _multi(replica, [Move("meta:/d", new_key, {"path": new_key[5:]})], user)
            assert pickle.dumps(replica) == before
        _multi(replica, [Move("meta:/d/s", "meta:/taken/s")], "bob")  # bob may write all of it

    def test_an_rmdir_delete_refuses_all_but_an_empty_directory(self, replica):
        _tree(replica)
        before = pickle.dumps(replica)
        for key, refusal in (("meta:/none", FileNotFoundErrorFS),
                             ("meta:/d/f", NotADirectoryErrorFS),
                             ("meta:/d", DirectoryNotEmptyError)):
            with pytest.raises(refusal):
                _multi(replica, [Delete(key, directory=True)])
        with pytest.raises(PermissionDeniedError):
            _multi(replica, [Delete("meta:/d/s", directory=True)], "bob")
        assert pickle.dumps(replica) == before
        _multi(replica, [Delete("meta:/d/s", directory=True)])  # a tombstone below stays
        assert [entry.key for entry in _list(replica, "meta:/d/")] == ["meta:/d/f", "meta:/d/s/g"]
        _multi(replica, [Delete("meta:/d")])  # a plain Delete checks no tree

    def test_unheld_refuses_another_sessions_lock_of_a_live_file_below(self, replica):
        _tree(replica)
        _take(replica, ["filelock:g"], 0.0, session="s2")  # the tombstone's file: no refusal
        assert _multi(replica, [Unheld("meta:/d")]) == [None]
        _take(replica, ["filelock:f"], 0.0)
        assert _multi(replica, [Unheld("meta:/d"), Unheld("meta:/d/f")]) == [None, None]
        for key in ("meta:/d", "meta:/d/f"):
            with pytest.raises(LockHeldError, match="filelock:f"):
                _multi(replica, [Unheld(key)], session="s2")
        assert _multi(replica, [Unheld("meta:/d2"), Unheld("meta:/none")], session="s2") == [
            None, None]
        assert [lock_holder(replica, name, 0.0) for name in ("filelock:f", "filelock:g")] == [
            "s1", "s2"]


class TestCheck:
    """The ``Check`` step a transaction's commit point sends for each file it only read."""

    def test_check_refuses_unless_the_entry_is_readable_at_its_version(self, replica):
        _multi(replica, [Put("meta:/f", _node("/f", "file", "f")),
                         Put("meta:/p", _node("/p", "file", "p"))])
        _multi(replica, [Grant("meta:/f", "bob", Permission.READ),
                         Grant("meta:/p", "bob", Permission.NONE)])
        before = pickle.dumps(replica)
        assert _multi(replica, [Check("meta:/f", 2)]) == [None]
        assert _multi(replica, [Check("meta:/f", 2)], "bob") == [None]
        with pytest.raises(ConflictError, match="expected 1, found 2") as stale:
            _multi(replica, [Check("meta:/f", 1)])
        assert stale.value.found.version == 2
        with pytest.raises(ConflictError, match="found 0"):
            _multi(replica, [Check("meta:/none", 0)])
        with pytest.raises(EntryDeniedError):
            _multi(replica, [Check("meta:/p", 2)], "bob")
        assert pickle.dumps(replica) == before

    def test_a_check_changes_no_key_and_refuses_its_whole_command(self, replica):
        _multi(replica, [Put("meta:/f", _node("/f", "file", "f")),
                         Put("meta:/g", _node("/g", "file", "g"))])
        fields = {"size": 1}
        _multi(replica, [Check("meta:/f", 1), Update("meta:/f", "f", fields, 1)])
        with pytest.raises(ConflictError):
            _multi(replica, [Check("meta:/g", 7), Update("meta:/f", "f", fields, 2)])
        assert [entry.version for entry in _list(replica, "meta:/")] == [2, 1]


class TestDepSpaceLeases:
    """A DepSpace lock lives for its own lease, counted from its take."""

    @pytest.mark.parametrize("seed", range(5))
    def test_locks_lapse_at_the_commands_a_scan_of_every_lock_finds(self, seed):
        """Takes, returns and closes at random times and leases: after every
        command the lock table holds exactly what dropping each lapsed lock
        leaves, in take order."""
        rng = random.Random(seed)
        replica, model = EntryCommands(), {}
        now = 0.0
        for _ in range(400):
            now += rng.choice([0.0, 0.5, 1.0, 3.0])
            model = {name: held for name, held in model.items() if now < held.deadline}
            session = rng.choice(["s1", "s2", "s3"])
            name = f"l{rng.randrange(6)}"
            deadline = now + rng.choice([1.0, 2.5, 10.0])
            action = rng.random()
            if action < 0.1:
                replica.close_session(session, "alice", now)
                model = {n: held for n, held in model.items() if held.session_id != session}
            elif action < 0.4:
                _multi(replica, [Unlock(name)], now=now, session=session, deadline=deadline)
                if name in model and model[name].session_id == session:
                    del model[name]
            else:
                try:
                    _take(replica, [name], now, session=session, deadline=deadline)
                except LockHeldError:
                    assert name in model
                else:
                    model[name] = Holder(session, deadline, "alice")
            assert replica._locks == model and list(replica._locks) == list(model)

    def test_each_lock_lapses_a_lease_after_its_own_take(self):
        space = EntryCommands()
        _take(space, ["a"], 0.0)
        _take(space, ["b"], 5.0)  # stamped by its own command: 5 + 10
        assert lock_holder(space, "a", 12.0) is None
        assert lock_holder(space, "b", 12.0) == "s1"
        assert lock_holder(space, "b", 15.0) is None

    def test_closing_a_session_returns_all_its_locks_in_one_command(self):
        space = EntryCommands()
        _take(space, ["c", "a"], 0.0)
        _take(space, ["b"], 1.0)
        _take(space, ["z"], 1.0, session="s2")
        space.close_session("s1", "alice", 2.0)
        assert [lock_holder(space, name, 2.0) for name in "abcz"] == [None, None, None, "s2"]

    def test_no_later_command_of_the_session_extends_a_lease(self):
        space = EntryCommands()
        _take(space, ["a"], 0.0)
        _multi(space, [], now=5.0)  # a heartbeat: no step at all, its own deadline 15
        _multi(space, [Put("k", b"v")], now=8.0)
        assert lock_holder(space, "a", 9.99) == "s1"
        assert lock_holder(space, "a", 10.0) is None

    def test_a_heartbeat_after_a_lapse_does_not_bring_the_lock_back(self):
        space = EntryCommands()
        _take(space, ["a"], 0.0)
        _multi(space, [], now=11.0)  # nothing read the lock in between
        assert lock_holder(space, "a", 12.0) is None
        _take(space, ["b"], 12.0)
        assert [lock_holder(space, name, 13.0) for name in "ab"] == [None, "s1"]

    def test_a_refused_take_leaves_the_sessions_leases_as_they_were(self):
        space = EntryCommands()
        _take(space, ["a"], 0.0)
        _take(space, ["z"], 0.0, session="s2", deadline=50.0)
        with pytest.raises(LockHeldError):
            _take(space, ["b", "z"], 5.0)
        assert [lock_holder(space, name, 9.0) for name in "abz"] == ["s1", None, "s2"]
        assert lock_holder(space, "a", 10.0) is None

    def test_closing_a_session_leaves_a_lapsed_lock_to_its_new_holder(self):
        space = EntryCommands()
        _take(space, ["a"], 0.0)
        _take(space, ["b"], 5.0)
        _take(space, ["a"], 11.0, session="s2")  # "a" lapsed at 10 and was taken again
        space.close_session("s1", "alice", 11.0)
        assert [lock_holder(space, name, 11.0) for name in "ab"] == ["s2", None]


def _command(*steps):
    """``invoke`` arguments of alice's ``entry_multi`` of ``steps``."""
    return ("entry_multi", steps, "alice", 0.0, Holder("s1", 10.0))


#: ``(f, n, quorum)``: SCFS-AWS's one DepSpace VM, SCFS-CoC's four replicas, and seven.
REPLICA_COUNTS = [(0, 1, 1), (1, 4, 3), (2, 7, 5)]


class TestReplication:
    @pytest.mark.parametrize("f, n, quorum", REPLICA_COUNTS)
    def test_replica_counts(self, sim, f, n, quorum):
        service = DepSpaceCoordination(sim, f=f)
        assert len(service.replicas.universe) == n
        assert service.replicas.quorum().min_size == quorum

    def test_a_negative_fault_threshold_is_refused(self, sim):
        with pytest.raises(ConfigurationError):
            DepSpaceCoordination(sim, f=-1)

    def test_invoke_charges_latency(self, sim):
        service = DepSpaceCoordination(sim, f=1)
        service.invoke(*_command(Put("k", b"v")))
        assert sim.now() > 0.0

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_tolerates_f_crashes(self, sim, f):
        service = DepSpaceCoordination(sim, f=f)
        for index in range(f):
            service.fail_replica(index)
        service.invoke(*_command(Put("k", b"v")))
        assert _value(service.state, "k", "alice") == b"v"

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_too_many_crashes_block_progress(self, sim, f):
        """With f + 1 replicas out no command runs: at f = 0, the one VM's crash."""
        service = DepSpaceCoordination(sim, f=f)
        for index in range(f + 1):
            service.fail_replica(index)
        with pytest.raises(QuorumNotReachedError):
            service.invoke(*_command(Put("k", b"v")))
        with pytest.raises(QuorumNotReachedError):
            service.invoke("close_session", "s1", "alice", 0.0)
        assert service.commands_executed == 0 and service.state.entry_count() == 0
        assert sim.now() == 0.0

    def test_byzantine_replicas_do_not_block_below_threshold(self, sim):
        service = DepSpaceCoordination(sim, f=1)
        service.fail_replica(2)
        service.invoke(*_command(Put("k", b"v")))
        assert service.commands_executed == 1

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_recover_replica_restores_quorum_and_state(self, sim, f):
        service = DepSpaceCoordination(sim, f=f)
        for index in range(f):
            service.fail_replica(index)
        service.invoke(*_command(Put("k", b"v")))
        service.fail_replica(f)
        with pytest.raises(QuorumNotReachedError):
            service.invoke(*_command(Put("k", b"w")))
        service.recover_replica(0)
        assert service.invoke(*_command(Put("k", b"w")))[0].version == 2
        assert _value(service.state, "k", "alice") == b"w"

    def test_recovery_never_rolls_back_what_a_quorum_acknowledged(self, sim, alice):
        """A replica that was out while a quorum wrote comes back to that write.

        Recovery that copied the first replica marked correct copied the
        stale one here, and ``get`` read ``v1`` again.
        """
        service = DepSpaceCoordination(sim, f=1)
        session = service.open_session(alice)
        service.put("k", b"v1", session)
        service.fail_replica(0)
        service.put("k", b"v2", session)  # acknowledged by replicas 1-3
        for index in (1, 2, 3):
            service.fail_replica(index)
        for index in (0, 1, 2):
            service.recover_replica(index)
        assert service.get("k", session).value == b"v2"

    @pytest.mark.parametrize("kind", ["crash", "byzantine", "partition"])
    def test_each_replica_fault_kind_blocks_at_f_plus_one_and_recovers(self, kind, alice):
        """A scenario's replica fault phase of any kind takes the replica's vote away."""
        spec = ScenarioSpec.generate(7)
        runner, recorder = ScenarioRunner(spec), TraceRecorder()
        deployment = SCFSDeployment.for_variant(spec.variant, seed=7)
        service = deployment.coordination
        session = service.open_session(alice)
        phases = [FaultPhase(f"replica:{index}", kind, 0.0, 1.0) for index in range(2)]
        service.put("k", b"v1", session)
        runner._apply_fault(deployment, recorder, "start", phases[0], {})
        service.put("k", b"v2", session)  # the last quorum: replicas 1-3
        runner._apply_fault(deployment, recorder, "start", phases[1], {})
        with pytest.raises(QuorumNotReachedError):
            service.put("k", b"v3", session)
        runner._apply_fault(deployment, recorder, "end", phases[0], {})
        assert service.get("k", session).value == b"v2"
        assert service.put("k", b"v3", session).version == 3
        assert [(event.kind, event.fields["fault"]) for event in recorder.events] == [
            ("fault_start", kind), ("fault_start", kind), ("fault_end", kind)]

    def test_a_command_applies_after_its_wait(self, sim):
        # ``invoke`` waits out its round trip, running the tasks due in it,
        # then applies.
        service = DepSpaceCoordination(sim, f=1)
        seen = []
        sim.schedule(0.01, lambda: seen.append(_value(service.state, "a", "alice")))
        service.invoke(*_command(Put("a", b"v")))
        assert seen == [None] and _value(service.state, "a", "alice") == b"v"

    @pytest.mark.parametrize("f, n, _quorum", REPLICA_COUNTS)
    def test_invalid_replica_index(self, sim, f, n, _quorum):
        service = DepSpaceCoordination(sim, f=f)
        for index in (-1, n, 10):
            with pytest.raises(IndexError):
                service.fail_replica(index)
        assert not service.faulty


def _commands(coordination) -> int:
    """Replicated commands executed so far."""
    return coordination.commands_executed


class TestCoordinationAdapters:
    def test_put_get_roundtrip(self, coordination, alice):
        session = coordination.open_session(alice)
        entry = coordination.put("meta:/f", b"payload", session)
        assert entry.version == 1
        assert coordination.get("meta:/f", session).value == b"payload"

    def test_version_increments_on_update(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"v1", session)
        entry = coordination.put("k", b"v2", session)
        assert entry.version == 2

    def test_conditional_update_detects_conflicts(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"v1", session)
        coordination.put("k", b"v2", session, expected_version=1)
        with pytest.raises(ConflictError):
            coordination.put("k", b"v3", session, expected_version=1)

    def test_conditional_create_of_missing_entry_fails(self, coordination, alice):
        session = coordination.open_session(alice)
        with pytest.raises(ConflictError):
            coordination.put("missing", b"v", session, expected_version=3)

    def test_get_missing_raises(self, coordination, alice):
        session = coordination.open_session(alice)
        with pytest.raises(TupleNotFoundError):
            coordination.get("nope", session)

    def test_delete_is_idempotent(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"v", session)
        coordination.delete("k", session)
        coordination.delete("k", session)
        with pytest.raises(TupleNotFoundError):
            coordination.get("k", session)

    def test_list_prefix(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("meta:/a/1", b"", session)
        coordination.put("meta:/a/2", b"", session)
        coordination.put("meta:/b/1", b"", session)
        assert coordination.list_prefix("meta:/a/", session) == ["meta:/a/1", "meta:/a/2"]

    def test_entry_acl_blocks_unauthorised_readers(self, coordination, alice, bob):
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        coordination.put("k", b"secret", alice_session)
        with pytest.raises(ConflictError):
            coordination.get("k", bob_session)
        coordination.set_entry_acl("k", "bob", Permission.READ, alice_session)
        assert coordination.get("k", bob_session).value == b"secret"
        with pytest.raises(ConflictError):
            coordination.put("k", b"evil", bob_session)

    def test_only_owner_changes_entry_acl(self, coordination, alice, bob):
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        coordination.put("k", b"v", alice_session)
        with pytest.raises((ConflictError, TupleNotFoundError)):
            coordination.set_entry_acl("k", "bob", Permission.READ, bob_session)

    def test_lock_mutual_exclusion(self, coordination, alice, bob):
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        assert coordination.try_lock("file-1", s1)
        assert not coordination.try_lock("file-1", s2)
        coordination.unlock("file-1", s1)
        assert coordination.try_lock("file-1", s2)

    def test_unlock_by_non_holder_is_harmless(self, coordination, alice, bob):
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        coordination.try_lock("file-1", s1)
        coordination.unlock("file-1", s2)
        assert lock_holder(coordination, "file-1") == s1.session_id

    def test_close_session_releases_locks(self, coordination, alice, bob):
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        coordination.try_lock("file-1", s1)
        coordination.close_session(s1)
        assert coordination.try_lock("file-1", s2)

    def test_close_session_costs(self, coordination, alice, bob):
        """One command, whatever the session holds."""
        s1, s2 = coordination.open_session(alice), coordination.open_session(bob)
        coordination.multi([Lock("a"), Lock("b")], s1)
        coordination.try_lock("c", s2)
        before = _commands(coordination)
        coordination.close_session(s1)
        assert _commands(coordination) - before == 1
        assert [lock_holder(coordination, name) for name in "abc"] == [None, None, s2.session_id]

    def test_entry_count(self, coordination, alice):
        session = coordination.open_session(alice)
        before = coordination.state.entry_count()
        coordination.put("k1", b"x" * 100, session)
        coordination.put("k2", b"y" * 100, session)
        coordination.put("k1", b"z", session)
        assert coordination.state.entry_count() == before + 2


def _state(coordination) -> bytes:
    """The service's whole replicated state, serialized (a plain object)."""
    return pickle.dumps(coordination.state)


class TestMultiCommand:
    """``multi``: several steps, one replicated command, all or nothing."""

    def test_puts_and_gets_are_one_command(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("meta:/a", b"a1", session)
        before = _commands(coordination)
        results = coordination.multi(
            [Get("meta:/a"), Get("meta:/a/missing"), Put("meta:/a", b"a2", 1),
             Put("meta:/a/b", b"b1", 0)], session)
        assert _commands(coordination) == before + 1
        assert (results[0].value, results[0].version) == (b"a1", 1)  # the state before
        assert results[1] is None
        assert [(r.key, r.version) for r in results[2:]] == [("meta:/a", 2), ("meta:/a/b", 1)]
        assert coordination.get("meta:/a", session).value == b"a2"
        assert coordination.get("meta:/a/b", session).value == b"b1"

    def test_a_mismatching_put_leaves_every_replica_untouched(self, coordination, alice):
        """The commit point of a transaction whose 2nd of 3 version CASes lost."""
        session = coordination.open_session(alice)
        for key in ("meta:/a", "meta:/b", "meta:/c"):
            coordination.put(key, b"v1", session)
        coordination.put("meta:/b", b"usurper", session)  # now at version 2
        coordination.put("txn:t1", b"pending", session)
        before = _state(coordination)
        with pytest.raises(ConflictError, match="meta:/b"):
            coordination.multi(
                [Put("meta:/a", b"v2", 1), Put("meta:/b", b"v2", 1), Put("meta:/c", b"v2", 1),
                 Put("txn:t1", b"committed", 1)], session)
        assert _state(coordination) == before
        assert coordination.get("meta:/a", session).value == b"v1"
        assert coordination.get("txn:t1", session).value == b"pending"

    def test_a_put_the_acl_denies_refuses_the_command(self, coordination, alice, bob):
        owner, other = coordination.open_session(alice), coordination.open_session(bob)
        coordination.put("meta:/a", b"alice's", owner)
        with pytest.raises(ConflictError):
            coordination.multi([Put("meta:/a/new", b"x", 0), Put("meta:/a", b"bob's")], other)
        with pytest.raises(ConflictError):
            coordination.multi([Get("meta:/a")], other)
        with pytest.raises(TupleNotFoundError):
            coordination.get("meta:/a/new", other)

    def test_a_key_changes_once_per_command(self, coordination, alice):
        session = coordination.open_session(alice)
        with pytest.raises(ConflictError):
            coordination.multi([Put("k", b"1", 0), Put("k", b"2", 0)], session)
        with pytest.raises(ConflictError):
            coordination.multi([Lock("L"), Unlock("L")], session)

    def test_a_lock_set_with_one_name_held_acquires_none(self, coordination, alice, bob):
        s1, s2 = coordination.open_session(alice), coordination.open_session(bob)
        assert coordination.try_lock("L2", s2)
        before = _state(coordination)
        with pytest.raises(LockHeldError) as refused:
            coordination.multi([Lock("L1"), Lock("L2"), Lock("L3")], s1)
        assert refused.value.lock == "L2"
        assert _state(coordination) == before
        assert [lock_holder(coordination, name) for name in ("L1", "L2", "L3")] == [
            None, s2.session_id, None]

    def test_lock_set_is_taken_and_returned_together(self, coordination, alice, bob):
        s1, s2 = coordination.open_session(alice), coordination.open_session(bob)
        coordination.multi([Lock("L1"), Lock("L2")], s1)
        assert not coordination.try_lock("L1", s2) and not coordination.try_lock("L2", s2)
        # Returning a lock someone else holds (or nobody does) changes nothing.
        coordination.multi([Unlock("L1"), Unlock("L2")], s2)
        assert lock_holder(coordination, "L1") == s1.session_id
        coordination.multi([Unlock("L1"), Unlock("L2"), Unlock("never-taken")], s1)
        assert coordination.try_lock("L1", s2) and coordination.try_lock("L2", s2)

    def test_locks_of_a_set_expire_with_the_lease(self, coordination, alice, bob, sim):
        s1 = coordination.open_session(alice, lease_seconds=5.0)
        s2 = coordination.open_session(bob)
        coordination.multi([Lock("L1"), Lock("L2")], s1)
        sim.advance(6.0)
        coordination.multi([Lock("L1"), Lock("L2")], s2)
        assert lock_holder(coordination, "L2") == s2.session_id


class TestDepSpaceLockExpiry:
    def test_crashed_client_lock_expires_with_lease(self, coordination, sim, alice, bob):
        service = coordination
        s1 = service.open_session(alice, lease_seconds=5.0)
        s2 = service.open_session(bob)
        assert service.try_lock("f", s1)
        # The client "crashes": it never unlocks nor renews.  After the lease,
        # the timed tuple disappears and another client can lock the file.
        assert not service.try_lock("f", s2)
        sim.advance(6.0)
        assert service.try_lock("f", s2)

    def test_heartbeat_leaves_latency_charging_as_it_found_it(self, coordination, sim, alice):
        """A heartbeat inside a background commit must not switch charging
        back on for the rest of it — nor off for a foreground caller."""
        service = coordination
        session = service.open_session(alice)
        before, commands = sim.now(), _commands(service)
        service.renew_session(session)
        assert sim.now() == before  # the heartbeat itself is never charged
        # An entry_multi of no step.
        assert _commands(service) == commands + 1
        assert not sim.in_background
        service.put("k", b"v", session)
        assert sim.now() > before  # ...and the foreground still is
        with sim.background():
            before = sim.now()
            service.renew_session(session)
            assert sim.in_background
            service.put("k", b"w", session)
            assert sim.now() == before

    def test_a_live_clients_lock_lapses_with_its_lease(self, coordination, sim, alice, bob):
        """No later command of the session extends a lease: a lock lapses a lease after its take."""
        service = coordination
        s1 = service.open_session(alice, lease_seconds=5.0)
        assert service.try_lock("f", s1)
        sim.advance(4.0)
        service.renew_session(s1)
        service.put("k", b"v", s1)
        sim.advance(1.5)
        assert lock_holder(service, "f") is None
        assert service.try_lock("f", service.open_session(bob))


def _file(file_id: str) -> FileMetadata:
    """A file whose lock is ``filelock:<file_id>``."""
    return FileMetadata(path=f"/{file_id}", file_type=FileType.FILE, owner="alice",
                        file_id=file_id)


class TestLockService:

    def _locks(self, sim, alice, service=None):
        service = DepSpaceCoordination(sim, f=0) if service is None else service
        return LockService(sim, service, service.open_session(alice)), service

    def test_acquire_and_release(self, coordination, sim, alice):
        locks, _ = self._locks(sim, alice, coordination)
        locks.acquire(_file("L"))
        assert locks.still_held(_file("L"))
        locks.release(_file("L"))
        assert not locks.still_held(_file("L"))

    def test_reentrant_acquire(self, coordination, sim, alice):
        locks, service = self._locks(sim, alice, coordination)
        assert locks.acquire(_file("L")) and locks.acquire(_file("L"))
        assert locks.held == {"filelock:L": 2}
        locks.release(_file("L"))
        assert lock_holder(service, "filelock:L") == locks.session.session_id

    def test_acquire_conflict_is_refused_at_once(self, sim, alice, bob):
        """§2.5.2: a held lock fails the open at once.

        The refusal costs the one command's round trip: the clock moves by
        that command's latency draw and nothing else (no wait, no retry).
        """
        service = DepSpaceCoordination(sim, f=0)
        s1 = service.open_session(alice)
        s2 = service.open_session(bob)
        holder = LockService(sim, service, s1)
        waiter = LockService(sim, service, s2)
        holder.acquire(_file("L"))
        replay = random.Random()
        replay.setstate(sim.rng.getstate())
        commands, refused_at = service.commands_executed, sim.now() + service.latency.sample(0, replay)
        with pytest.raises(LockHeldError, match="/L is locked"):
            waiter.acquire(_file("L"))
        assert service.commands_executed == commands + 1
        assert sim.now() == refused_at and sim.rng.getstate() == replay.getstate()
        assert not waiter.still_held(_file("L")) and lock_holder(service, "filelock:L") == s1.session_id

    def test_a_refused_acquire_takes_nothing_and_a_reentrant_one_sends_nothing(self, sim, alice, bob):
        locks, service = self._locks(sim, alice)
        other = LockService(sim, service, service.open_session(bob))
        l1, l2 = _file("L1"), _file("L2")
        other.acquire(l2)
        locks.acquire(l1)
        with pytest.raises(LockHeldError) as refused:
            locks.acquire(l2)
        assert refused.value.lock == "filelock:L2"
        assert locks.held == {"filelock:L1": 1} and lock_holder(service, "filelock:L2") == (
            other.session.session_id)
        other.release(l2)
        commands = service.commands_executed
        transitions = []
        locks.on_transition = lambda kind, name: transitions.append((kind, name))
        assert locks.acquire(l1) and locks.acquire(l2)  # L1 only gains a count
        assert transitions == [("lock", "filelock:L2")]
        assert service.commands_executed == commands + 1
        assert locks.held == {"filelock:L1": 2, "filelock:L2": 1}
        locks.release(l1)
        locks.release(l2)
        assert transitions[1:] == [("unlock", "filelock:L2")]
        assert service.commands_executed == commands + 2
        assert locks.held == {"filelock:L1": 1} and lock_holder(service, "filelock:L1") is not None
        locks.release(l1)
        locks.release(_file("unheld"))
        assert lock_holder(service, "filelock:L1") is None
        assert service.commands_executed == commands + 3

    def test_a_release_inside_the_riding_command_keeps_the_reentrant_hold(self, coordination, sim, alice):
        """A background commit's release that comes due while ``send`` is out.

        Its acquisition is one of two by then: counted only after ``send``,
        the re-entrant one would have let the release hand the lock back.
        """
        locks, service = self._locks(sim, alice, coordination)
        locks.acquire(_file("L"))
        sim.schedule(0.01, lambda: locks.release(_file("L")))
        sent = []
        assert locks.acquire(_file("L"), lambda steps: sent.append(steps) or sim.advance(0.05))
        assert sent == [[]]  # a re-entrant hold sends no Lock step
        assert lock_holder(service, "filelock:L") == locks.session.session_id
        assert locks.held == {"filelock:L": 1}

    def test_a_refused_riding_command_rolls_the_reentrant_count_back(self, coordination, sim, alice):
        locks, service = self._locks(sim, alice, coordination)
        transitions = []
        locks.acquire(_file("L"))
        locks.on_transition = lambda kind, name: transitions.append((kind, name))

        def refused(steps) -> None:
            raise LockHeldError("refused", lock="filelock:M")

        with pytest.raises(LockHeldError):
            locks.acquire(_file("L"), refused)
        assert locks.held == {"filelock:L": 1} and lock_holder(service, "filelock:L") is not None
        assert transitions == []
        # The other acquisition was released while the command was out: the
        # roll-back is the last one, and it hands the lock back.
        sim.schedule(0.01, lambda: locks.release(_file("L")))

        def released_then_refused(steps) -> None:
            sim.advance(0.05)
            refused(steps)

        with pytest.raises(LockHeldError):
            locks.acquire(_file("L"), released_then_refused)
        assert locks.held == {} and lock_holder(service, "filelock:L") is None
        assert transitions == [("unlock", "filelock:L")]

    def test_a_failed_unlock_command_leaves_the_counts_as_they_were(self, coordination, sim, alice):
        locks, service = self._locks(sim, alice, coordination)
        locks.acquire(_file("L1"))
        locks.acquire(_file("L2"))
        locks.acquire(_file("L2"))

        def unreachable(ops, session):
            raise QuorumNotReachedError("the replicas are down")

        service.multi = unreachable
        with pytest.raises(QuorumNotReachedError):
            locks.release(_file("L1"))
        assert locks.held == {"filelock:L1": 1, "filelock:L2": 2}
        locks.release(_file("L2"))  # a re-entrant count: nothing to send
        with pytest.raises(QuorumNotReachedError):
            locks.release(_file("L2"))
        assert locks.held == {"filelock:L1": 1, "filelock:L2": 1}

    def test_release_all(self, coordination, sim, alice):
        locks, service = self._locks(sim, alice, coordination)
        locks.acquire(_file("L1"))
        locks.acquire(_file("L2"))
        locks.acquire(_file("L2"))
        locks.release_all()
        assert locks.held == {}
        assert lock_holder(service, "filelock:L1") is None and lock_holder(service, "filelock:L2") is None

    def test_releasing_an_unheld_lock_sends_no_command(self, coordination, sim, alice):
        locks, service = self._locks(sim, alice, coordination)
        transitions = []
        locks.on_transition = lambda kind, name: transitions.append((kind, name))
        commands, now = _commands(service), sim.now()
        locks.release(_file("L"))
        assert _commands(service) == commands and sim.now() == now
        assert locks.held == {} and transitions == []

    def test_two_paths_of_one_file_take_its_lock_once(self, coordination, sim, alice):
        """A renamed file's old and new path share the lock of its id."""
        locks, service = self._locks(sim, alice, coordination)
        old = FileMetadata(path="/old", file_type=FileType.FILE, owner="alice", file_id="L")
        new = FileMetadata(path="/new", file_type=FileType.FILE, owner="alice", file_id="L")
        commands = _commands(service)
        assert locks.acquire(old) and locks.acquire(new)
        assert locks.held == {"filelock:L": 2}
        assert _commands(service) == commands + 1
        locks.release(new)
        assert lock_holder(service, "filelock:L") == locks.session.session_id
        locks.release(old)
        assert locks.held == {} and lock_holder(service, "filelock:L") is None
