"""Unit tests for the coordination substrate: the replica state machine, replication, locks."""

import pickle
import random

import pytest

from repro.common.errors import ConflictError, QuorumNotReachedError, TupleNotFoundError
from repro.common.errors import LockHeldError
from repro.common.types import Permission
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.base import Delete, Get, Grant, List, Lock, Move, Put, Unlock
from repro.coordination.entries import EntryCommands, Holder
from repro.coordination.replication import ReplicatedStateMachine
from repro.core.lock_service import LockService
from repro.core.metadata import FileMetadata, FileType

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


class TestDepSpaceLeases:
    """A DepSpace lock lives for its own lease, counted from its take."""

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
    """``rsm.invoke`` / ``rsm.command`` arguments of alice's ``entry_multi`` of ``steps``."""
    return ("entry_multi", steps, "alice", 0.0, Holder("s1", 10.0))


class TestReplication:
    def test_replica_counts(self, sim):
        assert [ReplicatedStateMachine(sim, f=f).n for f in (0, 1, 2)] == [1, 4, 7]
        assert [ReplicatedStateMachine(sim, f=f).quorum_size() for f in (0, 1, 2)] == [1, 3, 5]
        with pytest.raises(ValueError):
            ReplicatedStateMachine(sim, f=-1)

    def test_invoke_keeps_replicas_in_sync(self, sim):
        rsm = ReplicatedStateMachine(sim, f=1)
        rsm.invoke(*_command(Put("k", b"v")))
        for index in rsm.correct_replicas:
            assert _value(rsm.replicas[index], "k", "alice") == b"v"

    def test_invoke_charges_latency(self, sim):
        rsm = ReplicatedStateMachine(sim, f=1)
        rsm.invoke(*_command(Put("k", b"v")))
        assert sim.now() > 0.0

    @pytest.mark.parametrize("f", [1, 2])
    def test_tolerates_f_crashes(self, sim, f):
        rsm = ReplicatedStateMachine(sim, f=f)
        for index in range(f):
            rsm.crash_replica(index)
        rsm.invoke(*_command(Put("k", b"v")))
        assert _value(rsm.reference_replica(), "k", "alice") == b"v"

    @pytest.mark.parametrize("f", [1, 2])
    def test_too_many_crashes_block_progress(self, sim, f):
        rsm = ReplicatedStateMachine(sim, f=f)
        for index in range(f + 1):
            rsm.crash_replica(index)
        with pytest.raises(QuorumNotReachedError):
            rsm.invoke(*_command(Put("k", b"v")))

    def test_byzantine_replicas_do_not_block_below_threshold(self, sim):
        rsm = ReplicatedStateMachine(sim, f=1)
        rsm.make_byzantine(2)
        rsm.invoke(*_command(Put("k", b"v")))
        assert rsm.commands_executed == 1

    def test_recover_replica_restores_quorum_and_state(self, sim):
        rsm = ReplicatedStateMachine(sim, f=1)
        rsm.crash_replica(0)
        rsm.invoke(*_command(Put("k", b"v")))
        rsm.crash_replica(1)
        rsm.recover_replica(0)
        assert rsm.invoke(*_command(Put("k", b"w")))[0].version == 2
        assert _value(rsm.replicas[0], "k", "alice") == b"w"

    def test_a_command_applies_after_its_wait(self, sim):
        # ``invoke`` waits out its round trip, running the tasks due in it,
        # then applies.
        rsm = ReplicatedStateMachine(sim, f=1)
        seen = []
        sim.schedule(0.01, lambda: seen.append(_value(rsm.reference_replica(), "a", "alice")))
        rsm.invoke(*_command(Put("a", b"v")))
        assert seen == [None] and _value(rsm.reference_replica(), "a", "alice") == b"v"

    def test_invalid_replica_index(self, sim):
        rsm = ReplicatedStateMachine(sim, f=1)
        with pytest.raises(IndexError):
            rsm.crash_replica(10)


def _commands(coordination) -> int:
    """Replicated commands executed so far."""
    return coordination.rsm.commands_executed


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
        before = coordination.entry_count()
        coordination.put("k1", b"x" * 100, session)
        coordination.put("k2", b"y" * 100, session)
        coordination.put("k1", b"z", session)
        assert coordination.entry_count() == before + 2


def _replica_states(coordination) -> list[bytes]:
    """Every replica's whole state, serialized (the replicas are plain objects)."""
    return [pickle.dumps(replica) for replica in coordination.rsm.replicas]


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
        before = _replica_states(coordination)
        with pytest.raises(ConflictError, match="meta:/b"):
            coordination.multi(
                [Put("meta:/a", b"v2", 1), Put("meta:/b", b"v2", 1), Put("meta:/c", b"v2", 1),
                 Put("txn:t1", b"committed", 1)], session)
        assert _replica_states(coordination) == before
        assert len(set(before)) == 1  # and the replicas agree
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
        before = _replica_states(coordination)
        with pytest.raises(LockHeldError) as refused:
            coordination.multi([Lock("L1"), Lock("L2"), Lock("L3")], s1)
        assert refused.value.lock == "L2"
        assert _replica_states(coordination) == before
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
        commands, refused_at = service.rsm.commands_executed, sim.now() + service.rsm.latency.sample(0, replay)
        with pytest.raises(LockHeldError, match="/L is locked"):
            waiter.acquire(_file("L"))
        assert service.rsm.commands_executed == commands + 1
        assert sim.now() == refused_at and sim.rng.getstate() == replay.getstate()
        assert not waiter.still_held(_file("L")) and lock_holder(service, "filelock:L") == s1.session_id

    def test_acquire_set_is_all_or_none_and_reentrant(self, sim, alice, bob):
        locks, service = self._locks(sim, alice)
        other = LockService(sim, service, service.open_session(bob))
        l1, l2, l3 = _file("L1"), _file("L2"), _file("L3")
        other.acquire(l3)
        locks.acquire(l1)
        with pytest.raises(LockHeldError) as refused:
            locks.acquire_set([l1, l2, l3])
        assert refused.value.lock == "filelock:L3"
        assert locks.held == {"filelock:L1": 1} and lock_holder(service, "filelock:L2") is None
        other.release(l3)
        commands = service.rsm.commands_executed
        transitions = []
        locks.on_transition = lambda kind, name: transitions.append((kind, name))
        assert locks.acquire_set([l1, l2, l3])  # L1 only gains a count
        assert transitions == [("lock", "filelock:L2"), ("lock", "filelock:L3")]
        assert service.rsm.commands_executed == commands + 1
        assert locks.held == {"filelock:L1": 2, "filelock:L2": 1, "filelock:L3": 1}
        locks.release_set([l1, l2, l3])
        assert transitions[2:] == [("unlock", "filelock:L2"), ("unlock", "filelock:L3")]
        assert service.rsm.commands_executed == commands + 2
        assert locks.held == {"filelock:L1": 1} and lock_holder(service, "filelock:L1") is not None
        locks.release_set([l1, _file("unheld")])
        assert lock_holder(service, "filelock:L1") is None

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
        locks.acquire_set([_file("L1"), _file("L2")])
        locks.acquire(_file("L2"))

        def unreachable(ops, session):
            raise QuorumNotReachedError("the replicas are down")

        service.multi = unreachable
        with pytest.raises(QuorumNotReachedError):
            locks.release_set([_file("L1"), _file("L2")])
        assert locks.held == {"filelock:L1": 1, "filelock:L2": 2}

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
        assert locks.acquire_set([old, new])
        assert locks.held == {"filelock:L": 1}
        assert _commands(service) == commands + 1
        locks.release_set([new, old])
        assert locks.held == {} and lock_holder(service, "filelock:L") is None
