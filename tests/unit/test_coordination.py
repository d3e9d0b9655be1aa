"""Unit tests for the coordination substrate: tuple space, znodes, replication, locks."""

import pickle

import pytest

from repro.common.errors import ConflictError, QuorumNotReachedError, TupleNotFoundError
from repro.common.errors import LockHeldError, NotLockOwnerError
from repro.common.types import Permission
from repro.coordination.adapters import (
    DepSpaceCoordination,
    ZooKeeperCoordination,
    make_coordination_service,
)
from repro.coordination.base import Get, Lock, Put, Unlock
from repro.coordination.locks import LockManager
from repro.coordination.partitioned import PartitionedCoordination
from repro.coordination.replication import FaultModel, ReplicatedStateMachine, replicas_required
from repro.coordination.tuplespace import ANY, DepSpace, matches
from repro.coordination.zookeeper import ZooKeeperLike


class TestTemplateMatching:
    def test_exact_match(self):
        assert matches(("a", 1), ("a", 1))

    def test_wildcard_matches_anything(self):
        assert matches((ANY, 1), ("whatever", 1))

    def test_arity_must_match(self):
        assert not matches(("a",), ("a", 1))

    def test_value_mismatch(self):
        assert not matches(("a", 2), ("a", 1))


class TestDepSpace:
    def test_out_and_rdp(self):
        space = DepSpace()
        space.out(("file", "x", 1), now=0.0)
        assert space.rdp(("file", ANY, ANY), now=0.0) == ("file", "x", 1)

    def test_rdp_returns_none_when_no_match(self):
        assert DepSpace().rdp(("missing",), now=0.0) is None

    def test_inp_removes_the_tuple(self):
        space = DepSpace()
        space.out(("t", 1), now=0.0)
        assert space.inp(("t", ANY), now=0.0) == ("t", 1)
        assert space.rdp(("t", ANY), now=0.0) is None

    def test_cas_inserts_only_when_template_unmatched(self):
        space = DepSpace()
        assert space.cas(("lock", "f", ANY), ("lock", "f", "s1"), now=0.0)
        assert not space.cas(("lock", "f", ANY), ("lock", "f", "s2"), now=0.0)
        assert space.rdp(("lock", "f", ANY), now=0.0) == ("lock", "f", "s1")

    def test_replace_swaps_atomically(self):
        space = DepSpace()
        space.out(("entry", "k", 1), now=0.0)
        assert space.replace(("entry", "k", ANY), ("entry", "k", 2), now=0.0)
        assert space.rdp(("entry", "k", ANY), now=0.0) == ("entry", "k", 2)

    def test_replace_fails_without_match(self):
        assert not DepSpace().replace(("entry", "k", ANY), ("entry", "k", 2), now=0.0)

    def test_timed_tuple_expires(self):
        space = DepSpace()
        space.out(("lock", "f", "s1"), now=0.0, lease=10.0)
        assert space.rdp(("lock", "f", ANY), now=5.0) is not None
        assert space.rdp(("lock", "f", ANY), now=10.0) is None

    def test_renew_extends_lease(self):
        space = DepSpace()
        space.out(("lock", "f", "s1"), now=0.0, lease=10.0)
        assert space.renew(("lock", "f", ANY), now=5.0, lease=10.0)
        assert space.rdp(("lock", "f", ANY), now=12.0) is not None

    def test_renew_of_persistent_tuple_returns_false(self):
        space = DepSpace()
        space.out(("x",), now=0.0)
        assert not space.renew(("x",), now=1.0, lease=5.0)

    def test_rdp_all_and_count(self):
        space = DepSpace()
        for i in range(3):
            space.out(("entry", f"k{i}"), now=0.0)
        assert len(space.rdp_all(("entry", ANY), now=0.0)) == 3
        assert space.count(("entry", ANY), now=0.0) == 3
        assert space.total_tuples(now=0.0) == 3

    def test_trigger_rewrites_matching_tuples(self):
        def rename_prefix(fields, argument):
            old, new = argument
            parent = fields[2]
            return (*fields[:2], new + parent[len(old):] if parent.startswith(old) else parent,
                    *fields[3:])

        space = DepSpace()
        space.register_trigger("rename_prefix", rename_prefix)
        space.out(("entry", "/a/f1", "/a", 1), now=0.0)
        space.out(("entry", "/b/f2", "/b", 1), now=0.0)
        count = space.fire_trigger("rename_prefix", ("entry", ANY, ANY, ANY), ("/a", "/z"), now=0.0)
        assert count == 2  # both matched the template, only one had the prefix rewritten
        assert space.rdp(("entry", "/a/f1", ANY, ANY), now=0.0)[2] == "/z"
        assert space.rdp(("entry", "/b/f2", ANY, ANY), now=0.0)[2] == "/b"

    def test_unknown_trigger_raises(self):
        with pytest.raises(TupleNotFoundError):
            DepSpace().fire_trigger("nope", (ANY,), None, now=0.0)

    def test_stored_bytes_counts_fields(self):
        space = DepSpace()
        space.out(("key", b"\x00" * 100, 5), now=0.0)
        assert space.stored_bytes(now=0.0) >= 100

    def test_apply_dispatches_operations(self):
        space = DepSpace()
        space.apply(("out", (("k", 1), 0.0), {}))
        assert space.apply(("rdp", (("k", ANY), 0.0), {})) == ("k", 1)

    def test_apply_rejects_unknown_and_private_operations(self):
        with pytest.raises(ConflictError):
            DepSpace().apply(("_sweep", (0.0,), {}))
        with pytest.raises(ConflictError):
            DepSpace().apply(("not_an_op", (), {}))


class TestZooKeeperLike:
    def test_create_and_get(self):
        tree = ZooKeeperLike()
        tree.create("/a", b"data", now=0.0)
        assert tree.get("/a", now=0.0) == (b"data", 0)

    def test_create_requires_parent(self):
        with pytest.raises(TupleNotFoundError):
            ZooKeeperLike().create("/a/b", b"", now=0.0)

    def test_duplicate_create_rejected(self):
        tree = ZooKeeperLike()
        tree.create("/a", b"", now=0.0)
        with pytest.raises(ConflictError):
            tree.create("/a", b"", now=0.0)

    def test_invalid_paths_rejected(self):
        tree = ZooKeeperLike()
        with pytest.raises(ConflictError):
            tree.create("no-slash", b"", now=0.0)
        with pytest.raises(ConflictError):
            tree.create("/trailing/", b"", now=0.0)

    def test_set_bumps_version_and_checks_expected(self):
        tree = ZooKeeperLike()
        tree.create("/a", b"v0", now=0.0)
        assert tree.set("/a", b"v1", now=0.0) == 1
        with pytest.raises(ConflictError):
            tree.set("/a", b"v2", now=0.0, expected_version=0)
        assert tree.set("/a", b"v2", now=0.0, expected_version=1) == 2

    def test_delete_checks_version_and_children(self):
        tree = ZooKeeperLike()
        tree.create("/a", b"", now=0.0)
        tree.create("/a/b", b"", now=0.0)
        with pytest.raises(ConflictError):
            tree.delete("/a", now=0.0)
        tree.delete("/a/b", now=0.0)
        tree.delete("/a", now=0.0)
        assert not tree.exists("/a", now=0.0)

    def test_sequential_nodes_get_increasing_suffixes(self):
        tree = ZooKeeperLike()
        tree.create("/q", b"", now=0.0)
        first = tree.create("/q/item-", b"", now=0.0, sequential=True)
        second = tree.create("/q/item-", b"", now=0.0, sequential=True)
        assert first < second

    def test_ephemeral_nodes_vanish_on_session_expiry(self):
        tree = ZooKeeperLike()
        tree.register_session("s1", deadline=10.0)
        tree.create("/lock", b"", now=0.0, ephemeral_owner="s1")
        assert tree.exists("/lock", now=5.0)
        assert not tree.exists("/lock", now=11.0)

    def test_close_session_removes_ephemerals_immediately(self):
        tree = ZooKeeperLike()
        tree.register_session("s1", deadline=100.0)
        tree.create("/lock", b"", now=0.0, ephemeral_owner="s1")
        tree.close_session("s1", now=1.0)
        assert not tree.exists("/lock", now=1.0)

    def test_ephemeral_nodes_cannot_have_children(self):
        tree = ZooKeeperLike()
        tree.register_session("s1", deadline=100.0)
        tree.create("/e", b"", now=0.0, ephemeral_owner="s1")
        with pytest.raises(ConflictError):
            tree.create("/e/child", b"", now=0.0)

    def test_get_children_sorted(self):
        tree = ZooKeeperLike()
        tree.create("/d", b"", now=0.0)
        tree.create("/d/b", b"", now=0.0)
        tree.create("/d/a", b"", now=0.0)
        assert tree.get_children("/d", now=0.0) == ["/d/a", "/d/b"]

    def test_node_count_excludes_root(self):
        tree = ZooKeeperLike()
        tree.create("/x", b"", now=0.0)
        assert tree.node_count(now=0.0) == 1


class TestReplication:
    def test_replica_counts(self):
        assert replicas_required(FaultModel.CRASH, 1) == 3
        assert replicas_required(FaultModel.BYZANTINE, 1) == 4
        assert replicas_required(FaultModel.BYZANTINE, 0) == 1

    def test_invoke_keeps_replicas_in_sync(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.CRASH, f=1)
        rsm.invoke("out", ("k", 1), 0.0)
        for index in rsm.correct_replicas:
            assert rsm.replicas[index].rdp(("k", ANY), 0.0) == ("k", 1)

    def test_invoke_charges_latency(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.BYZANTINE, f=1)
        rsm.invoke("out", ("k", 1), 0.0)
        assert sim.now() > 0.0

    def test_tolerates_f_crashes(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.CRASH, f=1)
        rsm.crash_replica(0)
        rsm.invoke("out", ("k", 1), 0.0)
        assert rsm.reference_replica().rdp(("k", ANY), 0.0) == ("k", 1)

    def test_too_many_crashes_block_progress(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.CRASH, f=1)
        rsm.crash_replica(0)
        rsm.crash_replica(1)
        with pytest.raises(QuorumNotReachedError):
            rsm.invoke("out", ("k", 1), 0.0)

    def test_byzantine_replicas_do_not_block_below_threshold(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.BYZANTINE, f=1)
        rsm.make_byzantine(2)
        rsm.invoke("out", ("k", 1), 0.0)
        assert rsm.commands_executed == 1

    def test_recover_replica_restores_quorum(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.CRASH, f=1)
        rsm.crash_replica(0)
        rsm.crash_replica(1)
        rsm.recover_replica(1)
        rsm.invoke("out", ("k", 1), 0.0)

    def test_invalid_replica_index(self, sim):
        rsm = ReplicatedStateMachine(sim, DepSpace, FaultModel.CRASH, f=1)
        with pytest.raises(IndexError):
            rsm.crash_replica(10)


@pytest.fixture(params=["depspace", "zookeeper"])
def coordination(request, sim):
    """Both coordination adapters must behave identically through the interface."""
    return make_coordination_service(sim, request.param, f=1)


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
        assert coordination.lock_holder("file-1") == s1.session_id

    def test_close_session_releases_locks(self, coordination, alice, bob):
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        coordination.try_lock("file-1", s1)
        coordination.close_session(s1)
        assert coordination.try_lock("file-1", s2)

    def test_entry_count_and_stored_bytes(self, coordination, alice):
        session = coordination.open_session(alice)
        before = coordination.entry_count()
        coordination.put("k1", b"x" * 100, session)
        coordination.put("k2", b"y" * 100, session)
        assert coordination.entry_count() == before + 2
        assert coordination.stored_bytes() > 0


def _replica_states(coordination) -> list[bytes]:
    """Every replica's whole state, serialized (the replicas are plain objects)."""
    return [pickle.dumps(replica) for replica in coordination.rsm.replicas]


class TestMultiCommand:
    """``multi``: several steps, one replicated command, all or nothing."""

    def test_puts_and_gets_are_one_command(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("meta:/a", b"a1", session)
        before = coordination.rsm.commands_executed
        results = coordination.multi(
            [Get("meta:/a"), Get("meta:/missing"), Put("meta:/a", b"a2", 1),
             Put("meta:/b", b"b1", 0)], session)
        assert coordination.rsm.commands_executed == before + 1
        assert (results[0].value, results[0].version) == (b"a1", 1)  # the state before
        assert results[1] is None
        assert [(r.key, r.version) for r in results[2:]] == [("meta:/a", 2), ("meta:/b", 1)]
        assert coordination.get("meta:/a", session).value == b"a2"
        assert coordination.get("meta:/b", session).value == b"b1"

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
        assert len(set(before)) == 1  # and the replicas agree with one another
        assert coordination.get("meta:/a", session).value == b"v1"
        assert coordination.get("txn:t1", session).value == b"pending"

    def test_a_put_the_acl_denies_refuses_the_command(self, coordination, alice, bob):
        owner, other = coordination.open_session(alice), coordination.open_session(bob)
        coordination.put("meta:/a", b"alice's", owner)
        with pytest.raises(ConflictError):
            coordination.multi([Put("meta:/new", b"x", 0), Put("meta:/a", b"bob's")], other)
        with pytest.raises(ConflictError):
            coordination.multi([Get("meta:/a")], other)
        with pytest.raises(TupleNotFoundError):
            coordination.get("meta:/new", other)

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
        assert [coordination.lock_holder(name) for name in ("L1", "L2", "L3")] == [
            None, s2.session_id, None]

    def test_lock_set_is_taken_and_returned_together(self, coordination, alice, bob):
        s1, s2 = coordination.open_session(alice), coordination.open_session(bob)
        coordination.multi([Lock("L1"), Lock("L2")], s1)
        assert not coordination.try_lock("L1", s2) and not coordination.try_lock("L2", s2)
        # Returning a lock someone else holds (or nobody does) changes nothing.
        coordination.multi([Unlock("L1"), Unlock("L2")], s2)
        assert coordination.lock_holder("L1") == s1.session_id
        coordination.multi([Unlock("L1"), Unlock("L2"), Unlock("never-taken")], s1)
        assert coordination.try_lock("L1", s2) and coordination.try_lock("L2", s2)

    def test_locks_of_a_set_expire_with_the_lease(self, coordination, alice, bob, sim):
        s1 = coordination.open_session(alice, lease_seconds=5.0)
        s2 = coordination.open_session(bob)
        coordination.multi([Lock("L1"), Lock("L2")], s1)
        sim.advance(6.0)
        coordination.multi([Lock("L1"), Lock("L2")], s2)
        assert coordination.lock_holder("L2") == s2.session_id


class TestPartitionedMultiCommand:
    def _two_partitions(self, sim):
        services = [make_coordination_service(sim, "depspace", f=0) for _ in range(2)]
        # Route by the key's last character: "…0" to partition 0, "…1" to partition 1.
        return PartitionedCoordination(services, lambda key, n: int(key[-1]) % n), services

    def test_one_command_per_partition_touched_results_in_step_order(self, sim, alice):
        coordination, services = self._two_partitions(sim)
        session = coordination.open_session(alice)
        results = coordination.multi(
            [Put("k1", b"one", 0), Put("k0", b"zero", 0), Get("k1"), Put("j0", b"j", 0)], session)
        assert [r and r.key for r in results] == ["k1", "k0", None, "j0"]
        assert [service.rsm.commands_executed for service in services] == [1, 1]
        coordination.multi([Get("k0"), Get("j0")], session)
        assert [service.rsm.commands_executed for service in services] == [2, 1]

    def test_the_last_steps_partition_goes_last(self, sim, alice):
        """A commit point ends with the intent's flip: when another partition
        refuses its CAS, the flip (on a lower-index partition) has not applied."""
        coordination, _ = self._two_partitions(sim)
        session = coordination.open_session(alice)
        coordination.multi([Put("file1", b"v1", 0), Put("intent0", b"pending", 0)], session)
        with pytest.raises(ConflictError):
            coordination.multi(
                [Put("file1", b"v2", 7), Put("intent0", b"committed", 1)], session)
        assert coordination.get("intent0", session).value == b"pending"
        coordination.multi([Put("file1", b"v2", 1), Put("intent0", b"committed", 1)], session)
        assert coordination.get("intent0", session).value == b"committed"

    def test_a_refused_lock_set_leaves_nothing_held_on_any_partition(self, sim, alice, bob):
        coordination, _ = self._two_partitions(sim)
        s1, s2 = coordination.open_session(alice), coordination.open_session(bob)
        assert coordination.try_lock("b1", s2)
        with pytest.raises(LockHeldError) as refused:
            coordination.multi([Lock("a0"), Lock("b1"), Lock("c0")], s1)
        assert refused.value.lock == "b1"
        assert coordination.lock_holder("a0") is None and coordination.lock_holder("c0") is None
        assert coordination.lock_holder("b1") == s2.session_id


class TestDepSpaceLockExpiry:
    def test_crashed_client_lock_expires_with_lease(self, sim, alice, bob):
        service = DepSpaceCoordination(sim, f=0)
        s1 = service.open_session(alice, lease_seconds=5.0)
        s2 = service.open_session(bob)
        assert service.try_lock("f", s1)
        # The client "crashes": it never unlocks nor renews.  After the lease,
        # the timed tuple disappears and another client can lock the file.
        assert not service.try_lock("f", s2)
        sim.advance(6.0)
        assert service.try_lock("f", s2)


class TestZooKeeperLockExpiry:
    def test_crashed_client_lock_expires_with_lease(self, sim, alice, bob):
        service = ZooKeeperCoordination(sim, f=1)
        s1 = service.open_session(alice, lease_seconds=5.0)
        s2 = service.open_session(bob)
        assert service.try_lock("f", s1)
        assert not service.try_lock("f", s2)
        sim.advance(6.0)
        assert service.try_lock("f", s2)

    def test_heartbeat_leaves_latency_charging_as_it_found_it(self, sim, alice):
        """A heartbeat inside a background commit must not switch charging
        back on for the rest of it — nor off for a foreground caller."""
        service = ZooKeeperCoordination(sim, f=1)
        session = service.open_session(alice)
        before = sim.now()
        service.renew_session(session)
        assert sim.now() == before  # the heartbeat itself is never charged
        assert not sim.in_background
        service.put("k", b"v", session)
        assert sim.now() > before  # ...and the foreground still is
        with sim.background():
            before = sim.now()
            service.renew_session(session)
            assert sim.in_background
            service.put("k", b"w", session)
            assert sim.now() == before


class TestLockManager:
    def _manager(self, sim, alice, retries=0):
        service = make_coordination_service(sim, "depspace", f=0)
        session = service.open_session(alice)
        return LockManager(sim=sim, service=service, session=session, max_retries=retries), service

    def test_acquire_and_release(self, sim, alice):
        manager, _ = self._manager(sim, alice)
        manager.acquire("L")
        assert manager.holds("L")
        manager.release("L")
        assert not manager.holds("L")

    def test_reentrant_acquire(self, sim, alice):
        manager, _ = self._manager(sim, alice)
        assert manager.try_acquire("L")
        assert manager.try_acquire("L")

    def test_release_unheld_lock_raises(self, sim, alice):
        manager, _ = self._manager(sim, alice)
        with pytest.raises(NotLockOwnerError):
            manager.release("L")

    def test_acquire_conflict_raises_after_retries(self, sim, alice, bob):
        service = make_coordination_service(sim, "depspace", f=0)
        s1 = service.open_session(alice)
        s2 = service.open_session(bob)
        holder = LockManager(sim=sim, service=service, session=s1)
        waiter = LockManager(sim=sim, service=service, session=s2, max_retries=2)
        holder.acquire("L")
        with pytest.raises(LockHeldError):
            waiter.acquire("L")

    def test_acquire_set_is_all_or_none_and_reentrant(self, sim, alice, bob):
        manager, service = self._manager(sim, alice)
        other = LockManager(sim=sim, service=service, session=service.open_session(bob))
        other.acquire("L3")
        manager.acquire("L1")
        with pytest.raises(LockHeldError) as refused:
            manager.acquire_set(["L1", "L2", "L3"])
        assert refused.value.lock == "L3"
        assert manager.held == {"L1": 1} and service.lock_holder("L2") is None
        other.release("L3")
        commands = service.rsm.commands_executed
        assert manager.acquire_set(["L1", "L2", "L3"]) == ["L2", "L3"]  # L1 only gains a count
        assert service.rsm.commands_executed == commands + 1
        assert manager.held == {"L1": 2, "L2": 1, "L3": 1}
        assert manager.release_set(["L1", "L2", "L3"]) == ["L2", "L3"]
        assert service.rsm.commands_executed == commands + 2
        assert manager.held == {"L1": 1} and service.lock_holder("L1") is not None
        assert manager.release_set(["L1", "unheld"]) == ["L1"]
        assert service.lock_holder("L1") is None

    def test_release_all(self, sim, alice):
        manager, service = self._manager(sim, alice)
        manager.acquire("L1")
        manager.acquire("L2")
        manager.release_all()
        assert service.lock_holder("L1") is None and service.lock_holder("L2") is None

    def test_make_coordination_service_rejects_unknown_kind(self, sim):
        with pytest.raises(ValueError):
            make_coordination_service(sim, "etcd")
