"""Entry semantics are enforced by the replicas, identically on both services.

The SCFS Agent is untrusted (§2.6): nothing on the client side of the
replicated state machine decides whether an entry may change.  These tests
talk to the state machine directly (``rsm.invoke``), the way a client that
skipped the adapter would.
"""

from __future__ import annotations

import pickle

import pytest

from repro.common.errors import (
    ConflictError,
    FileExistsErrorFS,
    PermissionDeniedError,
    ReproError,
    TupleNotFoundError,
)
from repro.common.types import Permission
from repro.coordination.adapters import make_coordination_service
from repro.coordination.base import Lock, Put
from repro.core.deployment import SCFSDeployment
from repro.core.metadata import FileMetadata, FileType
from repro.simenv.environment import Simulation


@pytest.fixture(params=["depspace", "zookeeper"])
def coordination(request, sim):
    return make_coordination_service(sim, request.param, f=1)


class TestRawCommandsAreChecked:
    """A principal without WRITE gains nothing by sending the commands itself."""

    def _entry(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"alice's", session)
        coordination.set_entry_acl("k", "bob", Permission.READ, session)
        return session

    @pytest.mark.parametrize("command", [
        ("entry_put", "k", b"evil", "bob"),
        ("entry_delete", "k", "bob"),
        ("entry_set_acl", "k", "bob", "bob", Permission.READ_WRITE),
        ("entry_move", "k", "stolen", b"evil", "bob"),
    ])
    def test_raw_mutation_by_a_reader_is_refused(self, coordination, sim, alice, command):
        session = self._entry(coordination, alice)
        with pytest.raises(ConflictError):
            coordination.rsm.invoke(*command, sim.now())
        entry = coordination.get("k", session)
        assert (entry.value, entry.version, entry.owner) == (b"alice's", 2, "alice")
        assert coordination.list_prefix("", session) == ["k"]

    def test_raw_read_by_a_stranger_is_refused_and_listings_hide_the_entry(
            self, coordination, sim, alice):
        self._entry(coordination, alice)
        with pytest.raises(ConflictError):
            coordination.rsm.invoke("entry_get", "k", "mallory", sim.now())
        assert coordination.rsm.invoke("entry_list", "", "mallory", sim.now()) == []
        assert [e.key for e in coordination.rsm.invoke("entry_list", "", "bob", sim.now())] == ["k"]

    def test_a_move_may_not_land_on_an_entry_the_mover_cannot_write(
            self, coordination, alice, bob):
        alice_session = self._entry(coordination, alice)
        bob_session = coordination.open_session(bob)
        coordination.put("mine", b"bob's", bob_session)
        with pytest.raises(ConflictError):
            coordination.move("mine", "k", b"clobber", bob_session, target_version=2)
        assert coordination.get("k", alice_session).value == b"alice's"
        assert coordination.get("mine", bob_session).value == b"bob's"

    def test_every_replica_refused(self, coordination, sim, alice):
        """A rejected command leaves all replicas identical (and untouched)."""
        self._entry(coordination, alice)
        with pytest.raises(ConflictError):
            coordination.rsm.invoke("entry_put", "k", b"evil", "bob", sim.now())
        for replica in coordination.rsm.replicas:
            assert replica.entry_get("k", "alice", sim.now()).value == b"alice's"


class TestMove:
    def test_move_keeps_owner_and_acl_and_raises_the_version(self, coordination, alice, bob):
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        coordination.put("a", b"v1", alice_session)
        coordination.put("a", b"v2", alice_session)
        coordination.set_entry_acl("a", "bob", Permission.READ_WRITE, alice_session)
        moved = coordination.move("a", "b", b"v3", bob_session, expected_version=3)
        assert (moved.key, moved.value, moved.version, moved.owner) == ("b", b"v3", 4, "alice")
        with pytest.raises(TupleNotFoundError):
            coordination.get("a", alice_session)
        # bob's grant travelled with the entry; the owner is still alice.
        assert coordination.put("b", b"v4", bob_session).version == 5
        with pytest.raises(ConflictError):
            coordination.set_entry_acl("b", "bob", Permission.NONE, bob_session)

    def test_move_is_conditional_on_both_keys(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("a", b"1", session)
        coordination.put("b", b"1", session)
        with pytest.raises(ConflictError):
            coordination.move("a", "c", b"2", session, expected_version=7)
        with pytest.raises(ConflictError):
            coordination.move("a", "b", b"2", session)  # target must be absent
        with pytest.raises(TupleNotFoundError):
            coordination.move("missing", "c", b"2", session)
        assert coordination.list_prefix("", session) == ["a", "b"]
        # Replacing a known target: the version passes both keys' histories.
        coordination.put("b", b"2", session)
        assert coordination.move("a", "b", b"3", session, target_version=2).version == 3

    def test_insert_if_absent(self, coordination, alice):
        session = coordination.open_session(alice)
        assert coordination.put("k", b"first", session, expected_version=0).version == 1
        with pytest.raises(ConflictError):
            coordination.put("k", b"second", session, expected_version=0)
        assert coordination.get("k", session).value == b"first"


def _script(coordination, alice, bob):
    """One fixed call sequence; each step's outcome is an Entry list or an error name."""
    a, b = coordination.open_session(alice), coordination.open_session(bob)
    steps = [
        lambda: coordination.put("meta:/d/x", b"1", a),
        lambda: coordination.put("meta:/d/x", b"2", a, expected_version=1),
        lambda: coordination.put("meta:/d/x", b"3", a, expected_version=1),
        lambda: coordination.put("meta:/d/y", b"1", b, expected_version=0),
        lambda: coordination.get("meta:/d/x", b),
        lambda: coordination.set_entry_acl("meta:/d/x", "bob", Permission.READ, a),
        lambda: coordination.get("meta:/d/x", b),
        lambda: coordination.put("meta:/d/x", b"4", b),
        lambda: coordination.list_entries("meta:/d/", b),
        lambda: coordination.set_entry_acl("meta:/d/x", "bob", Permission.READ_WRITE, a),
        lambda: coordination.move("meta:/d/x", "meta:/e/x", b"5", b, expected_version=4),
        lambda: coordination.move("meta:/d/y", "meta:/e/x", b"6", b),
        lambda: coordination.delete("meta:/e/x", b),
        lambda: coordination.delete("meta:/e/x", b),
        lambda: coordination.get("meta:/e/x", a),
        lambda: coordination.list_entries("meta:", a),
        lambda: coordination.list_entries("meta:", b),
    ]
    outcomes = []
    for step in steps:
        try:
            outcomes.append(step())
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


def test_both_services_answer_one_script_identically(alice, bob):
    depspace, zookeeper = (
        _script(make_coordination_service(Simulation(seed=3), kind, f=1), alice, bob)
        for kind in ("depspace", "zookeeper"))
    assert depspace == zookeeper
    assert "ConflictError" in depspace and "TupleNotFoundError" in depspace


class TestCreateRacingATombstone:
    def _two_agents_and_a_tombstone(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=9)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.mkdir("/d", shared=True)
        alice.write_file("/d/f", b"old", shared=True)
        alice.setfacl("/d/f", "bob", Permission.READ_WRITE)
        alice.unlink("/d/f")
        return deployment, alice.agent.metadata, bob.agent.metadata

    @staticmethod
    def _new_file(owner: str, file_id: str) -> FileMetadata:
        return FileMetadata(path="/d/f", file_type=FileType.FILE, owner=owner, file_id=file_id)

    def test_sequential_creators_first_wins(self):
        _, alice, bob = self._two_agents_and_a_tombstone()
        alice.create(self._new_file("alice", "file-a"), shared=True)
        with pytest.raises(FileExistsErrorFS):
            bob.create(self._new_file("bob", "file-b"), shared=True)
        assert bob.get("/d/f", use_cache=False).file_id == "file-a"

    def test_interleaved_creators_leave_exactly_one_live_entry(self, monkeypatch):
        """Both are handed the same tombstone; only one conditional replace can match.

        Interleaved at the command level: bob's whole create runs between
        alice's refused insert and the replace she sends next.
        """
        deployment, alice, bob = self._two_agents_and_a_tombstone()
        send, raced = deployment.coordination.multi, []

        def lose_the_race_after_the_first_refusal(ops, session):
            try:
                return send(ops, session)
            except ConflictError as refusal:
                if not raced:
                    raced.append(FileMetadata.from_bytes(refusal.found.value))
                    bob.create(self._new_file("bob", "file-b"), shared=True)
                raise

        monkeypatch.setattr(deployment.coordination, "multi", lose_the_race_after_the_first_refusal)
        reads = alice.coordination_reads + bob.coordination_reads
        with pytest.raises(FileExistsErrorFS) as lost:
            alice.create(self._new_file("alice", "file-a"), shared=True)
        assert raced[0].deleted and lost.value.found.file_id == "file-b"
        # Neither creator read the entry: each refusal said what was there.
        assert alice.coordination_reads + bob.coordination_reads == reads
        for service in (alice, bob):
            live = service.get("/d/f", use_cache=False)
            assert (live.file_id, live.owner, live.deleted) == ("file-b", "bob", False)


class TestARefusedVersionCheckSaysWhatIsThere:
    """``ConflictError.found``: the read a refused caller would send next, answered."""

    def _entry(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"v1", session)
        coordination.put("k", b"v2", session)
        coordination.put("other", b"o", session)
        return session

    def test_the_witness_is_what_get_would_return(self, coordination, alice):
        session = self._entry(coordination, alice)
        for refused in (
            lambda: coordination.put("k", b"x", session, expected_version=0),
            lambda: coordination.put("k", b"x", session, expected_version=1),
            lambda: coordination.multi([Put("other", b"x"), Put("k", b"x", 0), Lock("l")], session),
            lambda: coordination.move("other", "k", b"x", session),
            lambda: coordination.move("other", "k", b"x", session, target_version=7),
        ):
            with pytest.raises(ConflictError) as refusal:
                refused()
            assert refusal.value.found == coordination.get("k", session)
        assert coordination.get("other", session).value == b"o"
        assert coordination.lock_holder("l") is None

    def test_no_witness_without_read_permission(self, coordination, alice, bob):
        session, stranger = self._entry(coordination, alice), coordination.open_session(bob)
        with pytest.raises(ConflictError) as refusal:
            coordination.put("k", b"x", stranger, expected_version=0)
        assert refusal.value.found is None
        coordination.set_entry_acl("k", "bob", Permission.READ, session)
        with pytest.raises(ConflictError) as refusal:
            coordination.put("k", b"x", stranger, expected_version=0)
        assert refusal.value.found == coordination.get("k", stranger)

    def test_only_a_version_check_that_met_an_entry_has_one(self, coordination, alice, bob):
        session, reader = self._entry(coordination, alice), coordination.open_session(bob)
        coordination.set_entry_acl("k", "bob", Permission.READ, session)
        for refused in (
            lambda: coordination.put("absent", b"x", session, expected_version=3),
            lambda: coordination.put("k", b"x", reader),  # the ACL, not the version
            lambda: coordination.put("k", b"x", reader, expected_version=3),  # right version, no WRITE
        ):
            with pytest.raises(ConflictError) as refusal:
                refused()
            assert refusal.value.found is None

    def test_replicas_are_byte_identical_after_a_refused_command(self, coordination, alice, bob):
        session, stranger = self._entry(coordination, alice), coordination.open_session(bob)
        coordination.multi([Lock("held")], session)
        before = [pickle.dumps(replica) for replica in coordination.rsm.replicas]
        assert len(set(before)) == 1
        for caller in (session, stranger):
            with pytest.raises(ConflictError):
                coordination.multi([Put("k", b"x", 0), Lock("l")], caller)
            with pytest.raises(ConflictError):
                coordination.move("other", "k", b"x", caller)
        assert [pickle.dumps(replica) for replica in coordination.rsm.replicas] == before

    @pytest.mark.parametrize("parent_cached", [True, False])
    def test_an_agent_denied_read_gets_eacces_from_either_path(self, parent_cached):
        """Insert first or look first: the file someone else keeps private is EACCES."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=9)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.mkdir("/d", shared=True)
        alice.setfacl("/d", "bob", Permission.READ_WRITE)
        alice.write_file("/d/f", b"alice's", shared=True)
        if parent_cached:
            bob.stat("/d")
        commands = deployment.coordination.rsm.commands_executed
        with pytest.raises(PermissionDeniedError):
            bob.open("/d/f", "w", shared=True)
        # Insert first: the refusal without a witness, then the lookup that says why.
        assert deployment.coordination.rsm.commands_executed - commands == (2 if parent_cached else 1)
        assert bob.agent.locks._manager.held == {} and bob.agent.open_handles() == 0
        assert alice.read_file("/d/f") == b"alice's"


class TestRenameCarriesTheEntry:
    """A rename moves the entry itself: owner, ACL and version history travel."""

    def _shared_directory(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=13)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.mkdir("/d", shared=True)
        alice.setfacl("/d", "bob", Permission.READ_WRITE)
        for name in ("f", "g"):
            alice.write_file(f"/d/{name}", name.encode(), shared=True)
            alice.setfacl(f"/d/{name}", "bob", Permission.READ_WRITE)
        return deployment, alice, bob

    def test_rename_by_a_grantee_leaves_the_owner_in_charge(self):
        deployment, alice, bob = self._shared_directory()
        before = alice.agent.metadata.lookup_versioned("/d/f")[1]
        bob.rename("/d/f", "/d/h")
        entry = deployment.coordination.get("meta:/d/h", alice.agent.session)
        assert entry.owner == "alice" and entry.version == before + 1
        # Only the entry's owner may change its ACL — still alice, not the renamer.
        alice.setfacl("/d/h", "bob", Permission.READ)
        assert bob.read_file("/d/h") == b"f"
        with pytest.raises(ReproError):
            bob.write_file("/d/h", b"denied")

    def test_directory_rename_moves_every_descendant_with_its_acl(self):
        deployment, alice, bob = self._shared_directory()
        alice.unlink("/d/g")  # a tombstone awaiting the collector moves along
        versions = {e.key: e.version
                    for e in deployment.coordination.list_entries("meta:/d/", alice.agent.session)}
        alice.rename("/d", "/e")
        assert alice.readdir("/e") == ["f"] and not alice.exists("/d")
        moved = deployment.coordination.list_entries("meta:/e/", alice.agent.session)
        assert {e.key: (e.owner, e.version) for e in moved} == {
            key.replace("/d/", "/e/"): ("alice", version + 1) for key, version in versions.items()}
        bob.write_file("/e/f", b"still writable")
        assert alice.read_file("/e/f") == b"still writable"

    def test_rename_onto_a_live_object_fails_before_anything_moves(self):
        _, alice, _ = self._shared_directory()
        alice.mkdir("/taken", shared=True)
        with pytest.raises(FileExistsErrorFS):
            alice.rename("/d", "/taken")
        assert alice.readdir("/d") == ["f", "g"]

    def test_rename_leaves_a_sibling_whose_name_extends_the_directory_alone(self):
        """``/d`` is a string prefix of ``/d2``: only entries *below* ``/d/`` may move."""
        _, alice, _ = self._shared_directory()
        alice.mkdir("/d2", shared=True)
        alice.write_file("/d2/f", b"sibling", shared=True)
        alice.rename("/d", "/e")
        assert alice.readdir("/e") == ["f", "g"]
        assert alice.readdir("/d2") == ["f"] and alice.read_file("/d2/f") == b"sibling"
