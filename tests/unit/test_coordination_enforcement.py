"""Entry semantics are enforced by the replicas.

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
    FileNotFoundErrorFS,
    PermissionDeniedError,
    ReproError,
    TupleNotFoundError,
)
from repro.common.types import Permission
from repro.coordination.base import Delete, Get, Grant, List, Lock, Move, Put, Unlock
from repro.coordination.entries import Holder
from repro.core.deployment import SCFSDeployment
from repro.core.metadata import DATA_FIELDS, FileMetadata, FileType

from conftest import lock_holder


def _replica_states(coordination) -> list[bytes]:
    """Every replica's whole state, serialized."""
    return [pickle.dumps(replica) for replica in coordination.rsm.replicas]


def _raw(coordination, sim, steps, user, session_id="raw"):
    """``user`` sends ``entry_multi`` of ``steps`` itself, naming any session it likes."""
    holder = Holder(session_id, deadline=sim.now() + 30.0)
    return coordination.rsm.invoke("entry_multi", tuple(steps), user, sim.now(), holder)


class TestRawCommandsAreChecked:
    """A principal without WRITE gains nothing by sending the commands itself."""

    def _entry(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("k", b"alice's", session)
        coordination.set_entry_acl("k", "bob", Permission.READ, session)
        return session

    @pytest.mark.parametrize("step", [
        Put("k", b"evil"),
        Delete("k"),
        Grant("k", "bob", Permission.READ_WRITE),
        Move("k", "stolen"),
    ])
    def test_raw_mutation_by_a_reader_is_refused(self, coordination, sim, alice, step):
        session = self._entry(coordination, alice)
        with pytest.raises(ConflictError):
            _raw(coordination, sim, [step], "bob")
        entry = coordination.get("k", session)
        assert (entry.value, entry.version, entry.acl.owner) == (b"alice's", 2, "alice")
        assert coordination.list_prefix("", session) == ["k"]

    def test_raw_read_by_a_stranger_is_refused_and_listings_hide_the_entry(
            self, coordination, sim, alice):
        self._entry(coordination, alice)
        with pytest.raises(ConflictError):
            _raw(coordination, sim, [Get("k")], "mallory")
        for user, listed in (("mallory", []), ("bob", ["k"])):
            holder = Holder("s", deadline=sim.now() + 30.0)
            assert [entry.key for entry in coordination.rsm.invoke(
                "entry_multi", (List(""),), user, sim.now(), holder)[0]] == listed

    def test_a_raw_unlock_naming_another_principals_session_changes_nothing(
            self, coordination, sim, alice):
        session = coordination.open_session(alice)
        assert coordination.try_lock("f", session)
        _raw(coordination, sim, [Unlock("f")], "bob", session_id=session.session_id)
        assert lock_holder(coordination, "f") == session.session_id
        coordination.unlock("f", session)
        assert lock_holder(coordination, "f") is None

    def test_a_raw_close_of_another_principals_session_changes_nothing(
            self, coordination, sim, alice):
        session = coordination.open_session(alice)
        coordination.multi([Lock("f"), Lock("g")], session)
        coordination.rsm.invoke("close_session", session.session_id, "bob", sim.now())
        assert [lock_holder(coordination, name) for name in "fg"] == [session.session_id] * 2
        coordination.close_session(session)
        assert [lock_holder(coordination, name) for name in "fg"] == [None, None]

    def test_a_move_may_not_land_on_an_entry_the_mover_cannot_write(
            self, coordination, alice, bob):
        alice_session = self._entry(coordination, alice)
        bob_session = coordination.open_session(bob)
        coordination.put("mine", b"bob's", bob_session)
        with pytest.raises(ConflictError):
            coordination.move("mine", "k", None, bob_session, target_version=2)
        assert coordination.get("k", alice_session).value == b"alice's"
        assert coordination.get("mine", bob_session).value == b"bob's"

    def test_every_replica_refused(self, coordination, sim, alice):
        """A rejected command leaves all replicas identical (and untouched)."""
        self._entry(coordination, alice)
        before = _replica_states(coordination)
        with pytest.raises(ConflictError):
            _raw(coordination, sim, [Put("k", b"evil")], "bob")
        assert _replica_states(coordination) == before
        assert len(set(before)) == 1


class TestMove:
    def test_move_keeps_owner_and_acl_and_raises_the_version(self, coordination, alice, bob):
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        coordination.put("a", b'{"v": 1}', alice_session)
        coordination.put("a", b'{"v": 2}', alice_session)
        coordination.set_entry_acl("a", "bob", Permission.READ_WRITE, alice_session)
        moved = coordination.move("a", "b", {"v": 3}, bob_session, expected_version=3)
        assert (moved.key, moved.value, moved.version, moved.acl.owner) == (
            "b", b'{"v": 3}', 4, "alice")
        with pytest.raises(TupleNotFoundError):
            coordination.get("a", alice_session)
        # bob's grant travelled with the entry; the owner is still alice.
        assert coordination.put("b", b"v4", bob_session).version == 5
        with pytest.raises(ConflictError):
            coordination.set_entry_acl("b", "bob", Permission.NONE, bob_session)

    def test_move_is_conditional_on_both_keys(self, coordination, alice):
        session = coordination.open_session(alice)
        coordination.put("a", b"1", session)
        coordination.put("e", b"1", session)
        with pytest.raises(ConflictError):
            coordination.move("a", "f", None, session, expected_version=7)
        with pytest.raises(ConflictError):
            coordination.move("a", "e", None, session)  # target must be absent
        with pytest.raises(TupleNotFoundError):
            coordination.move("gone", "f", None, session)
        assert coordination.list_prefix("", session) == ["a", "e"]
        # Replacing a known target: the version passes both keys' histories.
        coordination.put("e", b"2", session)
        assert coordination.move("a", "e", None, session, target_version=2).version == 3

    def test_insert_if_absent(self, coordination, alice):
        session = coordination.open_session(alice)
        assert coordination.put("k", b"first", session, expected_version=0).version == 1
        with pytest.raises(ConflictError):
            coordination.put("k", b"second", session, expected_version=0)
        assert coordination.get("k", session).value == b"first"


class TestCreateRacingATombstone:
    def _two_agents_and_a_tombstone(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=9)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.mkdir("/d", shared=True)
        alice.write_file("/d/f", b"old", shared=True)
        alice.setfacl("/d/f", "bob", Permission.READ_WRITE)
        alice.unlink("/d/f")
        return deployment, alice.metadata, bob.metadata

    @staticmethod
    def _new_file(owner: str, file_id: str) -> FileMetadata:
        return FileMetadata(path="/d/f", file_type=FileType.FILE, owner=owner, file_id=file_id)

    def test_sequential_creators_first_wins(self):
        """The re-created file is its creator's alone: bob's grant died with the old one."""
        _, alice, bob = self._two_agents_and_a_tombstone()
        alice.create(self._new_file("alice", "file-a"), shared=True)
        with pytest.raises(PermissionDeniedError):
            bob.create(self._new_file("bob", "file-b"), shared=True)
        assert alice.get("/d/f", use_cache=False).file_id == "file-a"

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
        commands = deployment.coordination.rsm.commands_executed
        with pytest.raises(FileExistsErrorFS) as lost:
            alice.create(self._new_file("alice", "file-a"), shared=True)
        # bob's new file is his alone, so alice's refusal carries no witness.
        assert raced[0].deleted and lost.value.found is None
        # Each creator's refused insert, then its replace at the tombstone's
        # version (bob's won): neither read the entry.
        assert deployment.coordination.rsm.commands_executed - commands == 4
        live = bob.get("/d/f", use_cache=False)
        assert (live.file_id, live.owner, live.deleted) == ("file-b", "bob", False)
        with pytest.raises(PermissionDeniedError):
            alice.get("/d/f", use_cache=False)


class TestAFileReCreatedOverATombstoneIsItsCreators:
    """A ``Put`` over a tombstone creates the entry anew: the deleted file's owner and grants go with it."""

    def _shared(self, *directories, **config):
        """alice, bob and carol; alice's ``directories`` grant bob READ_WRITE and carol READ."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=17, **config)
        agents = [deployment.create_agent(name) for name in ("alice", "bob", "carol")]
        for directory in directories:
            agents[0].mkdir(directory, shared=True)
            agents[0].setfacl(directory, "bob", Permission.READ_WRITE)
            agents[0].setfacl(directory, "carol", Permission.READ)
        return deployment, agents

    def test_the_re_creator_owns_the_entry_and_the_old_grants_are_gone(self):
        deployment, (alice, bob, carol) = self._shared("/shared")
        alice.write_file("/shared/f", b"alice's", shared=True)
        alice.setfacl("/shared/f", "bob", Permission.READ_WRITE)
        alice.setfacl("/shared/f", "carol", Permission.READ)
        alice.unlink("/shared/f")
        bob.write_file("/shared/f", b"bob's", shared=True)
        with pytest.raises(PermissionDeniedError):
            carol.stat("/shared/f")
        with pytest.raises(ConflictError):
            deployment.coordination.set_entry_acl("meta:/shared/f", "alice", Permission.READ_WRITE,
                                                  alice.session)
        entry = deployment.coordination.get("meta:/shared/f", bob.session)
        assert (entry.acl.owner, dict(entry.acl.grants)) == ("bob", {})
        bob.setfacl("/shared/f", "carol", Permission.READ_WRITE)
        assert carol.read_file("/shared/f") == b"bob's"

    def test_a_rename_onto_a_tombstone_carries_the_source_grants(self):
        deployment, (alice, bob, carol) = self._shared("/p", "/r")
        coordination = deployment.coordination
        alice.write_file("/p/g", b"old", shared=True)
        alice.setfacl("/p/g", "carol", Permission.READ)
        alice.unlink("/p/g")
        alice.write_file("/r/f", b"f", shared=True)
        alice.setfacl("/r/f", "bob", Permission.READ_WRITE)
        alice.rename("/r/f", "/p/g")
        assert bob.read_file("/p/g") == b"f"
        with pytest.raises(PermissionDeniedError):
            carol.read_file("/p/g")
        entry = coordination.get("meta:/p/g", alice.session)
        assert (entry.acl.owner, dict(entry.acl.grants)) == ("alice", {"bob": Permission.READ_WRITE})


class TestUnlinkTombstonesTheAnchoredFile:
    """An unlink is an ``Update`` of ``deleted``: a cached snapshot never lands on the entry."""

    def _stale_alice(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=17, metadata_expiration=2.0)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        alice.mkdir("/shared", shared=True)
        alice.setfacl("/shared", "bob", Permission.READ_WRITE)
        alice.write_file("/shared/f", b"alice's", shared=True)
        alice.setfacl("/shared/f", "bob", Permission.READ_WRITE)
        deployment.drain(3.0)
        alice.stat("/shared/f")  # the snapshot her unlink starts from
        return deployment, alice, bob

    def test_a_stale_unlink_leaves_a_re_created_file_alone(self):
        deployment, alice, bob = self._stale_alice()
        old = alice.stat("/shared/f").file_id
        bob.unlink("/shared/f")
        bob.write_file("/shared/f", b"bob's", shared=True)
        with pytest.raises(FileNotFoundErrorFS):
            alice.unlink("/shared/f")
        deployment.drain(3.0)
        live = bob.stat("/shared/f")
        assert live.file_id != old and not live.deleted
        assert bob.read_file("/shared/f") == b"bob's"

    def test_a_stale_unlink_keeps_what_was_anchored_since(self):
        deployment, alice, bob = self._stale_alice()
        bob.write_file("/shared/f", b"bob's rewrite")
        bob.flush_pending("/shared/f")
        anchored = FileMetadata.from_bytes(
            deployment.coordination.get("meta:/shared/f", bob.session).value)
        alice.unlink("/shared/f")
        tombstone = FileMetadata.from_bytes(
            deployment.coordination.get("meta:/shared/f", bob.session).value)
        assert tombstone.deleted
        assert tombstone.fields(DATA_FIELDS) == anchored.fields(DATA_FIELDS)
        assert tombstone.grants == anchored.grants == {"bob": Permission.READ_WRITE}


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
            lambda: coordination.move("other", "k", None, session),
            lambda: coordination.move("other", "k", None, session, target_version=7),
        ):
            with pytest.raises(ConflictError) as refusal:
                refused()
            assert refusal.value.found == coordination.get("k", session)
        assert coordination.get("other", session).value == b"o"
        assert lock_holder(coordination, "l") is None

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
        before = _replica_states(coordination)
        assert len(set(before)) == 1
        for caller in (session, stranger):
            with pytest.raises(ConflictError):
                coordination.multi([Put("k", b"x", 0), Lock("l")], caller)
            with pytest.raises(ConflictError):
                coordination.move("other", "k", None, caller)
        assert _replica_states(coordination) == before

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
        assert bob.locks.held == {} and bob._handles == {}
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
        before = alice.metadata.lookup_versioned("/d/f")[1]
        bob.rename("/d/f", "/d/h")
        entry = deployment.coordination.get("meta:/d/h", alice.session)
        assert entry.acl.owner == "alice" and entry.version == before + 1
        # Only the entry's owner may change its ACL — still alice, not the renamer.
        alice.setfacl("/d/h", "bob", Permission.READ)
        assert bob.read_file("/d/h") == b"f"
        with pytest.raises(ReproError):
            bob.write_file("/d/h", b"denied")

    def test_directory_rename_moves_every_descendant_with_its_acl(self):
        deployment, alice, bob = self._shared_directory()
        alice.unlink("/d/g")  # a tombstone awaiting the collector moves along
        versions = {e.key: e.version
                    for e in deployment.coordination.list_entries("meta:/d/", alice.session)}
        alice.rename("/d", "/e")
        assert alice.readdir("/e") == ["f"] and not alice.exists("/d")
        moved = deployment.coordination.list_entries("meta:/e/", alice.session)
        assert {e.key: (e.acl.owner, e.version) for e in moved} == {
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
