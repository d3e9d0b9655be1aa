"""Unit tests for the extension beyond the paper's base design: the
namespace-partitioned coordination (the §5 scalability extension)."""

import pytest

from repro.common.errors import ConfigurationError, ConflictError, TupleNotFoundError
from repro.common.types import Permission
from repro.coordination.adapters import DepSpaceCoordination
from repro.coordination.partitioned import (
    PartitionedCoordination,
    partition_by_top_level_directory,
)
from repro.core.config import SCFSConfig
from repro.core.deployment import SCFSDeployment

from conftest import lock_holder


def _partitioned(sim, partitions=3):
    services = [DepSpaceCoordination(sim, f=0) for _ in range(partitions)]
    return PartitionedCoordination(services)


class TestPartitionFunction:
    def test_same_subtree_same_partition(self):
        a = partition_by_top_level_directory("meta:/projects/a.txt", 4)
        b = partition_by_top_level_directory("meta:/projects/deep/b.txt", 4)
        assert a == b

    def test_partition_is_stable(self):
        assert (partition_by_top_level_directory("meta:/home/x", 4)
                == partition_by_top_level_directory("meta:/home/x", 4))

    def test_different_subtrees_spread_over_partitions(self):
        partitions = {partition_by_top_level_directory(f"meta:/dir-{i}/f", 4) for i in range(64)}
        assert len(partitions) > 1


class TestPartitionedCoordination:
    def test_requires_at_least_one_service(self):
        with pytest.raises(ValueError):
            PartitionedCoordination([])

    def test_put_get_delete_roundtrip(self, sim, alice):
        coordination = _partitioned(sim)
        session = coordination.open_session(alice)
        coordination.put("meta:/a/file", b"payload", session)
        assert coordination.get("meta:/a/file", session).value == b"payload"
        coordination.delete("meta:/a/file", session)
        with pytest.raises(TupleNotFoundError):
            coordination.get("meta:/a/file", session)

    def test_entries_are_spread_across_partitions(self, sim, alice):
        coordination = _partitioned(sim, partitions=4)
        session = coordination.open_session(alice)
        for i in range(32):
            coordination.put(f"meta:/subtree-{i}/file", b"x", session)
        per_partition = [service.entry_count() for service in coordination.services]
        assert sum(per_partition) == 32
        assert sum(1 for count in per_partition if count > 0) >= 2

    def test_list_prefix_fans_out_over_all_partitions(self, sim, alice):
        coordination = _partitioned(sim, partitions=4)
        session = coordination.open_session(alice)
        keys = [f"meta:/tree-{i}/file" for i in range(10)]
        for key in keys:
            coordination.put(key, b"x", session)
        assert coordination.list_prefix("meta:/", session) == sorted(keys)

    def test_locks_and_sessions_work_across_partitions(self, sim, alice, bob):
        coordination = _partitioned(sim, partitions=3)
        s1 = coordination.open_session(alice)
        s2 = coordination.open_session(bob)
        assert coordination.try_lock("filelock:file-1", s1)
        assert not coordination.try_lock("filelock:file-1", s2)
        assert lock_holder(coordination, "filelock:file-1") is not None
        coordination.close_session(s1)
        assert coordination.try_lock("filelock:file-1", s2)

    def test_lock_holder_names_the_facade_session_on_every_partition(self, sim, alice):
        """``LockService.still_held`` compares the holder with the session it was given."""
        coordination = _partitioned(sim, partitions=3)
        session = coordination.open_session(alice)
        names = [f"filelock:file-{i}" for i in range(12)]
        assert len({coordination.partition_of(name) for name in names}) > 1
        for name in names:
            assert coordination.try_lock(name, session)
            assert lock_holder(coordination, name) == session.session_id

    def test_a_lock_name_with_a_home_lives_on_that_partition(self, sim, alice, bob):
        coordination = _partitioned(sim, partitions=3)
        keys = [f"meta:/tree-{i}/f" for i in range(12)]
        assert len({coordination.partition_of(key) for key in keys}) == 3
        for key in keys:
            name = "filelock:file-1" + coordination.lock_home(key)
            assert coordination.lock_partition(name) == coordination.partition_of(key)
        # Without a home a lock goes by hash, and an entry key always does.
        assert coordination.lock_partition("filelock:file-1") == coordination.partition_of(
            "filelock:file-1")
        assert coordination.partition_of("meta:/a@2") == partition_by_top_level_directory(
            "meta:/a@2", 3)
        session = coordination.open_session(alice)
        assert coordination.try_lock("filelock:file-9@2", session)
        assert lock_holder(coordination.services[2], "filelock:file-9@2") is not None
        assert lock_holder(coordination, "filelock:file-9@2") == session.session_id
        assert not coordination.try_lock("filelock:file-9@2", coordination.open_session(bob))
        assert DepSpaceCoordination(sim, f=0).lock_home(keys[0]) == ""

    def test_move_within_and_across_partitions(self, sim, alice):
        coordination = _partitioned(sim, partitions=4)
        session = coordination.open_session(alice)
        coordination.put("meta:/a/1", b'{"at": "old"}', session)
        other = next(f"meta:/t{i}/1" for i in range(64)
                     if coordination.partition_of(f"meta:/t{i}/1")
                     != coordination.partition_of("meta:/a/1"))
        assert coordination.move("meta:/a/1", "meta:/a/2", {"at": "new"}, session).version == 2
        with pytest.raises(ConflictError):
            coordination.move("meta:/a/2", other, {"at": "far"}, session, expected_version=1)
        assert coordination.move("meta:/a/2", other, {"at": "far"}, session,
                                 expected_version=2).version == 1
        assert [e.key for e in coordination.list_entries("meta:/", session)] == [other]
        assert coordination.get(other, session).value == b'{"at": "far"}'

    def test_entry_acl_applies_on_the_owning_partition(self, sim, alice, bob):
        coordination = _partitioned(sim)
        alice_session = coordination.open_session(alice)
        bob_session = coordination.open_session(bob)
        coordination.put("meta:/shared/doc", b"v", alice_session)
        coordination.set_entry_acl("meta:/shared/doc", "bob", Permission.READ, alice_session)
        assert coordination.get("meta:/shared/doc", bob_session).value == b"v"

    def test_background_spans_every_partition(self, sim, alice):
        coordination = _partitioned(sim, partitions=2)
        session = coordination.open_session(alice)
        keys = ["meta:/x/file", "meta:/y/file", "meta:/z/file", "meta:/w/file"]
        assert {coordination.partition_of(key) for key in keys} == {0, 1}
        before = sim.now()
        with sim.background():
            for key in keys:
                coordination.put(key, b"x", session)
        assert sim.now() == before
        for key in keys:
            start = sim.now()
            coordination.put(key, b"y", session)
            assert sim.now() > start

    def test_entry_count_is_aggregated(self, sim, alice):
        coordination = _partitioned(sim)
        session = coordination.open_session(alice)
        coordination.put("meta:/a/1", b"x" * 10, session)
        coordination.put("meta:/b/2", b"y" * 10, session)
        assert coordination.entry_count() == 2


class TestPartitionedDeployment:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SCFSConfig(coordination_partitions=0).validate()

    def test_full_stack_with_partitioned_namespace(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-NB", seed=61,
                                                coordination_partitions=3)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        alice.mkdir("/projects", shared=True)
        alice.write_file("/projects/doc.txt", b"partitioned metadata", shared=True)
        alice.setfacl("/projects/doc.txt", "bob", Permission.READ)
        deployment.drain(2.0)
        assert bob.read_file("/projects/doc.txt") == b"partitioned metadata"
        assert len(deployment.coordination.services) == 3

    @pytest.mark.parametrize("target", ["/d0", "/d1"], ids=["same-partition", "cross-partition"])
    def test_a_rename_keeps_the_grantee_access(self, target):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=3, coordination_partitions=4)
        alice, bob = deployment.create_agent("alice"), deployment.create_agent("bob")
        for directory in {"/d0", target}:
            alice.mkdir(directory, shared=True)
            alice.setfacl(directory, "bob", Permission.READ_WRITE)
        alice.write_file("/d0/f", b"shared", shared=True)
        alice.setfacl("/d0/f", "bob", Permission.READ_WRITE)
        partition_of = deployment.coordination.partition_of
        assert (partition_of("meta:/d0/f") != partition_of(f"meta:{target}/g")) \
            == (target == "/d1")
        alice.rename("/d0/f", f"{target}/g")
        deployment.drain(2.0)
        assert bob.read_file(f"{target}/g") == b"shared"
        bob.write_file(f"{target}/g", b"bob's", shared=True)
        assert alice.read_file(f"{target}/g") == b"bob's"

    def test_partitions_multiply_capacity(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-NB", seed=62,
                                                coordination_partitions=4)
        fs = deployment.create_agent("alice")
        for i in range(12):
            fs.mkdir(f"/dir-{i}", shared=True)
            fs.write_file(f"/dir-{i}/file.txt", b"x", shared=True)
        deployment.drain()
        per_partition = [service.entry_count() for service in deployment.coordination.services]
        assert sum(per_partition) >= 24
        assert max(per_partition) < sum(per_partition)
