"""Integration tests: dependability of the cloud-of-clouds backend and the
replicated coordination service under provider faults (§3.2).

SCFS-CoC tolerates f=1 arbitrary provider faults: data remains available and
uncorrupted when one storage cloud is down, returns garbage or silently drops
writes, and the coordination service keeps operating when one of its replicas
crashes (or, for DepSpace/BFT, behaves arbitrarily).
"""

import pytest

from repro.common.errors import QuorumNotReachedError
from repro.core.deployment import SCFSDeployment
from repro.simenv.failures import FaultKind


@pytest.fixture
def coc():
    deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=31)
    return deployment, deployment.create_agent("alice")


class TestStorageCloudFaults:
    def test_survives_one_unavailable_cloud(self, coc):
        deployment, fs = coc
        fs.write_file("/durable.txt", b"important data" * 100)
        deployment.drain(2.0)
        deployment.clouds[0].failures.add(FaultKind.UNAVAILABLE)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/durable.txt") == b"important data" * 100

    def test_survives_cloud_outage_during_writes(self, coc):
        deployment, fs = coc
        deployment.clouds[1].failures.add(FaultKind.UNAVAILABLE)
        fs.write_file("/written-during-outage.txt", b"still stored")
        deployment.drain(2.0)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/written-during-outage.txt") == b"still stored"

    def test_survives_one_byzantine_cloud(self, coc):
        deployment, fs = coc
        fs.write_file("/integrity.txt", b"must not be corrupted" * 50)
        deployment.drain(2.0)
        deployment.clouds[2].failures.add(FaultKind.BYZANTINE)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/integrity.txt") == b"must not be corrupted" * 50

    def test_survives_one_cloud_dropping_writes(self, coc):
        deployment, fs = coc
        deployment.clouds[3].failures.add(FaultKind.DROP_WRITES)
        fs.write_file("/dropped.txt", b"ack'd but not stored by one provider")
        deployment.drain(2.0)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        assert fs.read_file("/dropped.txt") == b"ack'd but not stored by one provider"

    def test_two_unavailable_clouds_exceed_the_fault_threshold(self, coc):
        deployment, fs = coc
        deployment.clouds[0].failures.add(FaultKind.UNAVAILABLE)
        deployment.clouds[1].failures.add(FaultKind.UNAVAILABLE)
        with pytest.raises(QuorumNotReachedError):
            fs.write_file("/too-many-faults.txt", b"x")

    def test_single_cloud_backend_does_not_survive_its_provider(self):
        deployment = SCFSDeployment.for_variant("SCFS-AWS-B", seed=32)
        fs = deployment.create_agent("alice")
        fs.write_file("/only-copy.txt", b"x" * 100)
        deployment.drain(2.0)
        deployment.clouds[0].failures.add(FaultKind.UNAVAILABLE)
        fs.memory_cache.clear()
        fs.disk_cache.clear()
        with pytest.raises(Exception):
            fs.read_file("/only-copy.txt")


class TestCoordinationFaults:
    def test_coordination_survives_one_replica_crash(self, coc):
        deployment, fs = coc
        deployment.coordination.rsm.crash_replica(0)
        fs.write_file("/still-works.txt", b"metadata service is replicated", shared=True)
        deployment.drain(2.0)
        assert fs.read_file("/still-works.txt") == b"metadata service is replicated"

    def test_coordination_survives_one_byzantine_replica(self, coc):
        deployment, fs = coc
        deployment.coordination.rsm.make_byzantine(1)
        fs.write_file("/bft.txt", b"byzantine fault tolerant", shared=True)
        deployment.drain(2.0)
        assert fs.read_file("/bft.txt") == b"byzantine fault tolerant"

    def test_too_many_replica_crashes_block_metadata_operations(self, coc):
        deployment, fs = coc
        rsm = deployment.coordination.rsm
        rsm.crash_replica(0)
        rsm.crash_replica(1)
        with pytest.raises(QuorumNotReachedError):
            fs.write_file("/blocked.txt", b"x", shared=True)

    def test_replica_recovery_restores_service(self, coc):
        deployment, fs = coc
        rsm = deployment.coordination.rsm
        rsm.crash_replica(0)
        rsm.crash_replica(1)
        rsm.recover_replica(0)
        fs.write_file("/recovered.txt", b"back in business", shared=True)
        deployment.drain(2.0)
        assert fs.read_file("/recovered.txt") == b"back in business"


class TestDisasterRecovery:
    def test_full_dataset_recoverable_on_a_new_machine(self):
        """The automatic-disaster-recovery use case of §1: everything written
        through SCFS survives the complete loss of the client machine."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=33)
        original = deployment.create_agent("alice")
        files = {f"/projects/report-{i}.txt": f"report {i}".encode() * 50 for i in range(5)}
        original.mkdir("/projects", shared=True)
        for path, data in files.items():
            original.write_file(path, data, shared=True)
        deployment.drain(2.0)

        # The laptop dies.  A new machine mounts the same account: all state is
        # rebuilt from the coordination service and the clouds.
        replacement = deployment.create_agent("alice")
        deployment.sim.advance(1.0)
        assert sorted(replacement.readdir("/projects")) == sorted(
            path.rsplit("/", 1)[1] for path in files
        )
        for path, data in files.items():
            assert replacement.read_file(path) == data

    def test_recovery_with_one_provider_lost_forever(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=34)
        original = deployment.create_agent("alice")
        original.write_file("/survivor.txt", b"outlives a whole provider", shared=True)
        deployment.drain(2.0)
        deployment.clouds[0].failures.add(FaultKind.UNAVAILABLE)

        replacement = deployment.create_agent("alice")
        deployment.sim.advance(1.0)
        assert replacement.read_file("/survivor.txt") == b"outlives a whole provider"
