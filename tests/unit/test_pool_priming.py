"""Pool priming (:mod:`repro.scenarios.pool`): interned files behave exactly
like organically written ones."""

from __future__ import annotations

import pickle

import pytest

from repro.scenarios.pool import POOL_OWNER, POOL_PAYLOAD, pool_file_id, prime_pool
from repro.scenarios.spec import ScenarioSpec
from repro.core.deployment import SCFSDeployment
from repro.simenv.environment import Simulation


def _spec(files=6, directories=2):
    return ScenarioSpec.generate_scale(
        seed=9, agents=2, files=files, ops_per_agent=1, directories=directories)


def _primed_deployment(spec):
    deployment = SCFSDeployment(spec.config, sim=Simulation(seed=spec.seed))
    stats = prime_pool(deployment, spec)
    return deployment, stats


class TestPrimePool:
    def test_priming_counts(self):
        spec = _spec(files=6, directories=2)
        deployment, stats = _primed_deployment(spec)
        assert stats["files"] == 6
        # n metadata objects + (n - f) block objects per file.
        n, f = len(deployment.clouds), deployment.config.fault_tolerance
        assert stats["cloud_objects"] == 6 * (n + n - f)
        # One coordination entry per file plus one per pool directory.
        assert stats["coordination_entries"] == 6 + 2

    def test_primed_file_reads_back_for_any_agent(self):
        spec = _spec()
        deployment, _ = _primed_deployment(spec)
        fs = deployment.create_agent("carol")
        path = spec.shared_files[0]
        handle = fs.open(path, "r")
        assert fs.read(handle) == POOL_PAYLOAD
        fs.close(handle)
        listed = fs.readdir(path.rsplit("/", 1)[0])
        assert path.rsplit("/", 1)[1] in listed

    def test_primed_file_accepts_a_new_version(self):
        spec = _spec()
        deployment, _ = _primed_deployment(spec)
        fs = deployment.create_agent("dave")
        path = spec.shared_files[1]
        handle = fs.open(path, "w")
        fs.write(handle, b"overwritten by dave")
        fs.close(handle)
        deployment.sim.advance(60.0)  # let the puts propagate
        reader = deployment.create_agent("erin")
        handle = reader.open(path, "r")
        assert reader.read(handle) == b"overwritten by dave"
        reader.close(handle)

    def test_pool_ids_do_not_collide_with_fresh_ids(self):
        sim = Simulation(seed=3)
        fresh = {sim.fresh_id("file") for _ in range(100)}
        pooled = {pool_file_id(index) for index in range(100)}
        assert not fresh & pooled

    def test_priming_requires_encryption_off(self):
        spec = _spec()
        from dataclasses import replace

        config = replace(spec.config, encrypt_data=True)
        deployment = SCFSDeployment(config, sim=Simulation(seed=1))
        with pytest.raises(ValueError, match="encrypt_data"):
            prime_pool(deployment, spec)

    def test_priming_installs_what_a_replicated_put_leaves(self):
        spec = _spec()
        deployment = SCFSDeployment(spec.config, sim=Simulation(seed=1))
        stats = prime_pool(deployment, spec)
        coordination = deployment.coordination
        assert coordination.entry_count() == stats["coordination_entries"]
        assert len({pickle.dumps(replica) for replica in coordination.rsm.replicas}) == 1
        # The listing walks the sorted index: every pool file, in key order.
        session = coordination.open_session(deployment.create_agent("carol").principal)
        directory = spec.shared_files[0].rsplit("/", 1)[0]
        listed = coordination.list_prefix(f"meta:{directory}/", session)
        assert listed == sorted(f"meta:{path}" for path in spec.shared_files
                                if path.startswith(f"{directory}/"))
        entry = coordination.get(listed[0], session)
        assert (entry.acl.owner, entry.version) == (POOL_OWNER, 1)
