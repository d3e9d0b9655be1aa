"""Unit tests of the scenario engine: specs, traces, invariant checkers,
determinism seams and regressions for the bugs the first sweeps caught."""

from __future__ import annotations

import shlex
from types import SimpleNamespace

import pytest

from repro.common.types import Permission
from repro.coordination.base import Get, Put
from repro.coordination.entries import Holder
from repro.coordination.replication import ReplicatedStateMachine
from repro.core.deployment import SCFSDeployment
from repro.scenarios.invariants import (
    check_commit_ordering,
    check_consistency_on_close,
    check_durability,
    check_mutual_exclusion,
    check_unexpected_errors,
)
from repro.scenarios import __main__ as scenarios_main
from repro.scenarios import runner as runner_module
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import FAULT_MIXES, ScenarioSpec, WorkloadMix
from repro.scenarios.trace import TraceRecorder
from repro.simenv.environment import Simulation, derive_rng
from repro.simenv.failures import FaultKind


# ---------------------------------------------------------------------------
# determinism seams
# ---------------------------------------------------------------------------


class TestDeterminismSeams:
    def test_derive_rng_is_reproducible_and_label_independent(self):
        a1 = derive_rng(7, "agent:alice")
        a2 = derive_rng(7, "agent:alice")
        b = derive_rng(7, "agent:bob")
        draws1 = [a1.random() for _ in range(8)]
        draws2 = [a2.random() for _ in range(8)]
        assert draws1 == draws2
        assert draws1 != [b.random() for _ in range(8)]

    def test_derive_rng_does_not_perturb_the_main_stream(self):
        sim1, sim2 = Simulation(seed=5), Simulation(seed=5)
        derive_rng(sim1.seed, "side").random()  # a derived stream draws nothing from rng
        assert sim1.rng.random() == sim2.rng.random()

    def test_sim_fresh_id_restarts_per_simulation(self):
        first = Simulation(seed=1)
        assert first.fresh_id("file") == "file-00000000"
        assert first.fresh_id("file") == "file-00000001"
        second = Simulation(seed=1)
        assert second.fresh_id("file") == "file-00000000"

    def test_agent_file_ids_are_per_simulation(self):
        """Two same-seed deployments in one process mint identical file ids
        (a process-global counter would break byte-identical replay)."""
        ids = []
        for _ in range(2):
            deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=9)
            fs = deployment.create_agent("alice")
            fs.write_file("/a.txt", b"x")
            ids.append(fs.stat("/a.txt").file_id)
        assert ids[0] == ids[1]

    def test_same_seed_spec_generation_is_pure(self):
        assert ScenarioSpec.generate(3, mix="crash-hang") == \
            ScenarioSpec.generate(3, mix="crash-hang")

    def test_specs_differ_across_seeds(self):
        specs = {ScenarioSpec.generate(seed, mix="crash-hang").faults
                 for seed in range(6)}
        assert len(specs) > 1


# ---------------------------------------------------------------------------
# spec validation and fault budget
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mix"):
            ScenarioSpec.generate(1, mix="nonsense")

    def test_unknown_workload_op_rejected(self):
        with pytest.raises(ValueError, match="unknown workload op"):
            WorkloadMix(weights=(("explode", 1.0),)).validate()

    def test_fault_budget_one_nongray_cloud_at_a_time(self):
        """Every generated mix keeps ≤1 cloud with a non-gray fault at any
        op-fraction instant (f = 1): overlapping damaging windows must target
        the same cloud."""
        damaging = {FaultKind.UNAVAILABLE.value, FaultKind.CORRUPTION.value,
                    FaultKind.BYZANTINE.value, FaultKind.DROP_WRITES.value}
        for mix in FAULT_MIXES:
            for seed in range(12):
                spec = ScenarioSpec.generate(seed, mix=mix)
                phases = [p for p in spec.faults
                          if p.target.startswith("cloud") and p.kind in damaging]
                for i, a in enumerate(phases):
                    for b in phases[i + 1:]:
                        overlap = (a.start_frac < b.end_frac
                                   and b.start_frac < a.end_frac)
                        assert not overlap or a.target == b.target, \
                            f"{mix} seed {seed}: {a} overlaps {b}"

    def test_persistent_damage_stays_on_one_cloud(self):
        """Corruption/drop-writes damage data *at rest*, so all such phases
        of one scenario must target the same (single adversarial) cloud."""
        persistent = {FaultKind.CORRUPTION.value, FaultKind.DROP_WRITES.value}
        for seed in range(12):
            spec = ScenarioSpec.generate(seed, mix="corrupt-byzantine")
            targets = {p.target for p in spec.faults if p.kind in persistent}
            assert len(targets) <= 1

    def test_repro_command_round_trips_the_seed(self):
        spec = ScenarioSpec.generate(99, mix="degraded-outage")
        assert "--seed 99" in spec.repro_command()
        assert "--mix degraded-outage" in spec.repro_command()

    @pytest.mark.parametrize("spec", [
        ScenarioSpec.generate(99, mix="degraded-outage", agents=2, ops_per_agent=5),
        ScenarioSpec.generate_scale(7, agents=20, files=1000, ops_per_agent=12),
    ], ids=["generate", "generate_scale"])
    def test_repro_command_rebuilds_the_spec_that_printed_it(self, spec, monkeypatch):
        built = []

        class Recorder:
            def __init__(self, spec):
                built.append(spec)

            def run(self):
                return SimpleNamespace(ok=True, report=lambda: "")

        monkeypatch.setattr(runner_module, "ScenarioRunner", Recorder)
        command = shlex.split(spec.repro_command())
        assert command[:2] == ["PYTHONPATH=src", "python"]
        if command[2] == "-m":
            assert command[3] == "repro.scenarios"
            scenarios_main.main(command[4:])
        else:
            assert command[2] == "-c"
            exec(command[3], {})
        assert built == [spec]

    @pytest.mark.parametrize("argv, message", [
        (["--variant", "SCFS-CoC-X"], "invalid choice: 'SCFS-CoC-X'"),
        (["--mix", "degraded-outage", "--variant", "SCFS-AWS-B"],
         "the dispatch policy requires the cloud-of-clouds backend"),
    ], ids=["unknown-variant", "unbuildable-pair"])
    def test_a_variant_the_command_cannot_build_is_a_one_line_usage_error(self, argv, message,
                                                                          capsys):
        with pytest.raises(SystemExit) as exit_:
            scenarios_main.main(["--seed", "3", *argv])
        assert exit_.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0], errors


# ---------------------------------------------------------------------------
# trace recorder
# ---------------------------------------------------------------------------


class TestTraceRecorder:
    def test_sequence_numbers_are_total_and_monotone(self):
        recorder = TraceRecorder()
        for i in range(5):
            recorder.record("tick", time=float(i))
        assert [e.seq for e in recorder.events] == list(range(5))

    def test_fingerprint_is_sensitive_to_every_field(self):
        base = TraceRecorder()
        base.record("open", agent="alice", time=1.0, path="/f")
        same = TraceRecorder()
        same.record("open", agent="alice", time=1.0, path="/f")
        different = TraceRecorder()
        different.record("open", agent="alice", time=1.0000001, path="/f")
        assert base.fingerprint() == same.fingerprint()
        assert base.fingerprint() != different.fingerprint()

    def test_enum_fields_serialize_to_their_values(self):
        recorder = TraceRecorder()
        event = recorder.record("fault", time=0.0, fault=FaultKind.BYZANTINE)
        assert event.get("fault") == "byzantine"
        assert '"byzantine"' in event.to_json()


# ---------------------------------------------------------------------------
# the checkers must catch planted violations (non-vacuity)
# ---------------------------------------------------------------------------


def _commit(recorder, agent, fid, version, digest, time):
    recorder.record("upload", agent=agent, time=time, path="/f", file_id=fid,
                    digest=digest, version=version, background=True)
    recorder.record("commit", agent=agent, time=time, path="/f", file_id=fid,
                    digest=digest, version=version, background=True)


class TestCheckersCatchViolations:
    def test_mutual_exclusion_flags_two_holders(self):
        recorder = TraceRecorder()
        recorder.record("lock", agent="alice", time=1.0, lock="filelock:f1")
        recorder.record("lock", agent="bob", time=2.0, lock="filelock:f1")
        found = check_mutual_exclusion(recorder)
        assert len(found) == 1 and "alice" in found[0].message

    def test_mutual_exclusion_accepts_handover(self):
        recorder = TraceRecorder()
        recorder.record("lock", agent="alice", time=1.0, lock="filelock:f1")
        recorder.record("unlock", agent="alice", time=2.0, lock="filelock:f1")
        recorder.record("lock", agent="bob", time=2.0, lock="filelock:f1")
        assert check_mutual_exclusion(recorder) == []

    def test_stale_read_flagged(self):
        recorder = TraceRecorder()
        _commit(recorder, "alice", "f1", 1, "d1", time=1.0)
        _commit(recorder, "alice", "f1", 2, "d2", time=2.0)
        recorder.record("open", agent="bob", time=10.0, path="/f", file_id="f1",
                        digest="d1", version=1, served=True, began=10.0)
        found = check_consistency_on_close(recorder, staleness=0.5)
        assert len(found) == 1 and "version 2" in found[0].message

    def test_staleness_window_is_honoured(self):
        recorder = TraceRecorder()
        _commit(recorder, "alice", "f1", 1, "d1", time=1.0)
        _commit(recorder, "alice", "f1", 2, "d2", time=9.8)
        recorder.record("open", agent="bob", time=10.0, path="/f", file_id="f1",
                        digest="d1", version=1, served=True, began=10.0)
        assert check_consistency_on_close(recorder, staleness=0.5) == []

    def test_freshness_judged_at_snapshot_not_emission(self):
        """A slow data fetch between the metadata snapshot and the event must
        not turn a legal read into a violation (``began`` anchors the check)."""
        recorder = TraceRecorder()
        _commit(recorder, "alice", "f1", 1, "d1", time=1.0)
        _commit(recorder, "alice", "f1", 2, "d2", time=5.0)
        recorder.record("open", agent="bob", time=9.0, path="/f", file_id="f1",
                        digest="d1", version=1, served=True, began=4.9)
        assert check_consistency_on_close(recorder, staleness=0.5) == []

    def test_version_fork_flagged(self):
        recorder = TraceRecorder()
        recorder.record("close", agent="alice", time=1.0, path="/f", file_id="f1",
                        digest="dA", version=2, dirty=True)
        recorder.record("close", agent="bob", time=2.0, path="/f", file_id="f1",
                        digest="dB", version=2, dirty=True)
        found = check_consistency_on_close(recorder)
        assert found and "two digests" in found[0].message

    def test_unlock_before_commit_flagged(self):
        recorder = TraceRecorder()
        recorder.record("close", agent="alice", time=1.0, path="/f", file_id="f1",
                        digest="d1", version=1, dirty=True)
        recorder.record("unlock", agent="alice", time=1.5, lock="filelock:f1")
        _commit(recorder, "alice", "f1", 1, "d1", time=2.0)
        found = check_commit_ordering(recorder)
        assert found and "released the write lock" in found[0].message

    @pytest.mark.parametrize("unlinked", [None, "before", "after"])
    def test_an_uploaded_version_with_no_commit_needs_an_unlink_first(self, unlinked):
        """The replicas refuse the anchor of a file id whose path was unlinked
        (and since recreated, or purged) before the upload: no commit, and the
        lock goes back.  An unlink after the upload excuses nothing."""
        recorder = TraceRecorder()
        recorder.record("close", agent="bob", time=1.0, path="/f", file_id="f1",
                        digest="d1", version=2, dirty=True)
        if unlinked == "before":
            recorder.record("unlink", agent="alice", time=1.2, path="/f", file_id="f1")
        recorder.record("upload", agent="bob", time=2.0, path="/f", file_id="f1",
                        digest="d1", version=2, background=True)
        if unlinked == "after":
            recorder.record("unlink", agent="alice", time=2.0, path="/f", file_id="f1")
        recorder.record("unlock", agent="bob", time=2.0, lock="filelock:f1")
        found = check_commit_ordering(recorder)
        assert (found == []) is (unlinked == "before")

    def test_commit_before_upload_flagged(self):
        recorder = TraceRecorder()
        recorder.record("commit", agent="alice", time=1.0, path="/f",
                        file_id="f1", digest="d1", version=1, background=True)
        recorder.record("upload", agent="alice", time=1.0, path="/f",
                        file_id="f1", digest="d1", version=1, background=True)
        found = check_commit_ordering(recorder)
        assert found and "before the upload" in found[0].message

    def test_correct_order_passes(self):
        recorder = TraceRecorder()
        recorder.record("close", agent="alice", time=1.0, path="/f", file_id="f1",
                        digest="d1", version=1, dirty=True)
        _commit(recorder, "alice", "f1", 1, "d1", time=2.0)
        recorder.record("unlock", agent="alice", time=2.0, lock="filelock:f1")
        assert check_commit_ordering(recorder) == []

    def test_unexpected_error_surfaces(self):
        recorder = TraceRecorder()
        recorder.record("op_error", agent="bob", time=1.0, op="read", path="/f",
                        benign=False, error="QuorumNotReachedError: boom")
        recorder.record("op_error", agent="bob", time=1.0, op="read", path="/f",
                        benign=True, error="LockHeldError: busy")
        found = check_unexpected_errors(recorder)
        assert len(found) == 1 and "boom" in found[0].message

    def test_durability_flags_a_version_wiped_from_the_clouds(self):
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=77)
        fs = deployment.create_agent("alice")
        fs.write_file("/doomed.txt", b"x" * 512)
        deployment.drain(2.0)
        meta = fs.stat("/doomed.txt")
        recorder = TraceRecorder()
        commit = dict(agent="alice", time=deployment.sim.now(), path="/doomed.txt",
                      file_id=meta.file_id, digest=meta.digest, version=1)
        # The checker finds the version through the locator the commit anchored.
        recorder.record("commit", **commit)
        found = check_durability(recorder, deployment)
        assert found and "no valid locator" in found[0].message
        recorder = TraceRecorder()
        recorder.record("commit", locator=meta.locator, **commit)
        assert check_durability(recorder, deployment) == []
        for cloud in deployment.clouds:
            for key in list(cloud._objects):
                if key.startswith(f"depsky/{meta.file_id}/v"):
                    del cloud._objects[key]
        found = check_durability(recorder, deployment)
        assert found and found[0].invariant == "durability"


# ---------------------------------------------------------------------------
# regressions for bugs the first sweeps caught
# ---------------------------------------------------------------------------


class TestSweepRegressions:
    def _shared_file(self, deployment, writer, reader, path):
        fs = deployment.agent_for(writer)
        fs.write_file(path, b"v1", shared=True)
        fs.setfacl(path, reader, Permission.READ_WRITE)
        deployment.drain(2.0)

    def test_reentrant_lock_held_until_last_release(self):
        """NB mode: two quick closes of the same file keep the write lock
        held until the *second* background commit completes (refcounting) —
        the first completion must not hand the lock to another client while
        this one still has a dirty handle pending."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=41)
        alice = deployment.create_agent("alice")
        deployment.create_agent("bob")
        self._shared_file(deployment, "alice", "bob", "/contended.txt")

        handle = alice.open("/contended.txt", "w")
        alice.write(handle, b"v2")
        alice.close(handle)
        handle = alice.open("/contended.txt", "w")
        alice.write(handle, b"v3")
        alice.close(handle)
        lock_name = alice.locks.lock_name(alice.stat("/contended.txt"))
        assert alice.locks.held.get(lock_name, 0) == 2
        deployment.drain(3.0)
        assert alice.locks.held.get(lock_name, 0) == 0
        assert alice.read_file("/contended.txt") == b"v3"

    def test_writer_revalidates_metadata_after_taking_the_lock(self):
        """TOCTOU regression: the lock acquisition round trip can overlap the
        previous holder's in-flight commit; the writer must base its version
        on the post-acquisition anchor state, never forking the history."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-NB", seed=43)
        alice = deployment.create_agent("alice")
        bob = deployment.create_agent("bob")
        self._shared_file(deployment, "alice", "bob", "/handoff.txt")
        versions = set()
        for writer, payload in ((alice, b"from-alice"), (bob, b"from-bob")):
            handle = writer.open("/handoff.txt", "w")
            writer.write(handle, payload)
            writer.close(handle)
            deployment.drain(2.0)
            versions.add(writer.stat("/handoff.txt").data_version)
        assert versions == {2, 3}
        assert bob.read_file("/handoff.txt") == b"from-bob"

    def test_two_commits_within_propagation_window_do_not_collide(self):
        """Eventual-consistency regression: DepSky heads re-read within the
        propagation window of the previous commit must not mint the same
        version number twice (anchored min_version + the client's floor)."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=44)
        alice = deployment.create_agent("alice")
        payloads = [b"gen-%d" % i for i in range(4)]
        for payload in payloads:
            alice.write_file("/rapid.txt", payload)  # no drain in between
        meta = alice.stat("/rapid.txt")
        backend = alice.backend
        deployment.sim.advance(3.0)  # a LIST shows what has propagated
        versions = [r.version for r in backend.client.list_versions(meta.file_id)]
        assert len(versions) == len(set(versions)) == len(payloads)
        alice.memory_cache.clear()
        alice.disk_cache.clear()
        assert alice.read_file("/rapid.txt") == payloads[-1]

    def test_gc_never_erases_the_anchored_version(self):
        """GC regression: collecting immediately after a commit (metadata not
        yet propagated) must not rewrite the DepSky metadata from the stale
        history and erase the anchored version."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=45)
        alice = deployment.create_agent("alice")
        for i in range(5):
            alice.write_file("/churn.txt", b"ver-%d" % i)
        alice.collect_garbage()  # runs at the commit instant — worst case
        alice.memory_cache.clear()
        alice.disk_cache.clear()
        assert alice.read_file("/churn.txt") == b"ver-4"

    def test_corrupted_share_does_not_poison_the_key(self):
        """Share-integrity regression: a cloud corrupting blobs at write time
        flips the stored share header; the block digest covers the whole blob,
        so the bad copy is rejected instead of poisoning key reconstruction."""
        deployment = SCFSDeployment.for_variant("SCFS-CoC-B", seed=46)
        deployment.clouds[0].failures.add(FaultKind.CORRUPTION)
        alice = deployment.create_agent("alice")
        alice.write_file("/secret.txt", b"sealed" * 100)
        deployment.clouds[0].failures.clear()
        deployment.drain(2.0)
        alice.memory_cache.clear()
        alice.disk_cache.clear()
        assert alice.read_file("/secret.txt") == b"sealed" * 100

    def test_replica_recovery_transfers_state(self):
        """BFT regression: a replica that missed commands while crashed must
        not rejoin with stale state (invoke answers from the first correct
        replica, which recovery makes the recovered one)."""
        sim = Simulation(seed=47)
        rsm = ReplicatedStateMachine(sim, f=1)
        holder = Holder("s1", deadline=30.0)
        rsm.crash_replica(0)
        rsm.invoke("entry_multi", (Put("k", b"committed-during-crash"),), "alice", 0.0, holder)
        rsm.recover_replica(0)
        entry, = rsm.invoke("entry_multi", (Get("k"),), "alice", 0.0, holder)
        assert entry.value == b"committed-during-crash"

    def test_scenario_runner_smoke(self):
        result = run_scenario(123, mix="fault-free", agents=2, ops_per_agent=6)
        assert result.ok, "\n" + result.report()
        kinds = {event.kind for event in result.trace.events}
        assert {"open", "close", "commit", "quorum", "setup_done",
                "scenario_done"} <= kinds
