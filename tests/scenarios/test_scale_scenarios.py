"""The discrete-event scale path: event-driven scheduling, pooled namespaces,
pinned replay fingerprints.

The scale-out refactor (PR 6) must not disturb a single byte of the existing
lockstep traces — the golden fingerprints below were recorded before the
scheduler refactor and pin that guarantee.  The new event-driven mode has the
same determinism contract (same spec, same trace bytes) and runs under the
same four invariant checkers.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import DispatchPolicyConfig
from repro.scenarios import FAULT_MIXES, ScenarioSpec, run_scenario
from repro.scenarios.runner import ScenarioRunner

#: Trace fingerprints of the seed-101 lockstep sweep (3 agents x 10 ops).
#: A change here means existing replay commands no longer reproduce their
#: traces — that is a breaking change, not a refactor.  Fingerprint epoch 7,
#: recorded at PR 22 for all eight mixes: the per-unit DepSky object is a
#: constant-size head and block names carry the plaintext digest.  A write
#: issues the same requests and draws the same random numbers, but object
#: sizes feed the bandwidth term of every request's latency, so from a unit's
#: second version on every later timestamp moved; the collector's head
#: read-modify-write rounds became one ``list`` quorum call per file, and
#: ``commit`` events carry the anchored locator.  Epoch 1 held from PR 4 to
#: PR 11, epoch 2 from PR 12 (one replicated command per coordination intent),
#: epoch 3 (PR 13, constant-round commit) covered the three transactional
#: mixes only, epoch 4 from PR 14 (one-round cold reads), epoch 5 from PR 16
#: (the lock rides in the command it guards), epoch 6 from PR 17 (a refused
#: insert says what is there).  Epoch 8 (PR 23) covers the three
#: transactional mixes only: one coordination command stands in front of a
#: commit's upload (the pending intent rides with the lock set, the write set
#: is numbered by the anchor — no head-read round); the five others run no
#: transaction and keep their epoch 7 values.  Epoch 9 covers all eight mixes:
#: block *i* lives on the *i*-th cloud of DepSky's preferred order (ranked by
#: the profiles' GET latency, no longer the provider list's order) and a block
#: read asks the already-visible holders first, so every block request after a
#: run's first write goes to another cloud and draws another latency.  Epoch 10
#: covers all eight mixes: every close is numbered by its anchor, one quorum
#: call (and its draws) fewer per close.  Epoch 11 covers all eight mixes: a
#: write-open of an existing file sends its lock and the re-read under it as
#: one command, one coordination latency draw fewer per such open.  Epoch 12
#: covers all eight mixes: a mount registers its user in one command (one
#: draw fewer per mount), and a partitioned fan-out is charged its slowest
#: branch.  Epoch 13 moved ``fault-free`` and ``corrupt-byzantine`` only: a
#: non-blocking close schedules its background commit from a dry run of the
#: write's real calls, whose block and head sizes are the real ones.  Epoch 14
#: moved the five mixes that drew SCFS-CoC-NB: a ``setfacl`` sends an
#: ``Update`` of the grants alone, so the setup's second grant, made from a
#: snapshot cached before the owner's background commit landed, no longer
#: puts the tuple back without its locator (every first read then read a head
#: first).  Epoch 15 covers all eight mixes: a DepSky head is the 186-byte
#: binary locator ‖ data digest instead of ≈ 450 B of JSON, so every head PUT
#: (and GET) moves fewer bytes and resolves a little sooner.  Epoch 16 moved
#: ``weighted-byzantine`` only: its planner no longer knows a gray failure
#: before any request observed it.  Epoch 17 covers all eight mixes: the
#: mixes collect at W = 8 KiB instead of 256 KiB, which no run reached, so
#: each of these runs deletes old versions (LIST and block DELETE quorum
#: calls, their draws and their billing).  Epoch 18 covers all eight mixes: a
#: cold write-open sends its lock with its look, one command where it sent
#: two, so every later draw shifts.  Epoch 19 moved ``txn-crash-restart``
#: and ``txn-partition`` only: a commit attempt that fails after its locks
#: no longer deletes an intent record, one command (and its draw) fewer.
#: Epoch 20 covers all eight mixes: a close after an ``fsync`` of the same
#: bytes writes no second disk copy, and a cloud read, a blocking close and a
#: commit write their caches beside the transfer, so every later timestamp
#: moves.  Epoch 21 moved the three ``txn`` mixes only: a transaction commit
#: takes no lock set, so it sends one command (and draws one latency) fewer.
#: See docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "29ecd9b339b036a00de3a6c600c30944d75736369f5f4313bfe07c808f07f024",
    "crash-hang": "bf83586df8c8277c601753aabc294d97e256dce48819467ffc5756dad0ef05a8",
    "corrupt-byzantine": "e671711a5c1407e38b9f6b734d041efdb9e2dc8d7195eb192420d5734d3171d3",
    "degraded-outage": "fdd9261f4fe2df79ab9255dac25e44508b5bc1f9547094491c3f24cb588908e0",
    "weighted-byzantine": "6c5a0dda179bcef880813ae66d98db87d2a16e7301c4cd19c7ac062325d697f6",
    "txn": "2f0f59a5231e24de50ad00f521e3ffed66a6fee020286db7d73f8ec7b7bb6ad2",
    "txn-crash-restart": "b74b0e75f8320bebecf322a7331792dd99a5aa44d3f0400a96f8b948017d893d",
    "txn-partition": "4beca3449a708764040b909996b0e70b6d3343aee5bc1d7cd657c4671da6274c",
}


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_lockstep_fingerprints_are_pinned(mix: str) -> None:
    result = run_scenario(101, mix=mix, agents=3, ops_per_agent=10)
    assert result.fingerprint == GOLDEN_LOCKSTEP[mix], (
        f"lockstep replay fingerprint changed for {mix}: byte-identical "
        f"replay of pre-refactor traces is broken")


def _scale_spec(**overrides) -> ScenarioSpec:
    defaults = dict(seed=23, agents=20, files=200, ops_per_agent=4, directories=8)
    defaults.update(overrides)
    return ScenarioSpec.generate_scale(**defaults)


#: Trace fingerprint of ``_scale_spec()``: pooled, event-driven — the one
#: pinned run that goes through pool priming.  Re-pinned in epoch 11, where
#: its file ids also came to name their entry's partition, in epochs 12 and 15
#: (pool priming installs the binary head) and 18 (its cold write-opens), and
#: in epoch 19, where one coordination service replaced its two partitions
#: (the run a 1-partition spec made before), and in epoch 20 (its cloud
#: reads no longer wait for their cache fill); an epoch bump re-pins it
#: together with the eight above.
GOLDEN_POOLED = "854b9f1c8501bafda431c3f0bb2712fe12084cf4e08bbaeb8cfe895b8f770b93"


def test_pooled_fingerprint_is_pinned() -> None:
    assert ScenarioRunner(_scale_spec()).run().fingerprint == GOLDEN_POOLED


def test_event_driven_replay_is_byte_identical() -> None:
    spec = _scale_spec()
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.fingerprint == second.fingerprint
    assert first.trace.to_jsonl() == second.trace.to_jsonl()


def test_pooled_scale_run_upholds_all_invariants() -> None:
    result = ScenarioRunner(_scale_spec()).run()
    assert result.ok, "\n" + result.report()
    # The pool really was primed (one setup event, no per-file write traffic)
    # and the workload ran against it.
    setup = [e for e in result.trace.by_kind("setup_done")]
    assert len(setup) == 1 and setup[0].fields["files"] == 200
    assert result.stats["events"] > 0 and result.stats["quorum_calls"] > 0


def test_scale_spec_shape() -> None:
    spec = _scale_spec(agents=30)
    assert len(spec.agents) == 30
    assert spec.scheduling == "event-driven"
    assert spec.pooled and spec.variant == "SCFS-CoC-NB"
    # Generated agent names extend past the fixed roster without collisions.
    names = [a.name for a in spec.agents]
    assert len(set(names)) == 30
    config = spec.config
    # The fault-free mix leaves the dispatch policy at its default.
    assert config.dispatch == DispatchPolicyConfig()
    assert config.encrypt_data is False
    assert config.gc_threshold == math.inf
    # The hour-long lease outlives the run: no lock lapses mid-run.
    assert config.lock_lease == 3600.0


def test_event_driven_mode_differs_from_lockstep_but_both_hold() -> None:
    base = dict(seed=31, mix="fault-free", agents=4, ops_per_agent=6)
    lockstep = run_scenario(**base)
    spec = ScenarioSpec.generate(**base)
    event_driven = ScenarioRunner(
        spec.__class__(**{**spec.__dict__, "scheduling": "event-driven"})).run()
    assert lockstep.ok and event_driven.ok
    # Different interleavings, same guarantees.
    assert lockstep.fingerprint != event_driven.fingerprint


def test_scale_spec_rejects_bad_sizing() -> None:
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, agents=0)
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, files=0)
    with pytest.raises(ValueError):
        ScenarioSpec.generate_scale(seed=1, directories=0)


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_pooled_run_upholds_all_invariants_under_every_fault_mix(mix: str) -> None:
    """A ``replica:i`` phase faults replica *i* of the coordination service."""
    result = ScenarioRunner(_scale_spec(mix=mix)).run()
    assert result.ok, "\n" + result.report()
