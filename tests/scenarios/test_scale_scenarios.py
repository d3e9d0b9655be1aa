"""The discrete-event scale path: event-driven scheduling, pooled namespaces,
pinned replay fingerprints.

The scale-out refactor (PR 6) must not disturb a single byte of the existing
lockstep traces — the golden fingerprints below were recorded before the
scheduler refactor and pin that guarantee.  The new event-driven mode has the
same determinism contract (same spec, same trace bytes) and runs under the
same four invariant checkers.
"""

from __future__ import annotations

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
#: before any request observed it.  See docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "341a7e1ac7dd8bd7c53983a72ab0e8ba9f25def5b2332299fd304c9b5c457b98",
    "crash-hang": "eda1e6cd961037aca406dc1bf943119223b9b4b3a313db2275aaeb9e19eee218",
    "corrupt-byzantine": "c9d035ebbceaa5d1e0e081ff48ac11403ca9244c6fa20c5c52763cedab31656b",
    "degraded-outage": "29336231dff916001c924665f695592990bed7ba9faf824852b9ad5e37ca54fb",
    "weighted-byzantine": "d5de76b552f03005220b4ee5444968bad194f4947cbd02861014cd0718eb6efe",
    "txn": "62033d22603e7705528cd3d33b89d18040b1667f7b0d9e605d2862ead1213672",
    "txn-crash-restart": "ae599f9d6d50dc0fa57486e798c2043a94d92ecc20f1d1a27b4c6d290eee7cc4",
    "txn-partition": "eda4e9b9853e8b03b71de4005a82a4653fb28727b645e6bf35be1ba56f8954f7",
}


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_lockstep_fingerprints_are_pinned(mix: str) -> None:
    result = run_scenario(101, mix=mix, agents=3, ops_per_agent=10)
    assert result.fingerprint == GOLDEN_LOCKSTEP[mix], (
        f"lockstep replay fingerprint changed for {mix}: byte-identical "
        f"replay of pre-refactor traces is broken")


def _scale_spec(**overrides) -> ScenarioSpec:
    defaults = dict(seed=23, agents=20, files=200, ops_per_agent=4,
                    directories=8, partitions=2)
    defaults.update(overrides)
    return ScenarioSpec.generate_scale(**defaults)


#: Trace fingerprint of ``_scale_spec()``: pooled, partitioned, event-driven —
#: the one pinned run that goes through pool priming.  Re-pinned in epoch 11,
#: where its file ids also came to name their entry's partition, and in epochs
#: 12 and 15 (pool priming installs the binary head); an epoch bump re-pins it
#: together with the eight above.
GOLDEN_POOLED = "00981403d294353920d5626d4d363320b407656ff3c721860e794e4da8ef2545"


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
    spec = _scale_spec(agents=30, partitions=4)
    assert len(spec.agents) == 30
    assert spec.scheduling == "event-driven"
    assert spec.pooled and spec.variant == "SCFS-CoC-NB"
    # Generated agent names extend past the fixed roster without collisions.
    names = [a.name for a in spec.agents]
    assert len(set(names)) == 30
    config = spec.config
    # The fault-free mix leaves the dispatch policy at its default.
    assert config.dispatch == DispatchPolicyConfig()
    assert config.coordination_partitions == 4
    assert config.encrypt_data is False
    assert config.gc.enabled is False
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
    """A ``replica:i`` phase faults replica *i* of every partition's service."""
    result = ScenarioRunner(_scale_spec(mix=mix)).run()
    assert result.ok, "\n" + result.report()
