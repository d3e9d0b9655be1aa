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

from repro.scenarios import FAULT_MIXES, ScenarioSpec, run_scenario
from repro.scenarios.runner import ScenarioRunner

#: Trace fingerprints of the seed-101 lockstep sweep (3 agents x 10 ops).
#: A change here means existing replay commands no longer reproduce their
#: traces — that is a breaking change, not a refactor.  Fingerprint epoch 6,
#: recorded at PR 17 for all eight mixes (each creates shared files): an
#: ``open(O_CREAT)`` sends {insert, Lock} first where it can, with no lookup
#: before it, and a refused insert carries what it met — one coordination
#: latency draw fewer per such open, so every later timestamp moved.  Epoch 1
#: held from PR 4 to PR 11, epoch 2 from PR 12 (one replicated command per
#: coordination intent), epoch 3 (PR 13, constant-round commit) covered the
#: three transactional mixes only, epoch 4 from PR 14 (one-round cold reads),
#: epoch 5 from PR 16 (the lock rides in the command it guards).
#: See docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "ed53090709b7eb18de37fe9ce813b1434af131ac6668903616354fd3d8c3245e",
    "crash-hang": "d8e808e5e0d7efcc4c229d8a1fdab1eb412632d65f3ef689580ef80fe741fe47",
    "corrupt-byzantine": "16015dc8c633e938f11991e2becca18ada8f63ca59e407dd70d5f01e79857887",
    "degraded-outage": "5b26939938a9246f49f405a611123adad71868f71926758732d63b5a8d0c23f6",
    "weighted-byzantine": "32926c73660135f234b09ddb931ab12dfa531fe7c6184a1d6330535db51dadce",
    "txn": "c1dd9de10f2b380b960ebe854aa2dcd3e080bb70c4e8bbee46533260830ae16e",
    "txn-crash-restart": "63e1a9e8eceae4e0aeb8c19287a5f34cb0077f5535f7d6dc584731642e1cea75",
    "txn-partition": "b1f1793a6a483d34893333bf1091ca58c627b99d8b7f53339fa22a807c24b3de",
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
    assert spec.pooled and spec.partitions == 4
    assert spec.dispatch is not None and spec.dispatch.coalesce_instant
    # Generated agent names extend past the fixed roster without collisions.
    names = [a.name for a in spec.agents]
    assert len(set(names)) == 30
    config = spec.config()
    assert config.coordination_partitions == 4
    assert config.encrypt_data is False
    assert config.gc.enabled is False


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
