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
#: traces — that is a breaking change, not a refactor.  Fingerprint epoch 2,
#: recorded at PR 12 (coordination commands per intent changed: one replicated
#: command, hence one latency draw, per put/delete/ACL change/move); epoch 1
#: held from PR 4 to PR 11.  The three transactional mixes are epoch 3,
#: recorded at PR 13: a commit is five coordination commands and one round of
#: uploads for any number of files (lock set, validating reads, intent,
#: {version CASes + intent flip}, release) and returns once its versions are
#: readable, so every timestamp and latency draw after a run's first commit
#: moved; the five non-transactional values are still epoch 2, untouched.
#: See docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "2ca8ec26ca63c98b8c3765fe7022f58038525472d6e519e5413b9368cc67e4d4",
    "crash-hang": "fd2056a17c139474733f6cb88b086e4d012e20c1b3f38ef5c777a95706ca2ab9",
    "corrupt-byzantine": "2433461fc3bf3dbd36b78d2a9f415c839ca0e305a7ad6f2a5b90c67392761ef0",
    "degraded-outage": "3ce1f4006845af52fa2fc10905357a89aee3d3ceb5efb73446177a071017763d",
    "weighted-byzantine": "b15257ea02764420048a89c71f30c4d8f67d3405115cf7605962df43d5febb63",
    "txn": "4e02b1bbe4a82090c091925d49e54dfcb8ec346d69032ffce7af43b4a29dd99a",
    "txn-crash-restart": "c68a1780370180ca3e539a4bb3dfbff03c869d8f8bf468a12bf43bace59126f8",
    "txn-partition": "ec99871c32953089583b13a9b8390fcd35e0df24e64e08748e60027c2427aeba",
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
