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
#: traces — that is a breaking change, not a refactor.  Fingerprint epoch 5,
#: recorded at PR 16 for all eight mixes (each creates shared files): the lock
#: rides in the metadata command it guards — a create-open is {insert, Lock}
#: and a transaction commit takes {lock set, validation snapshot} as one
#: command each — so there is one coordination latency draw fewer per
#: create-open and commit attempt and every later timestamp moved.  Epoch 1
#: held from PR 4 to PR 11, epoch 2 from PR 12 (one replicated command per
#: coordination intent), epoch 3 (PR 13, constant-round commit) covered the
#: three transactional mixes only, epoch 4 from PR 14 (one-round cold reads).
#: See docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "9bfb0476029b9d3383319bae1c3371d3e9438670a2c2aba7102d169fbcb005c8",
    "crash-hang": "73d4c02b5eb70be38c0454aec848db64a67b98a0908f802d9270ba4890bfece2",
    "corrupt-byzantine": "92746e3ec1c1d7dbe66e68fda46d633159e4918fddeb0f0c3d54dbeeea1c1e42",
    "degraded-outage": "3d64b6cabe38af63af043ed875d8f6d8861cbe416c6b2c26d55f031a8fe4535b",
    "weighted-byzantine": "d0d50981220c3e1c07996257560c7bedddb0db59efda5483daba50c17323439b",
    "txn": "b54e05ff5ba5ead0e4dbb04dc81cf6a9e634c065834ad7801159d4e20821f68f",
    "txn-crash-restart": "ee371228ec1d89ea648928ef3d92d9c91cb848836788d33ff6d9a42b4b3c1625",
    "txn-partition": "db675bd84f4f4aa7c544a0586598367186d49b70ba9afa1176dda57b79c32f21",
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
