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
#: run's first write goes to another cloud and draws another latency.  See
#: docs/determinism-contract.md.
GOLDEN_LOCKSTEP = {
    "fault-free": "ef4f0addd20049ca7b91be642e552c620cae8e67dfffb246f41a938bcf9ca392",
    "crash-hang": "bbf8626e5e548dfe0299a1059d6af11070f7f6cc31b78cce1b1460f07eb39cd5",
    "corrupt-byzantine": "2ff2cb0739fabaaa4ca1da320f423fd44c58eef5a523a821a09ef313dee1d983",
    "degraded-outage": "748e0d917fae55df31fdcb993b17c387b4b93be9f88962cb64f6844c341ebaab",
    "weighted-byzantine": "c0e5112c5c5421a40b6b72c972d82ef36127d29c6540187aba493ba2fc5322e1",
    "txn": "d29b7b640c3fd134d75fc21abe31086be43ef2a5a2c5c8d58f96ee33077d7f51",
    "txn-crash-restart": "0d1bd5567f543a08c9c6f253c4eb4edf12288ca01c7c60d0e53a21a4935a54df",
    "txn-partition": "1d3df1bd4f4b5bbcba0fef24649ffacf9d2956371adb26034fd01352d9a2f940",
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
#: the one pinned run that goes through pool priming.  Recorded in epoch 9; an
#: epoch bump re-pins it together with the eight above.
GOLDEN_POOLED = "31ce7e9fabdb1d47fcacb88c072bc956580291d7a7af2414b67b4ea3b480eefb"


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
