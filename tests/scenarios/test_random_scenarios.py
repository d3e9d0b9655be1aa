"""Randomized multi-agent scenario sweep with Jepsen-style invariant checking.

Runs ``SCENARIO_SEEDS`` seeds (default 25) across the four fault mixes and
asserts that every run upholds the paper's guarantees: consistency-on-close,
write-lock mutual exclusion, durability/replication of every committed
version, and upload → metadata-update → unlock commit ordering.

On failure, the assertion message contains the exact command that reruns the
failing seed — and a same-seed rerun reproduces the trace byte for byte (see
``test_replay_is_byte_identical``).

Sizing knobs (environment):

* ``SCENARIO_SEEDS`` — number of seeds per mix (default 25);
* ``SCENARIO_OPS`` — workload operations per agent (default 10; the CI
  ``scenario-smoke`` job uses the defaults, which is the "fast mode" — one
  scenario runs in tens of milliseconds).
"""

from __future__ import annotations

import os

import pytest

from repro.common.errors import QuorumNotReachedError
from repro.coordination.replication import ReplicatedStateMachine
from repro.scenarios import FAULT_MIXES, ScenarioSpec, run_scenario

SEEDS = range(1, 1 + int(os.environ.get("SCENARIO_SEEDS", "25")))
OPS_PER_AGENT = int(os.environ.get("SCENARIO_OPS", "10"))
AGENTS = 3


@pytest.mark.parametrize("mix", FAULT_MIXES)
@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold(seed: int, mix: str) -> None:
    """Every seed of every fault mix upholds all four invariants."""
    result = run_scenario(seed, mix=mix, agents=AGENTS, ops_per_agent=OPS_PER_AGENT)
    assert result.ok, "\n" + result.report()


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_replay_is_byte_identical(mix: str) -> None:
    """Two same-seed runs produce the identical trace — every event, time,
    digest and quorum outcome (the repro-command guarantee)."""
    first = run_scenario(101, mix=mix, agents=AGENTS, ops_per_agent=OPS_PER_AGENT)
    second = run_scenario(101, mix=mix, agents=AGENTS, ops_per_agent=OPS_PER_AGENT)
    assert first.fingerprint == second.fingerprint
    assert first.trace.to_jsonl() == second.trace.to_jsonl()


@pytest.mark.parametrize("mix", [m for m in FAULT_MIXES if m != "fault-free"])
def test_faults_are_actually_injected(mix: str) -> None:
    """Faulty mixes really schedule fault windows over live traffic (the sweep
    must not silently degenerate to fault-free runs)."""
    result = run_scenario(11, mix=mix, agents=AGENTS, ops_per_agent=OPS_PER_AGENT)
    assert result.ok, "\n" + result.report()
    assert result.trace.count("fault_start") >= 1
    assert result.trace.count("fault_end") >= 1


def test_sweep_is_not_vacuous() -> None:
    """A scenario exercises the machinery the invariants reason about:
    contention-capable locking, commits, quorum calls and served reads."""
    result = run_scenario(5, mix="crash-hang", agents=AGENTS,
                          ops_per_agent=OPS_PER_AGENT)
    assert result.ok, "\n" + result.report()
    assert result.trace.count("lock") > 0
    assert result.trace.count("commit") > 0
    assert result.trace.count("quorum") > 0
    assert any(e.get("served") for e in result.trace.by_kind("open"))


def test_the_collector_runs_mid_scenario() -> None:
    """W is small enough that a fault-free 25-op run deletes old versions."""
    result = run_scenario(1, mix="fault-free", agents=AGENTS, ops_per_agent=25)
    assert result.ok, "\n" + result.report()
    assert any(e.get("op") == "block_delete" for e in result.trace.by_kind("quorum"))


def test_a_riding_reentrant_lock_outlives_its_own_pending_commit() -> None:
    """Seed 16 of crash-hang at 25 ops, which the default sweep does not reach.

    An agent re-enters the lock its own pending background commit holds, and
    that commit lands inside the command that re-reads the entry.  Counted
    only after the command, the re-entrant hold lost the lock to the commit's
    release; another writer took it, and both anchored the same version.
    """
    result = run_scenario(16, mix="crash-hang", agents=AGENTS, ops_per_agent=25)
    assert result.ok, "\n" + result.report()


def _invoke_at_send(rsm, operation, *args, **kwargs):
    """``ReplicatedStateMachine.invoke`` applying its command before the wait, not after it."""
    correct = rsm.correct_replicas
    if len(correct) < rsm.quorum_size():
        raise QuorumNotReachedError(f"only {len(correct)} correct replicas")
    wait = None if rsm.sim.in_background else rsm.latency.sample(0, rsm.sim.rng)
    rsm.commands_executed += 1
    try:
        return [rsm.replicas[i].apply((operation, args, kwargs)) for i in correct][0]
    finally:
        if wait is not None:
            rsm.sim.advance(wait)


@pytest.mark.parametrize("mix", ["fault-free", "corrupt-byzantine", "degraded-outage"])
def test_a_write_open_bases_its_version_on_its_agents_close_in_flight(monkeypatch, mix) -> None:
    """Seed 5 at 25 ops with every command applied at send.

    An agent write-opens a file while its own close of it is in flight, and
    that close anchors its version during the open's command.  An open that
    looked for the close only after the command's reply based its write on
    the version before it, and the next close anchored that version twice.
    """
    monkeypatch.setattr(ReplicatedStateMachine, "invoke", _invoke_at_send)
    result = run_scenario(5, mix=mix, ops_per_agent=25)
    assert result.ok, "\n" + result.report()


def test_repro_command_names_the_seed() -> None:
    """The printed repro command pins the seed, mix and sizing."""
    spec = ScenarioSpec.generate(42, mix="crash-hang", agents=AGENTS,
                                 ops_per_agent=OPS_PER_AGENT)
    command = spec.repro_command()
    assert "--seed 42" in command
    assert "--mix crash-hang" in command
    assert "python -m repro.scenarios" in command


def test_degraded_outage_exercises_the_health_stack() -> None:
    """The degraded-outage mix runs with suspicion tracking enabled; across a
    handful of seeds the suspect list must actually trip (a cloud becomes
    SUSPECTED during the outage) — otherwise the mix is not testing PR 3."""
    saw_health_transition = False
    for seed in range(1, 9):
        result = run_scenario(seed, mix="degraded-outage", agents=AGENTS,
                              ops_per_agent=OPS_PER_AGENT)
        assert result.ok, "\n" + result.report()
        if result.trace.count("health") > 0:
            saw_health_transition = True
            break
    assert saw_health_transition
