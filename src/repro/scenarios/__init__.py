"""Deterministic multi-agent scenario engine with Jepsen-style checking.

Public surface:

* :class:`~repro.scenarios.spec.ScenarioSpec` /
  :data:`~repro.scenarios.spec.FAULT_MIXES` — seed-derived scenario
  descriptions (agents, workload mixes, fault phases over clouds and
  coordination replicas);
* :class:`~repro.scenarios.trace.TraceRecorder` — the totally ordered
  operation history and its replay fingerprint;
* :mod:`~repro.scenarios.invariants` — checkers for consistency-on-close,
  write-lock mutual exclusion, durability/replication and commit ordering;
* :class:`~repro.scenarios.runner.ScenarioRunner` /
  :func:`~repro.scenarios.runner.run_scenario` — execution.

``python -m repro.scenarios --seed S --mix M`` replays one scenario and
prints its report; a failing seed reproduces the identical trace.
"""

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import FAULT_MIXES, ScenarioSpec

__all__ = ["FAULT_MIXES", "ScenarioSpec", "run_scenario"]
