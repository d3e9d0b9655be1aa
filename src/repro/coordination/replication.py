"""Simulated state-machine replication for the coordination service.

DepSpace runs on top of the BFT-SMaRt replication engine: 3f+1 replicas
tolerate f Byzantine faults, and a command completes once 2f+1 of them answer
(§3.2).  This module reproduces the *externally observable* behaviour of such
a replicated service:

* the replicated state is one deterministic DepSpace state machine
  (:class:`~repro.coordination.entries.EntryCommands`), ``rsm.state``: the
  correct replicas of a quorum agree on it, so the service stores one copy;
* which replicas are faulty (crashed, Byzantine or cut off — alike to a
  client, which gets no vote from them) decides liveness only: a command
  applies once, and only while 2f+1 of the n replicas are up, otherwise
  :class:`~repro.common.errors.QuorumNotReachedError` is raised;
* each invocation charges the client one coordination-access latency
  (60–100 ms in the paper, §4.2) to the simulated clock — unless it is
  background work (:meth:`Simulation.background`), which neither waits nor
  draws a latency sample.  A command takes effect once its wait is over.

The goal is not to reproduce the internals of BFT-SMaRt, but to provide a
substrate with the same failure and latency envelope that SCFS assumes.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import QuorumNotReachedError
from repro.coordination.entries import EntryCommands
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


class ReplicatedStateMachine:
    """The DepSpace state machine as ``n = 3f+1`` simulated replicas serve it.

    Parameters
    ----------
    sim:
        Simulation environment (clock and RNG).
    f:
        Number of tolerated Byzantine faults; the replica count is derived from it.
    latency:
        Client-observed latency of one replicated operation (defaults to the
        80 ms the paper measured for coordination accesses).
    """

    def __init__(self, sim: Simulation, f: int = 1, latency: LatencyModel | None = None):
        if f < 0:
            raise ValueError("f must be non-negative")
        self.sim = sim
        self.f = f
        self.n = 3 * f + 1
        self.state = EntryCommands()
        self.latency = latency or LatencyModel(base=0.080, jitter=0.2)
        #: Indices of the replicas that answer no command.
        self.faulty: set[int] = set()
        self.commands_executed = 0

    # -- fault injection ------------------------------------------------------

    def fail_replica(self, index: int) -> None:
        """Take replica ``index`` out: crashed, Byzantine or cut off, it gives no vote."""
        if not 0 <= index < self.n:
            raise IndexError(f"replica index {index} out of range (n={self.n})")
        self.faulty.add(index)

    def recover_replica(self, index: int) -> None:
        """Bring replica ``index`` back, holding the state the last quorum built.

        BFT-SMaRt's state transfer hands a recovering replica its peers'
        state; here that state is ``rsm.state`` itself, so recovery only
        restores the replica's vote.
        """
        self.faulty.discard(index)

    def quorum_size(self) -> int:
        """Replies needed for a command to complete."""
        return 2 * self.f + 1

    # -- invocation ------------------------------------------------------------

    def invoke(self, operation: str, *args: Any, **kwargs: Any) -> Any:
        """Execute ``operation`` on the replicated state machine.

        Raises :class:`QuorumNotReachedError` when too many replicas are faulty
        for the protocol to make progress.  The caller waits one round trip
        (nothing, and no latency draw, for background work), and then the
        command is applied.
        """
        up = self.n - len(self.faulty)
        if up < self.quorum_size():
            raise QuorumNotReachedError(
                f"only {up} correct replicas, quorum of {self.quorum_size()} required")
        if not self.sim.in_background:
            self.sim.advance(self.latency.sample(0, self.sim.rng))
        # Counted before it is applied: a command the replicas reject (a failed
        # CAS, a denied write) made the round trip all the same.
        self.commands_executed += 1
        return self.state.apply((operation, args, kwargs))
