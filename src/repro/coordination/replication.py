"""Simulated state-machine replication for the coordination service.

DepSpace runs on top of the BFT-SMaRt replication engine: 3f+1 replicas
tolerate f Byzantine faults, and a command completes once 2f+1 of them answer
(§3.2).  This module reproduces the *externally observable* behaviour of such
a replicated service:

* a deterministic DepSpace state machine
  (:class:`~repro.coordination.entries.EntryCommands`) is instantiated once
  per replica;
* every command is applied to all *correct* replicas, keeping them in sync;
* a command only succeeds while a quorum of replicas is available, otherwise
  :class:`~repro.common.errors.QuorumNotReachedError` is raised;
* Byzantine replicas may return corrupted answers, which are voted out by the
  reply quorum (we verify that enough correct replicas agree);
* each invocation charges the client one coordination-access latency
  (60–100 ms in the paper, §4.2) to the simulated clock — unless it is
  background work (:meth:`Simulation.background`), which neither waits nor
  draws a latency sample.  A command takes effect once its wait is over.

The goal is not to reproduce the internals of BFT-SMaRt, but to provide a
substrate with the same failure and latency envelope that SCFS assumes.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.common.errors import QuorumNotReachedError
from repro.coordination.entries import EntryCommands
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


class ReplicatedStateMachine:
    """Replicates the DepSpace state machine across ``n = 3f+1`` simulated replicas.

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
        self.replicas = [EntryCommands() for _ in range(self.n)]
        self.latency = latency or LatencyModel(base=0.080, jitter=0.2)
        self._crashed: set[int] = set()
        self._byzantine: set[int] = set()
        self._partitioned: set[int] = set()
        self.commands_executed = 0

    # -- fault injection ------------------------------------------------------

    def crash_replica(self, index: int) -> None:
        """Crash replica ``index`` (it stops answering)."""
        self._check_index(index)
        self._crashed.add(index)

    def recover_replica(self, index: int) -> None:
        """Recover a crashed or Byzantine replica via state transfer.

        A faulty replica missed every command applied while it was out (and a
        Byzantine one may hold arbitrary state), so simply re-marking it
        correct would re-admit a *diverged* state machine — and ``invoke``
        answers from the first correct replica, so a stale recovered replica
        could serve vanished locks and old metadata.  As in BFT-SMaRt, the
        recovering replica first installs a snapshot of a correct peer's
        state; only if no correct peer exists (beyond the fault budget) does
        it rejoin with the state it has.
        """
        if index in self.faulty_replicas:
            correct = self.correct_replicas
            if correct:
                self.replicas[index] = copy.deepcopy(self.replicas[correct[0]])
        self._crashed.discard(index)
        self._byzantine.discard(index)
        self._partitioned.discard(index)

    def make_byzantine(self, index: int) -> None:
        """Mark replica ``index`` as Byzantine (it may answer arbitrarily)."""
        self._check_index(index)
        self._byzantine.add(index)

    def partition_replica(self, index: int) -> None:
        """Cut replica ``index`` off from the clients (a minority partition).

        To the protocol a partitioned replica is indistinguishable from a
        crashed one — it receives no commands and contributes no replies —
        but its *state* is intact: it simply falls behind.  Healing goes
        through :meth:`recover_replica`, whose state transfer is exactly how
        a partitioned replica catches up with the commands it missed.
        """
        self._check_index(index)
        self._partitioned.add(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n:
            raise IndexError(f"replica index {index} out of range (n={self.n})")

    @property
    def faulty_replicas(self) -> set[int]:
        """Indices of replicas currently crashed, Byzantine or partitioned."""
        return self._crashed | self._byzantine | self._partitioned

    @property
    def correct_replicas(self) -> list[int]:
        """Indices of replicas behaving correctly."""
        return [i for i in range(self.n) if i not in self.faulty_replicas]

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
        correct = self.correct_replicas
        if len(correct) < self.quorum_size():
            raise QuorumNotReachedError(
                f"only {len(correct)} correct replicas, quorum of {self.quorum_size()} required")
        if not self.sim.in_background:
            self.sim.advance(self.latency.sample(0, self.sim.rng))
        # Counted before it is applied: a command the replicas reject (a failed
        # CAS, a denied write) made the round trip all the same.
        self.commands_executed += 1
        results = [self.replicas[i].apply((operation, args, kwargs)) for i in correct]
        # All correct replicas are deterministic, so their results agree; we
        # return the first one.  Byzantine replicas never receive the command
        # (their state is considered corrupted), matching the voting filter a
        # real BFT client library applies to replies.
        return results[0]

    def reference_replica(self) -> EntryCommands:
        """Return one correct replica, for read-only introspection by tests."""
        correct = self.correct_replicas
        if not correct:
            raise QuorumNotReachedError("no correct replica available")
        return self.replicas[correct[0]]
