"""Coordination services (the SCFS *consistency anchor*).

SCFS stores file-system metadata in, and synchronises through, a fault-tolerant
coordination service rather than an embedded lock/metadata manager (§1,
*modular coordination*).  The paper's prototype wraps two such services
(§3.2); every setup reproduced here runs the Byzantine fault-tolerant one,
DepSpace:

* :mod:`~repro.coordination.entries` — the replica state machine: one map of
  entries with a sorted key index, one lock table whose locks lapse a lease
  after their take, and every command SCFS sends (create-vs-update, ACLs,
  versions, lock sets);
* :mod:`~repro.coordination.replication` — a simulated Byzantine (3f+1)
  state-machine replication layer with quorum availability checks;
* :mod:`~repro.coordination.base`/:mod:`~repro.coordination.adapters` — the
  steps of a command, and ``DepSpaceCoordination``, the thin wrapper of a
  replicated DepSpace that the SCFS Agent programs against.

One service holds the whole namespace, as in the paper's evaluation.
"""
