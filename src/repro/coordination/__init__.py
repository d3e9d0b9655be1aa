"""Coordination services (the SCFS *consistency anchor*).

SCFS stores file-system metadata in, and synchronises through, a fault-tolerant
coordination service rather than an embedded lock/metadata manager (§1,
*modular coordination*).  The paper's prototype supports two such services —
DepSpace (Byzantine fault-tolerant) and Apache ZooKeeper (crash
fault-tolerant) — and this package reproduces both:

* :mod:`~repro.coordination.entries` — the replica state machine both share:
  one map of entries with a sorted key index, one lock table, and every
  command SCFS sends (create-vs-update, ACLs, versions, lock sets);
* :mod:`~repro.coordination.tuplespace` / :mod:`~repro.coordination.zookeeper`
  — what differs between the two: a DepSpace lock lives for a lease counted
  from its take, a ZooKeeper lock as long as its session;
* :mod:`~repro.coordination.replication` — a simulated state-machine
  replication layer offering crash (2f+1) and Byzantine (3f+1) configurations
  with quorum availability checks;
* :mod:`~repro.coordination.base`/:mod:`~repro.coordination.adapters` — the
  thin ``CoordinationService`` wrapper interface the SCFS Agent programs
  against, with adapters for both concrete services.
"""

from repro.coordination.adapters import make_coordination_service
from repro.coordination.partitioned import PartitionedCoordination

__all__ = ["PartitionedCoordination", "make_coordination_service"]
