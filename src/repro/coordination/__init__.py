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

from repro.coordination.base import CoordinationService, Entry, Session
from repro.coordination.tuplespace import DepSpace
from repro.coordination.zookeeper import ZooKeeperLike
from repro.coordination.replication import ReplicatedStateMachine, FaultModel
from repro.coordination.adapters import (
    DepSpaceCoordination,
    ZooKeeperCoordination,
    make_coordination_service,
)
from repro.coordination.partitioned import PartitionedCoordination, partition_by_top_level_directory

__all__ = [
    "CoordinationService",
    "Entry",
    "Session",
    "DepSpace",
    "ZooKeeperLike",
    "ReplicatedStateMachine",
    "FaultModel",
    "DepSpaceCoordination",
    "ZooKeeperCoordination",
    "make_coordination_service",
    "PartitionedCoordination",
    "partition_by_top_level_directory",
]
