"""Adapters exposing concrete coordination services through the common interface.

The SCFS Agent integrates coordination services "with simple wrappers" (§3.2).
These adapters are those wrappers: they map the generic
:class:`~repro.coordination.base.CoordinationService` operations onto

* a replicated :class:`~repro.coordination.tuplespace.DepSpace` (Byzantine
  fault-tolerant, 3f+1 replicas), or
* a replicated :class:`~repro.coordination.zookeeper.ZooKeeperLike`
  (crash fault-tolerant, 2f+1 replicas).

Every intent is **one** replicated command, charging one coordination-service
access of roughly 60–100 ms to the simulated clock (the figure the paper
measured, §4.2).  What decides the outcome — create-vs-update, the entry ACL,
``expected_version`` — is checked by the replicas
(:mod:`repro.coordination.entries`), never by this client-side code; a
``put``, ``multi`` or ``move`` they refuse on a version check carries what it
met (``ConflictError.found``: the entry when the caller may READ it, else
``None``), so the refusal answers the ``get`` a caller would send next:

==================================  =========================================
adapter call                        replicated command
==================================  =========================================
``put`` (plain, CAS, insert-only)   ``entry_put`` (a created entry starts
                                    with the ``grants`` given)
``get``                             ``entry_get``
``delete``                          ``entry_delete``
``list_entries`` / ``list_prefix``  ``entry_list``
``set_entry_acl``                   ``entry_set_acl``
``move``                            ``entry_move``
``multi``                           ``entry_multi``
``multi`` of ``Update`` steps       ``entry_multi`` (only the fields named)
``try_lock`` / ``unlock``           ``entry_multi`` (one ``Lock`` / ``Unlock`` step)
``close_session``                   ``close_session`` (every lock the session holds)
``renew_session``                   none / ``register_session`` (background)
``open_session``                    none
==================================  =========================================

``multi`` is one command whatever its number of steps, all or nothing: a lock
set taken or returned, a set of entries read, a set of entries conditionally
replaced or updated field by field — or a lock set taken *and* the entries it
guards read or inserted.  A transaction commit is three commands for any
number of files: ``{lock set, validating reads, pending intent}``, ``{Update
of every written entry, intent flip}`` and the lock set's release.

The ``*_command`` builders hand out the command of ``close_session``,
``list_entries`` and ``multi`` (and ``renewal`` the heartbeats of
``renew_session``) unsent, so a namespace-partitioned service can send one to
every partition together (:func:`~repro.coordination.replication.invoke_together`).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from repro.common.types import Permission, Principal
from repro.coordination.base import CoordinationService, Entry, Op, Session
from repro.coordination.entries import Holder
from repro.coordination.replication import (
    Command,
    FaultModel,
    ReplicatedStateMachine,
    invoke_together,
)
from repro.coordination.tuplespace import DepSpace
from repro.coordination.zookeeper import ZooKeeperLike
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel

_session_counter = itertools.count()

#: Default lease of ephemeral state (locks, sessions).  Long enough for any
#: single file-system operation, short enough that a crashed client releases
#: its locks quickly.
DEFAULT_LEASE = 30.0


class ReplicatedCoordination(CoordinationService):
    """Sessions and entries, identical for both services; lock lifetimes differ per service."""

    rsm: ReplicatedStateMachine

    def __init__(self, sim: Simulation):
        self.sim = sim

    # -- sessions -----------------------------------------------------------

    def open_session(self, principal: Principal, lease_seconds: float = DEFAULT_LEASE) -> Session:
        return Session(
            session_id=f"session-{principal.name}-{next(_session_counter):06d}",
            principal=principal,
            lease_seconds=lease_seconds,
            last_renewal=self.sim.now(),
        )

    def renew_session(self, session: Session) -> None:
        # The agent's heartbeat thread sends it: nobody waits for a heartbeat.
        with self.sim.background():
            invoke_together(self.renewal(session))

    def renewal(self, session: Session) -> list[Command]:
        """Renew ``session`` on this client; the heartbeats the replicas must hear."""
        session.last_renewal = self.sim.now()
        return []

    def close_session(self, session: Session) -> None:
        self.close_command(session).invoke()

    def close_command(self, session: Session) -> Command:
        """The command ending ``session``: it returns every lock the session holds."""
        return self.rsm.command("close_session", session.session_id, self.sim.now())

    # -- entries ------------------------------------------------------------

    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None,
            grants: Mapping[str, Permission] | None = None) -> Entry:
        return self.rsm.invoke("entry_put", key, value, session.principal.name, self.sim.now(),
                               expected_version=expected_version, grants=grants)

    def get(self, key: str, session: Session) -> Entry:
        return self.rsm.invoke("entry_get", key, session.principal.name, self.sim.now())

    def delete(self, key: str, session: Session) -> None:
        self.rsm.invoke("entry_delete", key, session.principal.name, self.sim.now())

    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        return self.list_command(prefix, session).invoke()

    def list_command(self, prefix: str, session: Session) -> Command:
        """The command of :meth:`list_entries`."""
        return self.rsm.command("entry_list", prefix, session.principal.name, self.sim.now())

    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        self.rsm.invoke("entry_set_acl", key, session.principal.name, user, permission,
                        self.sim.now())

    def move(self, key: str, new_key: str, value: bytes, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        return self.rsm.invoke("entry_move", key, new_key, value, session.principal.name,
                               self.sim.now(), expected_version=expected_version,
                               target_version=target_version)

    def multi(self, ops: Sequence[Op], session: Session) -> list[Entry | None]:
        return self.multi_command(ops, session).invoke()

    def multi_command(self, ops: Sequence[Op], session: Session) -> Command:
        """The command of :meth:`multi`."""
        holder = Holder(session.session_id, session.lease_seconds,
                        session.last_renewal + session.lease_seconds)
        return self.rsm.command("entry_multi", tuple(ops), session.principal.name,
                                self.sim.now(), holder=holder)

    # -- introspection ------------------------------------------------------

    def lock_holder(self, name: str) -> str | None:
        return self.rsm.reference_replica().lock_holder(name, self.sim.now())

    def entry_count(self) -> int:
        return self.rsm.reference_replica().entry_count()


class DepSpaceCoordination(ReplicatedCoordination):
    """Coordination service backed by replicated DepSpace.

    Each lock has its own lease, counted from its take, so there is no
    session to register with the service.
    """

    def __init__(
        self,
        sim: Simulation,
        fault_model: FaultModel = FaultModel.BYZANTINE,
        f: int = 1,
        latency: LatencyModel | None = None,
    ):
        super().__init__(sim)
        self.rsm = ReplicatedStateMachine(
            sim,
            factory=DepSpace,
            fault_model=fault_model,
            f=f,
            latency=latency,
        )


class ZooKeeperCoordination(ReplicatedCoordination):
    """Coordination service backed by replicated ZooKeeper.

    Locks belong to the session, which the replicas expire ``lease_seconds``
    after its last heartbeat.
    """

    def __init__(
        self,
        sim: Simulation,
        f: int = 1,
        latency: LatencyModel | None = None,
    ):
        super().__init__(sim)
        self.rsm = ReplicatedStateMachine(
            sim,
            factory=ZooKeeperLike,
            fault_model=FaultModel.CRASH,
            f=f,
            latency=latency,
        )

    @staticmethod
    def _deadline(session: Session) -> float:
        return session.last_renewal + session.lease_seconds

    def renewal(self, session: Session) -> list[Command]:
        # The replicas learn of a session with its first lock (a ``Lock``
        # step); a heartbeat must reach them so that locks already held live on.
        super().renewal(session)
        return [self.rsm.command("register_session", session.session_id,
                                 self._deadline(session), self.sim.now())]


def make_coordination_service(
    sim: Simulation,
    kind: str = "depspace",
    fault_model: FaultModel = FaultModel.BYZANTINE,
    f: int = 1,
    latency: LatencyModel | None = None,
) -> ReplicatedCoordination:
    """Factory used by SCFS configurations.

    ``kind`` is ``"depspace"`` or ``"zookeeper"``.  The AWS backend of the
    paper runs a single DepSpace instance in one EC2 VM (f=0); the CoC backend
    runs DepSpace over BFT-SMaRt across four providers (f=1).
    """
    if kind == "depspace":
        return DepSpaceCoordination(sim, fault_model=fault_model, f=f, latency=latency)
    if kind == "zookeeper":
        return ZooKeeperCoordination(sim, f=f, latency=latency)
    raise ValueError(f"unknown coordination service kind {kind!r}")
