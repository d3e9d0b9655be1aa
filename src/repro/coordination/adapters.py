"""The client of a replicated DepSpace, behind the common interface.

The SCFS Agent integrates coordination services "with simple wrappers" (§3.2).
:class:`DepSpaceCoordination` is that wrapper: it maps the generic
:class:`~repro.coordination.base.CoordinationService` operations onto a
replicated DepSpace (:class:`~repro.coordination.entries.EntryCommands` on
each of 3f+1 Byzantine fault-tolerant replicas).

Every intent is **one** replicated command, charging one coordination-service
access of roughly 60–100 ms to the simulated clock (the figure the paper
measured, §4.2).  What decides the outcome — create-vs-update, the entry ACL,
``expected_version``, whose session a lock belongs to — is checked by the
replicas (:mod:`repro.coordination.entries`), never by this client-side code;
a step they refuse on a version check carries what it met
(``ConflictError.found``: the entry when the caller may READ it, else
``None``), so the refusal answers the ``get`` a caller would send next.

A replica answers two commands, nothing else:

==================================  =========================================
client call                         replicated command
==================================  =========================================
``multi``                           ``entry_multi``: its steps, in order
``put`` / ``get`` / ``delete`` /    ``entry_multi`` of one step: ``Put`` /
``set_entry_acl`` / ``move`` /      ``Get`` / ``Delete`` / ``Grant`` /
``try_lock`` / ``unlock`` /         ``Move`` / ``Lock`` / ``Unlock`` /
``list_entries`` / ``list_prefix``  ``List``
``close_session``                   ``close_session`` (every lock the session holds)
``renew_session``                   ``entry_multi`` of no step (background)
``open_session``                    none
==================================  =========================================

A session is a client-side record, so opening one sends nothing.  Every
``entry_multi`` carries the session's :class:`~repro.coordination.entries.Holder`,
stamped with ``lease_seconds`` from the command's time: a lock lives that long
from the command that took it.

The one-step calls are :class:`~repro.coordination.base.CoordinationService`'s
own; this client supplies sessions and ``multi``.  ``multi``
is one command whatever its number of steps, all or nothing: a lock set taken
or returned, a set of entries read, a set of entries conditionally replaced
or updated field by field — or a lock set taken *and* the entries it guards
read or inserted.  A transaction commit is three commands for any number of
files: ``{lock set, validating reads, intent}``, ``{Update of every
written entry, intent deletion}`` and the lock set's release.

The ``*_command`` builders hand out the command of ``close_session`` and
``multi`` unsent, so a namespace-partitioned service can
send one to every partition together
(:func:`~repro.coordination.replication.invoke_together`).
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

from repro.common.types import Principal
from repro.coordination.base import DEFAULT_LEASE, CoordinationService, Op, Session
from repro.coordination.entries import Holder
from repro.coordination.replication import Command, ReplicatedStateMachine
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


class DepSpaceCoordination(CoordinationService):
    """Coordination service backed by replicated DepSpace (BFT, ``3f+1`` replicas).

    Each lock has its own lease, counted from its take, so there is no
    session to register with the service.  The AWS backend of the paper runs
    a single DepSpace instance in one EC2 VM (f=0); the CoC backend runs
    DepSpace over BFT-SMaRt across four providers (f=1).
    """

    def __init__(self, sim: Simulation, f: int = 1, latency: LatencyModel | None = None):
        self.sim = sim
        self.rsm = ReplicatedStateMachine(sim, f=f, latency=latency)
        self._session_ids = itertools.count()

    # -- sessions -----------------------------------------------------------

    def open_session(self, principal: Principal, lease_seconds: float = DEFAULT_LEASE) -> Session:
        return Session(f"session-{principal.name}-{next(self._session_ids):06d}",
                       principal, lease_seconds)

    def renew_session(self, session: Session) -> None:
        # The agent's heartbeat thread sends it: nobody waits for a heartbeat.
        with self.sim.background():
            self.multi((), session)

    def close_session(self, session: Session) -> None:
        self.close_command(session).invoke()

    def close_command(self, session: Session) -> Command:
        """The command ending ``session``: it returns every lock the session holds."""
        return self.rsm.command("close_session", session.session_id, session.principal.name,
                                self.sim.now())

    # -- entries ------------------------------------------------------------

    def multi(self, ops: Sequence[Op], session: Session) -> list[Any]:
        return self.multi_command(ops, session).invoke()

    def multi_command(self, ops: Sequence[Op], session: Session) -> Command:
        """The command of :meth:`multi`."""
        now = self.sim.now()
        holder = Holder(session.session_id, now + session.lease_seconds)
        return self.rsm.command("entry_multi", tuple(ops), session.principal.name, now,
                                holder=holder)

    # -- introspection ------------------------------------------------------

    def entry_count(self) -> int:
        return self.rsm.reference_replica().entry_count()

