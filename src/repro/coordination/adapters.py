"""The client of a replicated DepSpace: the coordination service SCFS programs against.

The SCFS Agent integrates coordination services "with simple wrappers" (§3.2).
:class:`DepSpaceCoordination` is that wrapper, and the one interface the
agent programs against: it maps the operations the agent needs onto a
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

The one-step calls are ``multi`` of one step.  ``multi`` is one command
whatever its number of steps, all or nothing: a lock set taken or returned, a
set of entries read, a set of entries conditionally replaced or updated field
by field — or a lock set taken *and* the entries it guards read or inserted.
A transaction commit is three commands for any number of files: ``{lock set,
validating reads}``, ``{Update of every written entry}`` and the lock set's
release.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

from repro.common.errors import LockHeldError, TupleNotFoundError
from repro.common.types import Permission, Principal
from repro.coordination.base import (
    DEFAULT_LEASE, Delete, Entry, Get, Grant, List, Lock, Move, Op, Put, Session, Unlock)
from repro.coordination.entries import Holder
from repro.coordination.replication import ReplicatedStateMachine
from repro.simenv.environment import Simulation
from repro.simenv.latency import LatencyModel


class DepSpaceCoordination:
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
        """Open a session for ``principal``; ephemeral state binds to it."""
        return Session(f"session-{principal.name}-{next(self._session_ids):06d}",
                       principal, lease_seconds)

    def renew_session(self, session: Session) -> None:
        """Heartbeat: one empty command, background work (any command renews)."""
        # The agent's heartbeat thread sends it: nobody waits for a heartbeat.
        with self.sim.background():
            self.multi((), session)

    def close_session(self, session: Session) -> None:
        """Close the session: one command returning every lock the session holds."""
        self.rsm.invoke("close_session", session.session_id, session.principal.name,
                        self.sim.now())

    # -- entries: one-step commands ---------------------------------------------

    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None,
            grants: Mapping[str, Permission] | None = None) -> Entry:
        """Create or update the entry under ``key`` (one replicated command).

        When ``expected_version`` is given the update only succeeds if the
        current version matches (compare-and-swap) — ``0`` meaning "the entry
        must not exist" (insert-if-absent);
        :class:`~repro.common.errors.ConflictError` is raised otherwise, and
        when the entry's ACL denies the session's principal WRITE.  A refused
        version check carries what it met: ``ConflictError.found`` is the
        entry under ``key`` when the principal may READ it, else ``None`` — the
        refusal answers the read a caller would otherwise send next.

        An entry this put creates starts with ``grants`` on its ACL (as
        :meth:`set_entry_acl` would set them, in the same command); an update
        keeps the ACL the entry has.  A put over a file's tombstone (a JSON
        value whose ``deleted`` is true) creates the entry anew: the caller
        owns it, with ``grants``, and the version keeps growing.
        """
        return self._one(Put(key, value, expected_version, grants), session)

    def get(self, key: str, session: Session) -> Entry:
        """Return the entry under ``key`` or raise ``TupleNotFoundError``."""
        return self._one(Get(key), session)

    def delete(self, key: str, session: Session) -> None:
        """Remove the entry under ``key`` (idempotent)."""
        self.multi([Delete(key)], session)

    def list_entries(self, prefix: str, session: Session) -> list[Entry]:
        """Entries under ``prefix`` the session principal may read, whole, sorted by key."""
        return self.multi([List(prefix)], session)[0]

    def list_prefix(self, prefix: str, session: Session) -> list[str]:
        """List keys starting with ``prefix`` readable by the session principal."""
        return [entry.key for entry in self.list_entries(prefix, session)]

    def move(self, key: str, new_key: str, fields: Mapping[str, Any] | None, session: Session,
             expected_version: int | None = None, target_version: int = 0) -> Entry:
        """Move the entry under ``key`` to ``new_key``, setting ``fields`` in its JSON object.

        One replicated command; owner and ACL travel with the entry, and
        ``fields`` (None: none) merge into the stored value as an ``Update``'s
        do.  ``expected_version`` guards the
        source, ``target_version`` says what ``new_key`` must hold (0:
        nothing).  Raises ``TupleNotFoundError`` without a source (a file's
        tombstone is none unless ``expected_version`` names it),
        ``ConflictError`` on a version mismatch or on fields for a value that
        is no JSON object, and :class:`~repro.common.errors.EntryDeniedError`
        when WRITE is denied on either key.
        """
        return self._one(Move(key, new_key, fields, expected_version, target_version), session)

    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        """Grant ``permission`` on ``key`` to ``user`` (owner only)."""
        self.multi([Grant(key, user, permission)], session)

    def _one(self, op: Get | Put | Move, session: Session) -> Entry:
        """The entry the one-step :meth:`multi` of ``op`` answers (``TupleNotFoundError``: none)."""
        entry = self.multi([op], session)[0]
        if entry is None:
            raise TupleNotFoundError(f"no entry under key {op[0]!r}")
        return entry

    # -- several steps, one round trip -----------------------------------------

    def multi(self, ops: Sequence[Op], session: Session) -> list[Any]:
        """Apply ``ops`` all or nothing, as one replicated command.

        Every step is checked before any is applied: a :class:`Lock` whose name
        is held raises :class:`~repro.common.errors.LockHeldError` (its
        ``lock`` attribute names it), as does a :class:`LockFile` whose file's
        lock another session holds; a :class:`Put` whose ``expected_version``
        mismatches or whose entry denies WRITE — or an :class:`Update` whose
        entry also is gone or names another file — raises ``ConflictError``, a
        :class:`Get` that is denied READ raises ``ConflictError``, and a
        :class:`Delete`, :class:`Grant` or :class:`Move` is checked as
        :meth:`delete`, :meth:`set_entry_acl` or :meth:`move` is — and then
        nothing has changed.  A refused version check or ``Update`` carries
        ``found`` as in :meth:`put`; a denied access is an
        :class:`~repro.common.errors.EntryDeniedError`.  Returns one result
        per step: the entry for a ``Get`` (``None`` when absent), ``Put``,
        ``Update`` and ``Move`` (the moved entry), the entries of a ``List``,
        the name a ``LockFile`` took (``None``: none), ``None`` for the
        others.  A command may change each key and each lock at most once; a
        ``Move`` changes both its keys.
        """
        now = self.sim.now()
        holder = Holder(session.session_id, now + session.lease_seconds)
        return self.rsm.invoke("entry_multi", tuple(ops), session.principal.name, now,
                               holder=holder)

    # -- locking ------------------------------------------------------------

    def try_lock(self, name: str, session: Session) -> bool:
        """Attempt to acquire the ephemeral lock ``name``; False if already held.

        The one-step case of :meth:`multi`.
        """
        try:
            self.multi([Lock(name)], session)
        except LockHeldError:
            return False
        return True

    def unlock(self, name: str, session: Session) -> None:
        """Release the lock ``name`` if this session holds it (one-step :meth:`multi`).

        A lock that expired or that someone else holds by now is left alone:
        both are benign for an unlock.
        """
        self.multi([Unlock(name)], session)

    # -- introspection ------------------------------------------------------

    def entry_count(self) -> int:
        """Number of entries currently stored (capacity planning, Figure 11a)."""
        return self.rsm.reference_replica().entry_count()
