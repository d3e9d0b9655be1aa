"""What the SCFS Agent asks of the coordination service, and the steps it sends.

The agent needs surprisingly little from the coordination service (§2.3):

* linearizable storage of *small* entries (metadata tuples of ~1 KB);
* versioned conditional updates (to detect concurrent metadata changes);
* ephemeral entries bound to a client session (for locks that disappear if
  the client crashes);
* per-entry access control (the agent is untrusted, §2.6).

This module holds what a command is made of — entries, sessions and the
steps of a ``multi`` — and :mod:`repro.coordination.adapters` the client of
a replicated DepSpace that sends them (the paper's "simple wrapper", §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Union

from repro.common.types import ACL, Permission, Principal


#: Default lease of ephemeral state (locks, sessions): long enough for any one
#: file-system operation, short enough that a crashed client's locks lapse soon.
DEFAULT_LEASE = 30.0


@dataclass(frozen=True)
class Entry:
    """A small, versioned entry stored in the coordination service."""

    key: str
    value: bytes
    version: int
    #: Who may read and change the entry; its owner is the principal that created it.
    acl: ACL


@dataclass(frozen=True)
class Session:
    """A client session: the id an agent's locks carry.

    A lock the session takes lapses ``lease_seconds`` after the command that
    took it, and no later command extends it, so a crashed agent's locks are
    released without it.
    """

    session_id: str
    principal: Principal
    lease_seconds: float


#: Prefix of the lock that guards one file for writing.
FILE_LOCK_PREFIX = "filelock:"


def file_lock(file_id: str) -> str:
    """Name of the write lock of the file ``file_id``: the one rule, for clients and replicas."""
    return FILE_LOCK_PREFIX + file_id


class Lock(NamedTuple):
    """Multi-command step: take the ephemeral lock ``name`` for the session."""

    name: str


class LockFile(NamedTuple):
    """Multi-command step: take the lock of the file the entry under ``key`` names.

    The replica reads the name off the stored entry, :func:`file_lock` of its
    ``file_id``, and takes it when the entry is a live file the caller may
    WRITE; anything else takes nothing.
    """

    key: str


class Unlock(NamedTuple):
    """Multi-command step: return ``name`` if the session holds it (else nothing)."""

    name: str


class Get(NamedTuple):
    """Multi-command step: read the entry under ``key`` (``None`` when absent)."""

    key: str


class List(NamedTuple):
    """Multi-command step: every entry under ``prefix`` the caller may READ, sorted by key."""

    prefix: str


class Put(NamedTuple):
    """Multi-command step: create or update ``key`` (``expected_version`` and ``grants`` as in ``put``)."""

    key: str
    value: bytes
    expected_version: int | None = None
    grants: Mapping[str, Permission] | None = None


class Update(NamedTuple):
    """Multi-command step: set ``fields`` in the JSON object under ``key`` while it names ``file_id``."""

    key: str
    file_id: str
    fields: Mapping[str, Any]
    expected_version: int | None = None


class Delete(NamedTuple):
    """Multi-command step: remove ``key`` (nothing when absent; WRITE needed when present).

    With ``directory`` (an ``rmdir``) it must be a directory with nothing live below it.
    """

    key: str
    directory: bool = False


class Grant(NamedTuple):
    """Multi-command step: set ``user``'s grant on ``key`` (``Permission.NONE``: revoke); owner only."""

    key: str
    user: str
    permission: Permission


class Move(NamedTuple):
    """Multi-command step: move ``key`` (a directory with all below it) to ``new_key``, setting ``fields``.

    ``target_version`` says what ``new_key`` must hold (0: nothing).
    """

    key: str
    new_key: str
    fields: Mapping[str, Any] | None = None
    target_version: int = 0


class Unheld(NamedTuple):
    """Multi-command step: refuse while another session locks a live file at or below ``key`` (takes none)."""

    key: str


class Check(NamedTuple):
    """Multi-command step: refuse unless the caller may read ``key`` and it is at ``version`` (changes none)."""

    key: str
    version: int


#: One step of :meth:`~repro.coordination.adapters.DepSpaceCoordination.multi`.
Op = Union[Lock, LockFile, Unlock, Unheld, Check, Get, List, Put, Update, Delete, Grant, Move]
