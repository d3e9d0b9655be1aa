"""Small value objects shared between subsystems."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping


class Permission(enum.Flag):
    """Access permissions used by SCFS ACLs and by the simulated clouds.

    SCFS (§2.6) replaces classic Unix modes by ACLs; the only rights that
    matter for a cloud-backed file system are read and write.
    """

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


@dataclass(frozen=True)
class ACL:
    """Who may do what with one cloud object, coordination entry or file: the one access rule.

    ``owner`` has every permission; anyone else holds what ``grants`` gives
    them or the pseudo-user ``"*"`` (any authenticated user, as in the
    world-shared file pools and the per-user registry entries, §2.6).  A
    bucket policy is an ACL with no owner.  The value never changes —
    :meth:`with_grant` returns a new one — so one ACL may back many entries.
    """

    owner: str | None = None
    grants: Mapping[str, Permission] = field(default_factory=dict)

    def allows(self, who: str, permission: Permission) -> bool:
        """True if ``who`` holds ``permission``."""
        if who == self.owner:
            return True
        granted = self.grants.get(who, Permission.NONE) | self.grants.get("*", Permission.NONE)
        return (granted & permission) == permission

    def with_grant(self, who: str, permission: Permission) -> "ACL":
        """This ACL with ``who``'s grant set to ``permission`` (``Permission.NONE`` revokes)."""
        grants = dict(self.grants)
        if permission is Permission.NONE:
            grants.pop(who, None)
        else:
            grants[who] = permission
        return ACL(self.owner, grants)


@dataclass(frozen=True)
class Principal:
    """A user of the system.

    Each SCFS user owns separate accounts in each cloud provider; the mapping
    from the SCFS user name to per-provider *canonical identifiers* is kept in
    the coordination service (§2.6).  ``canonical_ids`` maps provider name to
    the identifier the provider knows the user by.
    """

    name: str
    canonical_ids: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def canonical_id(self, provider: str) -> str:
        """Return the canonical id of this user at ``provider``.

        Falls back to ``name`` when no explicit mapping was registered, which
        keeps single-cloud test setups terse.
        """
        for prov, ident in self.canonical_ids:
            if prov == provider:
                return ident
        return self.name


@dataclass(frozen=True)
class ObjectRef:
    """Reference to an immutable object version stored in a cloud backend.

    ``key`` is the opaque identifier referencing the file in the storage
    service and ``digest`` the collision-resistant hash of its contents —
    together they are exactly the ``(id, hash)`` pair the consistency-anchor
    algorithm of Figure 3 stores in the coordination service.  ``created_at``
    (simulated seconds) orders a backend's listed versions, oldest first.

    ``locator`` travels with the pair: an opaque string minted by the backend
    that wrote the version, telling a reader of the same backend where the
    version's bytes are and from when they are readable — so the read needs no
    lookup in the (eventually consistent) storage service.  Empty when the
    backend minted none; only the minting backend interprets it.
    """

    key: str
    digest: str
    size: int = 0
    created_at: float = 0.0
    locator: str = ""
