"""Small value objects shared between subsystems."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


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

    def with_canonical_id(self, provider: str, ident: str) -> "Principal":
        """Return a copy of this principal with one extra provider mapping."""
        mapping = tuple(p for p in self.canonical_ids if p[0] != provider)
        return Principal(self.name, (*mapping, (provider, ident)))


@dataclass(frozen=True)
class ObjectRef:
    """Reference to an immutable object version stored in a cloud backend.

    ``key`` is the opaque identifier referencing the file in the storage
    service and ``digest`` the collision-resistant hash of its contents —
    together they are exactly the ``(id, hash)`` pair the consistency-anchor
    algorithm of Figure 3 stores in the coordination service.  ``created_at``
    (simulated seconds) supports the age-based garbage-collection policies.

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

    @property
    def versioned_key(self) -> str:
        """The per-version cloud key (``id | hash`` in the paper's notation)."""
        return f"{self.key}#{self.digest}"


_counter = itertools.count()


def fresh_id(prefix: str = "obj") -> str:
    """Return a process-unique identifier with the given prefix.

    Used for file object ids, lock session ids and benchmark file names.  The
    counter is process-global which keeps ids unique across simulations in a
    single test run.
    """
    return f"{prefix}-{next(_counter):08d}"
