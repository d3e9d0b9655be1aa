"""Provider-agnostic object-store interface.

This is the only contract SCFS needs from a storage cloud (§2.1,
service-agnosticism): on-demand object put/get/delete/list plus basic ACLs.
Consistency of the store may be as weak as *eventual* — SCFS strengthens it
with the consistency-anchor algorithm (§2.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.common.types import Permission, Principal


@dataclass(frozen=True)
class ObjectVersion:
    """Metadata of one stored object version, as :meth:`ObjectStore.head` and
    the entries of a LIST return it (a listing leaves ``digest`` empty when the
    provider has not computed it)."""

    key: str
    size: int
    created_at: float
    digest: str


@dataclass
class ObjectListing:
    """Result of a LIST request: one entry per visible key, in key order."""

    entries: list[ObjectVersion] = field(default_factory=list)

    @property
    def keys(self) -> list[str]:
        """The listed keys."""
        return [entry.key for entry in self.entries]

    @property
    def total_bytes(self) -> int:
        """Bytes stored under the listed keys."""
        return sum(entry.size for entry in self.entries)


class ObjectStore(abc.ABC):
    """Abstract object store offering put/get/delete/list and per-object ACLs.

    All operations take the acting :class:`Principal`; implementations enforce
    the per-object ACL using that principal's canonical identifier at this
    provider, mirroring how SCFS relies on the clouds' own access control
    rather than on the agent (§2.6).
    """

    #: Provider name, e.g. ``"amazon-s3"``; used for canonical-id lookup,
    #: pricing attribution and reporting.
    name: str = "abstract"

    @abc.abstractmethod
    def put(self, key: str, data: bytes, principal: Principal) -> ObjectVersion:
        """Store ``data`` under ``key`` and return the resulting version metadata."""

    @abc.abstractmethod
    def get(self, key: str, principal: Principal) -> bytes:
        """Return the payload stored under ``key``.

        Raises :class:`~repro.common.errors.ObjectNotFoundError` if the key
        does not exist *or is not yet visible* to readers (eventual
        consistency).
        """

    @abc.abstractmethod
    def head(self, key: str, principal: Principal) -> ObjectVersion:
        """Return the metadata of the object stored under ``key`` without its payload."""

    @abc.abstractmethod
    def delete(self, key: str, principal: Principal) -> None:
        """Delete the object stored under ``key`` (idempotent)."""

    @abc.abstractmethod
    def list_keys(self, prefix: str, principal: Principal) -> ObjectListing:
        """List visible keys starting with ``prefix`` that ``principal`` may read."""

    @abc.abstractmethod
    def exists(self, key: str, principal: Principal) -> bool:
        """True if ``key`` is currently visible to ``principal``."""

    @abc.abstractmethod
    def set_acl(self, key: str, grantee_canonical_id: str, permission: Permission,
                principal: Principal) -> None:
        """Grant ``permission`` on ``key`` to ``grantee_canonical_id`` (owner only)."""

    @abc.abstractmethod
    def get_acl(self, key: str, principal: Principal) -> dict[str, Permission]:
        """Return the grants of ``key`` (owner excluded)."""
