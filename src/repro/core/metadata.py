"""File-system metadata tuples.

Each file system object is represented in the coordination service by a
metadata tuple containing: the object name, its type (file, directory or
link), its parent object, the object metadata (size, dates, owner, ACLs…), an
opaque identifier referencing the file in the storage service and the
collision-resistant hash of the current version of the file's contents
(§2.5.1).  The last two fields are exactly the ``(id, hash)`` pair the
consistency anchor stores (Figure 3); the storage backend's locator of that
version (:attr:`~repro.common.types.ObjectRef.locator`) rides with them.

Metadata is serialised to JSON; a populated tuple is on the order of 1 KB,
matching the capacity estimates of §2.7 and Figure 11(a).
"""

from __future__ import annotations

import enum
import json
import posixpath
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from repro.common.errors import FileSystemError
from repro.common.types import ACL, Permission

#: The fields a new data version sets: what a close or a transaction owns of a tuple.
DATA_FIELDS = ("size", "modified_at", "digest", "data_version", "locator")


class FileType(enum.Enum):
    """Type of a file-system object."""

    FILE = "file"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


def normalize_path(path: str) -> str:
    """Return the canonical absolute form of ``path`` (always starts with '/')."""
    if not path:
        raise FileSystemError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    normalized = posixpath.normpath(path)
    return "/" if normalized in ("", "//", ".") else normalized


def parent_path(path: str) -> str:
    """Parent directory of ``path`` ('/' is its own parent)."""
    path = normalize_path(path)
    if path == "/":
        return "/"
    return posixpath.dirname(path) or "/"


def basename(path: str) -> str:
    """Final component of ``path`` (empty string for the root)."""
    return posixpath.basename(normalize_path(path))


@dataclass
class FileMetadata:
    """The metadata tuple of one file-system object."""

    path: str
    file_type: FileType
    owner: str
    size: int = 0
    created_at: float = 0.0
    modified_at: float = 0.0
    #: Opaque identifier of the object in the storage service (the ``id`` of Figure 3).
    file_id: str = ""
    #: Collision-resistant hash of the current version (the ``hash`` of Figure 3).
    digest: str = ""
    #: Data version counter (bumped on every completed close-with-modification).
    data_version: int = 0
    #: Access grants beyond the owner: user name -> permission.
    grants: dict[str, Permission] = field(default_factory=dict)
    #: Symlink target (only for FileType.SYMLINK).
    link_target: str = ""
    #: Files removed by the user are only marked deleted; the garbage collector
    #: erases them later (§2.5.3), which also enables undelete-style recovery.
    deleted: bool = False
    #: The backend's locator of the version ``digest`` names (empty: none minted).
    locator: str = ""

    def __post_init__(self) -> None:
        self.path = normalize_path(self.path)

    # ------------------------------------------------------------------ sugar

    @property
    def name(self) -> str:
        """Object name (final path component)."""
        return basename(self.path)

    @property
    def parent(self) -> str:
        """Path of the parent directory."""
        return parent_path(self.path)

    @property
    def is_directory(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.file_type is FileType.FILE

    @property
    def is_shared(self) -> bool:
        """True when at least one other user has been granted access (§2.7)."""
        return bool(self.grants)

    def allows(self, user: str, permission: Permission) -> bool:
        """True if ``user`` may perform ``permission`` on this object (:meth:`ACL.allows`)."""
        return ACL(self.owner, self.grants).allows(user, permission)

    def grant(self, user: str, permission: Permission) -> None:
        """Grant (or revoke, with ``Permission.NONE``) access to ``user``."""
        self.grants = dict(ACL(self.owner, self.grants).with_grant(user, permission).grants)

    def touch(self, now: float, size: int | None = None) -> None:
        """Update the modification time (and optionally the size)."""
        self.modified_at = now
        if size is not None:
            self.size = size

    def point_at(self, digest: str, size: int, locator: str = "") -> None:
        """Reference another data version: hash, size and locator move together.

        A locator describes one version only, so a new hash without its
        locator (a version not uploaded yet) must drop the old one.
        """
        self.digest = digest
        self.size = size
        self.locator = locator

    def renamed(self, new_path: str) -> "FileMetadata":
        """Return a copy of this metadata under a new path."""
        clone = replace(self, path=normalize_path(new_path))
        clone.grants = dict(self.grants)
        return clone

    # -------------------------------------------------------------- serialise

    def fields(self, names: Iterable[str] | None = None) -> dict[str, Any]:
        """The tuple's fields as stored: ``names``, or all but an empty locator (a size alone)."""
        stored = {
            "path": self.path,
            "type": self.file_type.value,
            "owner": self.owner,
            "size": self.size,
            "created_at": self.created_at,
            "modified_at": self.modified_at,
            "file_id": self.file_id,
            "digest": self.digest,
            "data_version": self.data_version,
            "grants": {u: p.value for u, p in self.grants.items()},
            "link_target": self.link_target,
            "deleted": self.deleted,
            "locator": self.locator,
        }
        if names is None:
            return {name: value for name, value in stored.items() if name != "locator" or value}
        return {name: stored[name] for name in names}

    def to_bytes(self) -> bytes:
        """Serialise to the ~1 KB JSON blob stored in the coordination service."""
        return json.dumps(self.fields(), sort_keys=True).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "FileMetadata":
        """Parse a blob produced by :meth:`to_bytes`."""
        return FileMetadata.from_fields(json.loads(blob.decode()))

    @staticmethod
    def from_fields(raw: Mapping[str, Any]) -> "FileMetadata":
        """The tuple whose :meth:`fields` are ``raw``."""
        return FileMetadata(
            path=raw["path"],
            file_type=FileType(raw["type"]),
            owner=raw["owner"],
            size=int(raw["size"]),
            created_at=float(raw["created_at"]),
            modified_at=float(raw["modified_at"]),
            file_id=raw["file_id"],
            digest=raw["digest"],
            locator=raw.get("locator", ""),
            data_version=int(raw["data_version"]),
            grants={u: Permission(v) for u, v in raw.get("grants", {}).items()},
            link_target=raw.get("link_target", ""),
            deleted=bool(raw.get("deleted", False)),
        )

    def copy(self) -> "FileMetadata":
        """Deep-enough copy (grants dict is duplicated)."""
        clone = replace(self)
        clone.grants = dict(self.grants)
        return clone
