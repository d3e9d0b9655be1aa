"""Data-unit metadata stored (replicated) in every cloud.

Each DepSky data unit keeps, *in every cloud*, a small metadata object listing
the versions written so far: version number, digest of the plaintext, digest of
each coded block, the payload size and the writing principal.  The hashes of
all versions being present in this metadata object is what allows the SCFS
extension ``read_matching(hash)`` to locate an arbitrary version (§3.2).
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import dataclass, field

from repro.common.errors import IntegrityError

#: Head of a version locator: format tag, version number, payload size, block
#: dispatch instant, number of block digests; the raw digests follow.
_LOCATOR_HEAD = struct.Struct(">BQQdB")
_LOCATOR_FORMAT = 1
_DIGEST_BYTES = 32


@dataclass(frozen=True)
class VersionRecord:
    """Metadata of one written version of a data unit.

    ``created_at`` is the instant the version's blocks were dispatched to the
    clouds: their propagation to readers runs from it.
    """

    version: int
    data_digest: str
    size: int
    block_digests: tuple[str, ...]
    created_at: float
    writer: str

    def locator(self) -> str:
        """Everything a reader holding ``data_digest`` needs to fetch this version.

        The version number names the block objects, the block digests verify
        them and the dispatch instant says from when they are visible.  SCFS
        anchors this string beside the hash, so a read of the anchored version
        does not consult the clouds' (eventually consistent) metadata object.
        """
        head = _LOCATOR_HEAD.pack(_LOCATOR_FORMAT, self.version, self.size,
                                  self.created_at, len(self.block_digests))
        digests = b"".join(bytes.fromhex(digest) for digest in self.block_digests)
        return base64.urlsafe_b64encode(head + digests).decode("ascii")

    @staticmethod
    def from_locator(locator: str, data_digest: str) -> "VersionRecord":
        """The record :meth:`locator` was taken from, given the anchored hash.

        Raises :class:`~repro.common.errors.IntegrityError` for anything that
        is not a well-formed locator: a reader must never fetch blocks it has
        no digest to check against.
        """
        try:
            raw = base64.b64decode(locator, altchars=b"-_", validate=True)
            tag, version, size, created_at, count = _LOCATOR_HEAD.unpack_from(raw)
        except (ValueError, struct.error) as exc:
            raise IntegrityError(f"malformed version locator: {exc}") from exc
        digests = raw[_LOCATOR_HEAD.size:]
        if (tag != _LOCATOR_FORMAT or len(digests) != count * _DIGEST_BYTES
                or not math.isfinite(created_at)):
            raise IntegrityError("malformed version locator")
        return VersionRecord(
            version=version, data_digest=data_digest, size=size,
            block_digests=tuple(digests[i:i + _DIGEST_BYTES].hex()
                                for i in range(0, len(digests), _DIGEST_BYTES)),
            created_at=created_at, writer="",
        )

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "version": self.version,
            "data_digest": self.data_digest,
            "size": self.size,
            "block_digests": list(self.block_digests),
            "created_at": self.created_at,
            "writer": self.writer,
        }

    @staticmethod
    def from_dict(raw: dict) -> "VersionRecord":
        """Deserialise from :meth:`to_dict` output."""
        return VersionRecord(
            version=int(raw["version"]),
            data_digest=str(raw["data_digest"]),
            size=int(raw["size"]),
            block_digests=tuple(raw["block_digests"]),
            created_at=float(raw["created_at"]),
            writer=str(raw["writer"]),
        )


@dataclass
class DataUnitMetadata:
    """The full version history of one data unit."""

    unit_id: str
    versions: list[VersionRecord] = field(default_factory=list)

    def latest(self) -> VersionRecord | None:
        """The most recent version record, or None for an empty unit."""
        return max(self.versions, key=lambda v: v.version) if self.versions else None

    def find_by_digest(self, digest: str) -> VersionRecord | None:
        """Return the (most recent) version whose plaintext digest is ``digest``."""
        candidates = [v for v in self.versions if v.data_digest == digest]
        return max(candidates, key=lambda v: v.version) if candidates else None

    def find_by_version(self, version: int) -> VersionRecord | None:
        """Return the record with the given version number, if present."""
        for record in self.versions:
            if record.version == version:
                return record
        return None

    def next_version(self) -> int:
        """Version number the next write should use."""
        latest = self.latest()
        return 1 if latest is None else latest.version + 1

    def add(self, record: VersionRecord) -> None:
        """Append a new version record."""
        self.versions.append(record)

    def remove_version(self, version: int) -> bool:
        """Remove the record with the given version number; True if removed."""
        before = len(self.versions)
        self.versions = [v for v in self.versions if v.version != version]
        return len(self.versions) != before

    def to_bytes(self) -> bytes:
        """Serialise the metadata object for storage in a cloud."""
        return json.dumps(
            {"unit_id": self.unit_id, "versions": [v.to_dict() for v in self.versions]},
            sort_keys=True,
        ).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "DataUnitMetadata":
        """Parse a metadata object read from a cloud.

        Raises ``ValueError`` if the blob is not valid metadata (e.g. returned
        by a Byzantine provider).
        """
        try:
            raw = json.loads(blob.decode())
            return DataUnitMetadata(
                unit_id=str(raw["unit_id"]),
                versions=[VersionRecord.from_dict(v) for v in raw["versions"]],
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed data-unit metadata: {exc}") from exc
