"""Version records: what DepSky knows about one written version of a data unit.

Each data unit keeps, *in every cloud*, one small *head* object — the
serialised :class:`VersionRecord` of the latest version: its number, the digest
of the plaintext, the digest of each stored block, the payload size and the
writing principal.  It is constant-size: a write replaces it, never grows it.
Older versions are found without it — their blocks carry ``(version, digest)``
in their names (a LIST enumerates them) and the SCFS consistency anchor keeps
each version's :meth:`~VersionRecord.locator` (§3.2's ``read_matching(hash)``).
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import dataclass

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
    clouds: their propagation to readers runs from it.  A record recovered
    from a LIST (:meth:`DepSkyClient.list_versions`) has no ``block_digests``
    and no ``writer``, and its ``size`` is the bytes its blocks occupy.
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
        does not consult the clouds' (eventually consistent) head object.
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
            block_digests=tuple(str(digest) for digest in raw["block_digests"]),
            created_at=float(raw["created_at"]),
            writer=str(raw["writer"]),
        )

    def to_bytes(self) -> bytes:
        """Serialise the record as a data unit's head object."""
        return json.dumps(self.to_dict(), sort_keys=True).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "VersionRecord":
        """Parse a head object read from a cloud.

        Raises ``ValueError`` if the blob is not a version record (e.g.
        returned by a Byzantine provider).
        """
        try:
            return VersionRecord.from_dict(json.loads(blob.decode()))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed data-unit head: {exc}") from exc
