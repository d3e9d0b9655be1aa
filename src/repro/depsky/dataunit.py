"""Version records: what DepSky knows about one written version of a data unit.

Each data unit keeps, *in every cloud*, one small *head* object — the
encoded :class:`VersionRecord` of the latest version: its number, the digest
of the plaintext, the digest of each stored block, the payload size and the
instant its blocks were dispatched.  A head is the version's binary locator
followed by the raw plaintext digest: 26 + 32·n + 32 bytes (186 B at n = 4),
whatever the version — a write replaces it, never grows it.  Older versions
are found without it — their blocks carry ``(version, digest)`` in their names
(a LIST enumerates them) and the SCFS consistency anchor keeps each version's
:meth:`~VersionRecord.locator` (§3.2's ``read_matching(hash)``).
"""

from __future__ import annotations

import base64
import math
import struct
from dataclasses import dataclass

from repro.common.errors import IntegrityError

#: Head of a version locator: format tag, version number, payload size, block
#: dispatch instant, number of block digests; the raw digests follow.
_LOCATOR_HEAD = struct.Struct(">BQQdB")
_LOCATOR_FORMAT = 1
_DIGEST_BYTES = 32


def _raw_digest(digest: str) -> bytes:
    """The 32 bytes a hex digest spells; ``ValueError`` for anything else."""
    raw = bytes.fromhex(digest)
    if len(raw) != _DIGEST_BYTES:
        raise ValueError(f"not a {_DIGEST_BYTES}-byte digest: {digest!r}")
    return raw


@dataclass(frozen=True)
class VersionRecord:
    """Metadata of one written version of a data unit.

    ``created_at`` is the instant the version's blocks were dispatched to the
    clouds: their propagation to readers runs from it.  A record recovered
    from a LIST (:meth:`DepSkyClient.list_versions`) has no ``block_digests``,
    and its ``size`` is the bytes its blocks occupy.
    """

    version: int
    data_digest: str
    size: int
    block_digests: tuple[str, ...]
    created_at: float

    def _pack(self) -> bytes:
        """The raw locator: :data:`_LOCATOR_HEAD` ‖ the raw block digests."""
        head = _LOCATOR_HEAD.pack(_LOCATOR_FORMAT, self.version, self.size,
                                  self.created_at, len(self.block_digests))
        return head + b"".join(_raw_digest(digest) for digest in self.block_digests)

    @staticmethod
    def _unpack(raw: bytes, data_digest: str) -> "VersionRecord":
        """Parse :meth:`_pack` output, exactly; ``ValueError`` for anything else."""
        try:
            tag, version, size, created_at, count = _LOCATOR_HEAD.unpack_from(raw)
        except struct.error as exc:
            raise ValueError(f"short version locator: {exc}") from exc
        digests = raw[_LOCATOR_HEAD.size:]
        if (tag != _LOCATOR_FORMAT or len(digests) != count * _DIGEST_BYTES
                or not math.isfinite(created_at)):
            raise ValueError("malformed version locator")
        return VersionRecord(
            version=version, data_digest=data_digest, size=size,
            block_digests=tuple(digests[i:i + _DIGEST_BYTES].hex()
                                for i in range(0, len(digests), _DIGEST_BYTES)),
            created_at=created_at,
        )

    def locator(self) -> str:
        """Everything a reader holding ``data_digest`` needs to fetch this version.

        The version number names the block objects, the block digests verify
        them and the dispatch instant says from when they are visible.  SCFS
        anchors this string beside the hash, so a read of the anchored version
        does not consult the clouds' (eventually consistent) head object.
        """
        return base64.urlsafe_b64encode(self._pack()).decode("ascii")

    @staticmethod
    def from_locator(locator: str, data_digest: str) -> "VersionRecord":
        """The record :meth:`locator` was taken from, given the anchored hash.

        Raises :class:`~repro.common.errors.IntegrityError` for anything that
        is not a well-formed locator: a reader must never fetch blocks it has
        no digest to check against.
        """
        try:
            raw = base64.b64decode(locator, altchars=b"-_", validate=True)
            return VersionRecord._unpack(raw, data_digest)
        except ValueError as exc:
            raise IntegrityError(f"malformed version locator: {exc}") from exc

    def to_bytes(self) -> bytes:
        """Encode the record as a data unit's head object: raw locator ‖ raw data digest."""
        return self._pack() + _raw_digest(self.data_digest)

    @staticmethod
    def from_bytes(blob: bytes) -> "VersionRecord":
        """Parse a head object read from a cloud.

        Raises ``ValueError`` if the blob is not exactly an encoded record
        (e.g. garbage, or a truncated or extended copy returned by a
        Byzantine provider).
        """
        try:
            return VersionRecord._unpack(blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:].hex())
        except ValueError as exc:
            raise ValueError(f"malformed data-unit head: {exc}") from exc
