"""Collision-resistant digests.

The paper stores a SHA-1 hash of each file version in the metadata tuple; we
use SHA-256 (stronger, equally available in the standard library).  The digest
is the ``hash`` half of the ``(id, hash)`` pair kept in the consistency anchor
(Figure 3) and also names the per-version object in the storage clouds.
"""

from __future__ import annotations

import hashlib
import hmac


def content_digest(data: bytes) -> str:
    """Return the hex digest identifying ``data`` (collision resistant)."""
    return hashlib.sha256(data).hexdigest()


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """Return an HMAC-SHA256 authentication tag of ``data`` under ``key``."""
    return hmac.new(key, data, hashlib.sha256).digest()


def verify_hmac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time verification of an HMAC tag produced by :func:`hmac_digest`."""
    return hmac.compare_digest(hmac_digest(key, data), tag)
