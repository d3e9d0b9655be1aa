"""Authenticated symmetric encryption of file data.

Before a file leaves the client, DepSky encrypts it with a fresh random key
(Figure 6, steps 1–2).  The execution environment offers no AES
implementation, so we build an authenticated stream cipher from primitives in
the standard library:

* a keystream derived from SHAKE-256 over key ‖ nonce;
* an HMAC-SHA256 tag over nonce ‖ ciphertext (encrypt-then-MAC).

This is sufficient for the reproduction's goals (confidentiality from any
single cloud, integrity verification on read) while remaining dependency-free
and deterministic under a seeded RNG.

The write hot path uses :meth:`SymmetricCipher.encrypt_into`, which XORs the
keystream into a caller-owned ``uint8`` array (e.g. the erasure coder's
framed payload region) instead of allocating ``bytes`` for the ciphertext,
the concatenated MAC input, and the final blob — the MAC runs incrementally
over ``memoryview``-style buffer slices, so a 16 MiB encrypt performs no
full-payload copy beyond the XOR itself.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random

import numpy as np

from repro.crypto.hashing import verify_hmac

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32


def _random_bytes(rng: random.Random, count: int) -> bytes:
    """``count`` bytes from ``rng``, byte-stream-compatible with the historic
    per-byte ``rng.randrange(256)`` loop at roughly half the cost.

    CPython's ``randrange(256)`` draws ``getrandbits(9)`` (9 = bit length of
    256) and rejects values >= 256, so issuing the same 9-bit draws directly
    consumes the identical underlying random stream and leaves the RNG in the
    identical state — seeded simulation runs (and their pinned replay
    fingerprints) reproduce the exact same keys and nonces.  A single
    ``getrandbits(8 * count)`` call would be faster still but consumes the
    stream differently, which would silently re-key every pinned scenario.
    """
    out = bytearray()
    getrandbits = rng.getrandbits
    append = out.append
    while len(out) < count:
        value = getrandbits(9)
        if value < 256:
            append(value)
    return bytes(out)


def generate_key(rng: random.Random) -> bytes:
    """Generate a fresh :data:`KEY_SIZE`-byte symmetric key from ``rng``.

    The key is derived deterministically — via :func:`_random_bytes`, which
    preserves the historic ``randrange``-per-byte stream consumption — keeping
    whole-simulation runs reproducible.
    """
    return _random_bytes(rng, KEY_SIZE)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Derive a ``length``-byte keystream from key ‖ nonce with SHAKE-256."""
    return hashlib.shake_256(key + nonce).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings (always vectorised).

    ``np.frombuffer`` views the inputs without copying, so even tiny payloads
    are cheaper through numpy than a Python byte loop; the cipher sits on the
    same per-write hot path as the erasure coder (Figure 6, step 2).
    """
    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(stream, dtype=np.uint8)
    return (a ^ b).tobytes()


class SymmetricCipher:
    """Authenticated encryption with a single symmetric key."""

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = key
        # Separate keys for encryption and authentication, derived from the master.
        self._enc_key = hashlib.sha256(b"enc" + key).digest()
        self._mac_key = hashlib.sha256(b"mac" + key).digest()

    def encrypt_into(self, plaintext: bytes, out: np.ndarray,
                     rng: random.Random) -> np.ndarray:
        """Encrypt ``plaintext`` into the caller-owned buffer ``out``.

        ``out`` must be a contiguous 1-D ``uint8`` view of exactly
        ``len(plaintext) + overhead()`` bytes; on return it holds
        nonce ‖ ciphertext ‖ tag — byte-identical to :meth:`encrypt` given
        the same RNG state.  The keystream XOR lands directly in ``out`` and
        the MAC is computed incrementally over the buffer, so no
        ciphertext-sized temporaries are allocated.
        """
        length = len(plaintext)
        if (out.dtype != np.uint8 or out.ndim != 1
                or out.shape[0] != length + NONCE_SIZE + TAG_SIZE
                or not out.flags.c_contiguous):
            raise ValueError(
                f"out must be a contiguous 1-D uint8 view of "
                f"{length + NONCE_SIZE + TAG_SIZE} bytes")
        nonce = _random_bytes(rng, NONCE_SIZE)
        out[:NONCE_SIZE] = np.frombuffer(nonce, dtype=np.uint8)
        ciphertext = out[NONCE_SIZE:NONCE_SIZE + length]
        stream = _keystream(self._enc_key, nonce, length)
        np.bitwise_xor(np.frombuffer(plaintext, dtype=np.uint8),
                       np.frombuffer(stream, dtype=np.uint8), out=ciphertext)
        mac = _hmac.new(self._mac_key, nonce, hashlib.sha256)
        mac.update(ciphertext)  # buffer-protocol view — no concat copy
        out[NONCE_SIZE + length:] = np.frombuffer(mac.digest(), dtype=np.uint8)
        return out

    def encrypt(self, plaintext: bytes, rng: random.Random) -> bytes:
        """Encrypt and authenticate ``plaintext``; returns nonce ‖ ciphertext ‖ tag."""
        out = np.empty(len(plaintext) + NONCE_SIZE + TAG_SIZE, dtype=np.uint8)
        self.encrypt_into(plaintext, out, rng)
        return out.tobytes()

    def decrypt(self, blob: bytes) -> bytes:
        """Verify and decrypt a blob produced by :meth:`encrypt`.

        Raises ``ValueError`` when the authentication tag does not match
        (tampered or truncated data).
        """
        if len(blob) < NONCE_SIZE + TAG_SIZE:
            raise ValueError("ciphertext too short")
        view = memoryview(blob)
        nonce = blob[:NONCE_SIZE]
        ciphertext = view[NONCE_SIZE:-TAG_SIZE]
        tag = blob[-TAG_SIZE:]
        if not verify_hmac(self._mac_key, view[:-TAG_SIZE], tag):
            raise ValueError("authentication tag mismatch (data tampered or wrong key)")
        stream = _keystream(self._enc_key, nonce, len(ciphertext))
        return _xor(ciphertext, stream)

    def overhead(self) -> int:
        """Number of bytes the ciphertext adds over the plaintext."""
        return NONCE_SIZE + TAG_SIZE
