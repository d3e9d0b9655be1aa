"""Shamir secret sharing over GF(2^8).

DepSky (Figure 6, step 4) splits the random file-encryption key into ``n``
shares such that any ``t`` of them recover the key but fewer reveal nothing.
Shares are computed byte-wise: for each byte of the secret a random polynomial
of degree ``t - 1`` is evaluated at the share's x-coordinate.

Both directions are one GF(256) matrix product (:func:`gf256.matmul`) across
all secret bytes at once: splitting evaluates every polynomial at every
share's x-coordinate (the Vandermonde matrix times the coefficients), and
combining multiplies the shares by the Lagrange-at-0 vector — row 0 of the
inverse of the chosen shares' Vandermonde rows.  The random coefficients are
drawn one byte at a time, so a seeded simulation RNG produces the same shares
as a scalar implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.crypto import gf256


@dataclass(frozen=True)
class SecretShare:
    """One share of a secret: its x-coordinate (> 0) and the share bytes."""

    x: int
    data: bytes


def split_secret(secret: bytes, n: int, t: int, rng: random.Random) -> list[SecretShare]:
    """Split ``secret`` into ``n`` shares, any ``t`` of which reconstruct it.

    Parameters
    ----------
    secret:
        The secret bytes (e.g. a 32-byte file-encryption key).
    n:
        Number of shares to produce (at most 255).
    t:
        Threshold; ``1 <= t <= n``.
    rng:
        Source of randomness for the polynomial coefficients (DepSky threads
        the simulation RNG through, which keeps runs deterministic).
    """
    if not 1 <= t <= n <= 255:
        raise ValueError(f"invalid secret-sharing parameters n={n}, t={t}")
    # One random polynomial per secret byte; coefficient 0 is the secret byte.
    coefficients = np.array(
        [[byte, *(rng.randrange(256) for _ in range(t - 1))] for byte in secret],
        dtype=np.uint8,
    ).reshape(len(secret), t)
    values = gf256.matmul(gf256.vandermonde(n, t), coefficients.T)
    return [SecretShare(x=x, data=values[x - 1].tobytes()) for x in range(1, n + 1)]


def combine_secret(shares: list[SecretShare], t: int) -> bytes:
    """Reconstruct the secret from at least ``t`` distinct shares (Lagrange at x=0)."""
    unique: dict[int, SecretShare] = {}
    for share in shares:
        unique.setdefault(share.x, share)
    if len(unique) < t:
        raise ValueError(f"need at least {t} distinct shares, got {len(unique)}")
    chosen = sorted(unique.values(), key=lambda s: s.x)[:t]
    lengths = {len(s.data) for s in chosen}
    if len(lengths) != 1:
        raise ValueError("shares have inconsistent lengths")
    (secret_len,) = lengths
    rows = gf256.vandermonde(chosen[-1].x, t)[[share.x - 1 for share in chosen]]
    lagrange = gf256.invert_matrix(rows)[:1]
    data = np.frombuffer(b"".join(share.data for share in chosen),
                         dtype=np.uint8).reshape(t, secret_len)
    return gf256.matmul(lagrange, data)[0].tobytes()
