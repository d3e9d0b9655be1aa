"""Shamir secret sharing over GF(2^8).

DepSky (Figure 6, step 4) splits the random file-encryption key into ``n``
shares such that any ``t`` of them recover the key but fewer reveal nothing.
Shares are computed byte-wise: for each byte of the secret a random polynomial
of degree ``t - 1`` is evaluated at the share's x-coordinate.

Polynomial evaluation and Lagrange interpolation are vectorised across all
secret bytes at once with ``MUL_TABLE`` gathers (one ``(len(secret), t)``
gather per share), so splitting a 32-byte key costs a handful of numpy calls
instead of ``n * t * len(secret)`` Python-level field multiplications.  The
random coefficients are still drawn one byte at a time so a seeded simulation
RNG produces the same shares as earlier scalar versions.
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
    shares = []
    for x in range(1, n + 1):
        x_powers = np.array([gf256.gf_pow(x, power) for power in range(t)], dtype=np.uint8)
        values = np.bitwise_xor.reduce(
            gf256.MUL_TABLE[x_powers[None, :], coefficients], axis=1
        )
        shares.append(SecretShare(x=x, data=values.tobytes()))
    return shares


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
    # Lagrange basis coefficients evaluated at x = 0 (tiny, stays scalar).
    coefficients = []
    for i, share_i in enumerate(chosen):
        numerator, denominator = 1, 1
        for j, share_j in enumerate(chosen):
            if i == j:
                continue
            numerator = gf256.gf_mul(numerator, share_j.x)
            denominator = gf256.gf_mul(denominator, share_i.x ^ share_j.x)
        coefficients.append(gf256.gf_div(numerator, denominator))
    secret = np.zeros(secret_len, dtype=np.uint8)
    for coeff, share in zip(coefficients, chosen, strict=True):
        secret ^= gf256.mul_block(coeff, np.frombuffer(share.data, dtype=np.uint8))
    return secret.tobytes()
