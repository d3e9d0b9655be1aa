"""Cryptographic and coding substrate used by the DepSky cloud-of-clouds backend.

Everything here is implemented from scratch on top of the Python standard
library and numpy, because the execution environment provides no third-party
cryptography package:

* :mod:`~repro.crypto.hashing` — collision-resistant content digests (the
  ``Hash(v)`` of the consistency-anchor algorithm, Figure 3);
* :mod:`~repro.crypto.gf256` — arithmetic in GF(2^8), shared by the erasure
  code and the secret-sharing scheme;
* :mod:`~repro.crypto.erasure` — systematic Reed–Solomon erasure coding
  (DepSky stores ``k = f+1`` of ``n = 3f+1`` blocks per cloud, Figure 6);
* :mod:`~repro.crypto.secret_sharing` — Shamir secret sharing of the random
  file-encryption key (Figure 6, step 4);
* :mod:`~repro.crypto.cipher` — an authenticated stream cipher used to encrypt
  file data before it leaves the client (Figure 6, step 2).

The cipher is *not* meant to be production-grade cryptography; it is a
faithful stand-in that exercises the same code paths (keys, confidentiality,
integrity tags) with deterministic, dependency-free primitives.
"""
