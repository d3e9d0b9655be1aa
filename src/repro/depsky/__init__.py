"""DepSky — dependable and secure storage on a cloud-of-clouds.

SCFS's CoC backend stores file data through the DepSky protocols
[Bessani et al., ACM TOS 2013], summarised in §3.2 and Figure 6 of the SCFS
paper.  A *data unit* is a logical register whose versions are spread across
``n = 3f+1`` independent clouds so that the confidentiality, integrity and
availability of the data survive ``f`` arbitrarily faulty providers:

1. a fresh random key encrypts the data;
2. the ciphertext is erasure-coded into ``n`` blocks, any ``k = f+1`` of which
   rebuild it;
3. the key is split with secret sharing so that no single cloud can decrypt;
4. each cloud stores one block + one key share, plus a copy of the data unit's
   head (the latest version's record).

The SCFS paper extends DepSky with an operation that reads *the version with a
given hash* rather than the latest one — the hook the consistency-anchor
algorithm needs (§2.4).  That extension is :meth:`DepSkyClient.read_matching`.
"""
