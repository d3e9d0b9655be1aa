"""Systematic Reed–Solomon erasure coding over GF(2^8).

DepSky (Figure 6, step 3) erasure-codes the encrypted file so that each of the
``n = 3f+1`` clouds stores a block of roughly ``1/k`` of the file size, with
``k = f+1`` blocks sufficient to rebuild it.  For the default ``f = 1`` this
yields the ~50 % storage overhead the paper reports in Figure 11(c): two
clouds store half the file each and a third stores one extra coded block (the
fourth cloud is not used for data when *preferred quorums* are enabled).

The implementation uses a systematic encoding matrix: the first ``k`` output
blocks are the plain data blocks and the remaining ``n - k`` are parity.
Decoding from any ``k`` available blocks inverts the corresponding rows.

Fast paths
----------
* **Systematic encode** — the first ``k`` coded blocks are literal slices of
  the framed payload, so encoding multiplies only the ``n - k`` parity rows
  (roughly halving the work at the paper's ``(4, 2)``).
* **Streaming zero-copy encode** — :meth:`ErasureCoder.frame_into` lays the
  frame header out in a fresh ``(n, block_len)`` buffer and exposes the
  payload region as a writable view (so the cipher can place ciphertext
  directly where the systematic blocks live, with no intermediate copy), and
  :meth:`ErasureCoder.encode_stripes` walks that buffer in column stripes,
  computing the parity rows of each stripe in place via ``gf256.matmul``'s
  ``out=`` path.  Stripes are column ranges of the ``(k, block_len)`` data
  matrix, so stripewise parity is byte-identical to whole-block parity while
  each stripe's bytes are still cache-hot for the consumer (the DepSky write
  pipeline feeds them straight into incremental digests).
  :meth:`ErasureCoder.encode_into` wraps this for plain ``bytes`` payloads;
  :meth:`ErasureCoder.encode` keeps the list-of-:class:`CodedBlock` API on
  top.
* **Systematic decode** — when the ``k`` chosen blocks are exactly the
  systematic ones, decoding is a pure byte concatenation with no field
  arithmetic at all: the payload's spans of the blocks are joined once into
  the result.  DepSky's preferred-quorum reads hit this path whenever the
  first ``k`` clouds answer correctly.
* **Decode-matrix cache** — inverted submatrices are cached per
  surviving-block index tuple, so repeated reads under the same failure
  pattern skip the Gauss–Jordan inversion entirely.
* **Chunked encode/decode** — the underlying ``gf256.matmul`` picks its
  kernel per stripe (the nibble-split pair-table path for the wide stripes
  used here), and neither kernel holds more than one row's products at a
  time, so multi-hundred-MB payloads never materialise a proportional tensor.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SingularMatrixError
from repro.crypto import gf256

#: Header prepended to the padded payload so that decode can recover the
#: original length:  magic (2 bytes) + original length (8 bytes).
_HEADER = struct.Struct(">HQ")
_MAGIC = 0x5343  # "SC"

#: Default column-stripe width (bytes per block row) for the streaming
#: encode.  Wide enough that the per-stripe Python overhead vanishes,
#: small enough that one stripe across all ``n`` rows stays cache-resident
#: for the digest/assembly consumers downstream.
DEFAULT_STRIPE_BYTES = 1 << 17


@dataclass(frozen=True)
class CodedBlock:
    """One erasure-coded block: its row ``index`` in the code and the payload."""

    index: int
    #: A parsed block's payload is a view of the object it was fetched in.
    payload: bytes | memoryview


def _span(rows: list, start: int, stop: int) -> list[memoryview]:
    """Views of bytes ``[start, stop)`` of the concatenation of ``rows``."""
    parts = []
    offset = 0
    for row in rows:
        view = memoryview(row)
        low, high = max(start - offset, 0), min(stop - offset, len(view))
        if low < high:
            parts.append(view[low:high])
        offset += len(view)
    return parts


@dataclass(frozen=True)
class StripeView:
    """One encoded column stripe: the buffer's columns ``start`` to ``start + width``.

    ``blocks`` is their ``(n, width)`` uint8 view — rows ``0..k-1`` are
    the framed payload columns, rows ``k..n-1`` the freshly computed parity.
    Views alias the encode buffer; consume them before the next stripe if the
    buffer is reused.
    """

    start: int
    blocks: np.ndarray


class ErasureCoder:
    """Systematic ``(n, k)`` Reed–Solomon coder.

    Parameters
    ----------
    n:
        Total number of blocks produced (one per cloud).
    k:
        Number of blocks required to reconstruct the data.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"invalid erasure-code parameters n={n}, k={k}")
        if n > 255:
            raise ValueError("GF(256) Reed-Solomon supports at most 255 blocks")
        self.n = n
        self.k = k
        self._matrix = self._systematic_matrix(n, k)
        #: Parity rows only — the systematic rows are the identity and are
        #: served as plain slices by :meth:`encode`.
        self._parity_matrix = self._matrix[k:]
        #: Inverted decode submatrices keyed by the tuple of surviving block
        #: indices (at most C(n, k) entries for DepSky's tiny n).
        self._decode_cache: dict[tuple[int, ...], np.ndarray] = {}

    @staticmethod
    def _systematic_matrix(n: int, k: int) -> np.ndarray:
        vander = gf256.vandermonde(n, k)
        top_inv = gf256.invert_matrix(vander[:k, :k])
        return gf256.matmul(vander, top_inv)

    # ------------------------------------------------------------------ API

    def encode(self, data: bytes) -> list[CodedBlock]:
        """Split ``data`` into ``n`` coded blocks, any ``k`` of which rebuild it."""
        buffer = self.encode_into(data)
        return [CodedBlock(index=i, payload=buffer[i].tobytes())
                for i in range(self.n)]

    def frame_into(self, data_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Lay out the encode buffer for a ``data_len``-byte payload.

        Returns ``(buffer, payload_view)``: ``buffer`` is a zero-allocated
        ``(n, block_len)`` uint8 array whose first ``k`` rows will hold the
        framed payload, and ``payload_view`` is the flat writable view of the
        ``data_len`` payload bytes inside it.  The frame header is written;
        the caller fills ``payload_view`` (e.g. the cipher encrypts straight
        into it) and then runs :meth:`encode_stripes` over the buffer.
        """
        buffer = np.zeros((self.n, self.block_size(data_len)), dtype=np.uint8)
        flat = buffer[:self.k].reshape(-1)
        flat[:_HEADER.size] = np.frombuffer(_HEADER.pack(_MAGIC, data_len), dtype=np.uint8)
        payload_view = flat[_HEADER.size:_HEADER.size + data_len]
        return buffer, payload_view

    def encode_stripes(self, buffer: np.ndarray,
                       stripe_bytes: int = DEFAULT_STRIPE_BYTES,
                       ) -> Iterator[StripeView]:
        """Encode the parity rows of a framed ``(n, block_len)`` buffer in place.

        Walks the buffer in column stripes of ``stripe_bytes`` per row,
        multiplying the parity matrix into rows ``k..n-1`` of each stripe via
        ``gf256.matmul(..., out=...)`` and yielding the finished
        :class:`StripeView` — data and parity columns together — so the
        caller can digest or ship each stripe while it is still cache-hot and
        while later stripes have not been computed yet.  Stripes are column
        ranges of the data matrix, so the resulting bytes are identical to a
        single whole-buffer encode.
        """
        if buffer.shape[0] != self.n or buffer.dtype != np.uint8:
            raise ValueError(f"buffer must be uint8 with {self.n} rows")
        if stripe_bytes <= 0:
            raise ValueError("stripe_bytes must be positive")
        block_len = buffer.shape[1]
        data_rows = buffer[:self.k]
        parity_rows = buffer[self.k:] if self.n > self.k else None
        for start in range(0, block_len, stripe_bytes):
            stop = min(start + stripe_bytes, block_len)
            if parity_rows is not None:
                gf256.matmul(self._parity_matrix, data_rows[:, start:stop],
                             out=parity_rows[:, start:stop])
            yield StripeView(start=start, blocks=buffer[:, start:stop])
        if block_len == 0:
            yield StripeView(start=0, blocks=buffer)

    def encode_into(self, data: bytes,
                    stripe_bytes: int = DEFAULT_STRIPE_BYTES) -> np.ndarray:
        """Encode ``data`` into an ``(n, block_len)`` buffer and return it.

        Row ``i`` of the result is coded block ``i`` (the first ``k`` rows
        are the framed systematic payload, the rest parity) — the zero-copy
        equivalent of :meth:`encode` for callers that can consume array rows
        instead of ``bytes``.
        """
        buffer, payload_view = self.frame_into(len(data))
        payload_view[:] = np.frombuffer(data, dtype=np.uint8)
        for _ in self.encode_stripes(buffer, stripe_bytes):
            pass
        return buffer

    def decode(self, blocks: list[CodedBlock]) -> bytearray:
        """Rebuild the original data from any ``k`` distinct coded blocks.

        The result is a fresh buffer the caller owns (the cipher decrypts it
        in place); the payload is copied into it once.
        """
        unique: dict[int, CodedBlock] = {}
        for block in blocks:
            if not 0 <= block.index < self.n:
                raise ValueError(f"block index {block.index} out of range for n={self.n}")
            unique.setdefault(block.index, block)
        if len(unique) < self.k:
            raise ValueError(f"need at least {self.k} distinct blocks, got {len(unique)}")
        # Sorting prefers systematic (low-index) blocks, maximising fast-path hits.
        chosen = sorted(unique.values(), key=lambda b: b.index)[: self.k]
        lengths = {len(b.payload) for b in chosen}
        if len(lengths) != 1:
            raise ValueError("coded blocks have inconsistent lengths")
        indices = tuple(b.index for b in chosen)
        if indices == tuple(range(self.k)):
            # Systematic fast path: the data blocks survived, no arithmetic.
            rows = [b.payload for b in chosen]
        else:
            inverse = self._decode_matrix(indices)
            stacked = np.stack(
                [np.frombuffer(b.payload, dtype=np.uint8) for b in chosen]
            )
            rows = [gf256.matmul(inverse, stacked).reshape(-1)]
        magic, length = _HEADER.unpack(b"".join(_span(rows, 0, _HEADER.size)))
        if magic != _MAGIC:
            raise ValueError("decoded data has an invalid header (wrong blocks?)")
        if _HEADER.size + length > sum(len(row) for row in rows):
            raise ValueError("decoded data is truncated")
        return bytearray().join(_span(rows, _HEADER.size, _HEADER.size + length))

    def _decode_matrix(self, indices: tuple[int, ...]) -> np.ndarray:
        """Inverted decode submatrix for the surviving ``indices`` (cached)."""
        inverse = self._decode_cache.get(indices)
        if inverse is None:
            submatrix = self._matrix[list(indices)]
            try:
                inverse = gf256.invert_matrix(submatrix)
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"cannot decode from blocks {list(indices)}: insufficient "
                    f"independent blocks (need {self.k} linearly independent rows)"
                ) from exc
            self._decode_cache[indices] = inverse
        return inverse

    def block_size(self, data_len: int) -> int:
        """Size in bytes of each coded block for a payload of ``data_len`` bytes."""
        framed = _HEADER.size + data_len
        return (framed + self.k - 1) // self.k
