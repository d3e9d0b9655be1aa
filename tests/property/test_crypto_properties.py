"""Property-based tests (hypothesis) for the coding/crypto substrate.

These check algebraic invariants that must hold for *any* input, not just the
hand-picked cases of the unit tests: GF(256) field axioms, erasure-coding
round trips through arbitrary block subsets, secret-sharing reconstruction and
authenticated-encryption round trips.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import erasure, gf256
from repro.crypto.cipher import SymmetricCipher, generate_key
from repro.crypto.erasure import ErasureCoder
from repro.crypto.hashing import content_digest
from repro.crypto.secret_sharing import combine_secret, split_secret

field_elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestGF256Properties:
    @given(field_elements, field_elements)
    def test_multiplication_is_commutative(self, a, b):
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)

    @given(field_elements, field_elements, field_elements)
    def test_multiplication_is_associative(self, a, b, c):
        left = gf256.gf_mul(gf256.gf_mul(a, b), c)
        right = gf256.gf_mul(a, gf256.gf_mul(b, c))
        assert left == right

    @given(field_elements, field_elements, field_elements)
    def test_multiplication_distributes_over_addition(self, a, b, c):
        left = gf256.gf_mul(a, b ^ c)
        right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
        assert left == right

    @given(nonzero_elements)
    def test_every_nonzero_element_has_an_inverse(self, a):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1

    @given(field_elements, nonzero_elements)
    def test_division_inverts_multiplication(self, a, b):
        assert gf256.gf_mul(gf256.gf_mul(a, b), gf256.gf_inv(b)) == a

    @given(field_elements)
    def test_one_is_multiplicative_identity(self, a):
        assert gf256.gf_mul(a, 1) == a


def _reference_encode(coder: ErasureCoder, data: bytes) -> list[bytes]:
    """Erasure-encode ``data`` through the retained scalar matmul."""
    framed = erasure._HEADER.pack(erasure._MAGIC, len(data)) + data
    block_len = (len(framed) + coder.k - 1) // coder.k
    padded = framed.ljust(block_len * coder.k, b"\x00")
    blocks = np.frombuffer(padded, dtype=np.uint8).reshape(coder.k, block_len)
    coded = gf256._matmul_scalar(coder._matrix, blocks)
    return [coded[i].tobytes() for i in range(coder.n)]


def _reference_decode_framed(coder: ErasureCoder, subset) -> bytes:
    """Recover the framed payload from ``subset`` through the scalar matmul."""
    chosen = sorted(subset, key=lambda b: b.index)[: coder.k]
    submatrix = coder._matrix[[b.index for b in chosen]]
    inverse = gf256.invert_matrix(submatrix)
    stacked = np.stack([np.frombuffer(b.payload, dtype=np.uint8) for b in chosen])
    return gf256._matmul_scalar(inverse, stacked).reshape(-1).tobytes()


class TestVectorizedAgainstScalarReference:
    """The vectorised hot path must agree byte-for-byte with `_matmul_scalar`."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        length=st.integers(min_value=0, max_value=600),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matmul_agrees_with_scalar_reference(self, rows, cols, length, seed):
        # Matrices up to 12x12, far past DepSky's 2x2, on short blocks.
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        blocks = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        assert np.array_equal(gf256.matmul(matrix, blocks),
                              gf256._matmul_scalar(matrix, blocks))

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.one_of(
            st.sampled_from([b"", b"\x00", b"x"]),  # 0, 1 byte edge cases
            st.binary(min_size=0, max_size=3000),
        ),
        params=st.sampled_from([(4, 2), (4, 3), (5, 5), (6, 3), (7, 5)]),
    )
    def test_encode_agrees_with_scalar_reference(self, data, params):
        # Payload sizes include 0, 1 and lengths that are no multiple of k.
        n, k = params
        coder = ErasureCoder(n, k)
        payloads = [b.payload for b in coder.encode(data)]
        assert payloads == _reference_encode(coder, data)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        # Lengths straddle every alignment case of the nibble kernel: empty,
        # odd (scalar tail byte), non-multiples of 8 (uint16 accumulation
        # lanes), and multiples of 8 (uint64 lanes).
        length=st.one_of(st.sampled_from([0, 1, 2, 7, 8, 9, 15, 16, 17]),
                         st.integers(min_value=0, max_value=500)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sprinkle_edge_coeffs=st.booleans(),
    )
    def test_nibble_kernel_agrees_with_scalar_reference(
            self, rows, cols, length, seed, sprinkle_edge_coeffs):
        # The production heuristic only routes blocks >= 128 B through the
        # nibble-split kernel; dropping the threshold to 1 byte lets
        # hypothesis drive the same kernel over small shapes cheaply.
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        if sprinkle_edge_coeffs:
            # Zero and one coefficients take dedicated skip/XOR-copy paths.
            mask = rng.integers(0, 3, size=(rows, cols))
            matrix[mask == 0] = 0
            matrix[mask == 1] = 1
        blocks = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        expected = gf256._matmul_scalar(matrix, blocks)
        saved = gf256._NIBBLE_MIN_BYTES
        gf256._NIBBLE_MIN_BYTES = 1
        try:
            assert np.array_equal(gf256.matmul(matrix, blocks), expected)
            out = np.full((rows, length), 0xCD, dtype=np.uint8)
            assert np.array_equal(gf256.matmul(matrix, blocks, out=out),
                                  expected)
            # Strided views (the stripe encoder's shape): rows stay
            # contiguous, the 2-D arrays do not.
            backing_in = np.zeros((cols, length + 32), dtype=np.uint8)
            backing_in[:, 16:16 + length] = blocks
            backing_out = np.zeros((rows, length + 32), dtype=np.uint8)
            strided_out = backing_out[:, 16:16 + length]
            gf256.matmul(matrix, backing_in[:, 16:16 + length],
                         out=strided_out)
            assert np.array_equal(strided_out, expected)
        finally:
            gf256._NIBBLE_MIN_BYTES = saved

    @settings(max_examples=20, deadline=None)
    @given(
        length=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_out_aliasing_an_input_is_rejected_loudly(self, length, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(2, 2), dtype=np.uint8)
        blocks = rng.integers(0, 256, size=(2, length), dtype=np.uint8)
        saved = gf256._NIBBLE_MIN_BYTES
        gf256._NIBBLE_MIN_BYTES = 1
        try:
            if length:  # zero-length arrays share no memory
                with pytest.raises(ValueError, match="alias"):
                    gf256.matmul(matrix, blocks, out=blocks)
        finally:
            gf256._NIBBLE_MIN_BYTES = saved

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=2000),
        params=st.sampled_from([(4, 2), (4, 3), (6, 3), (7, 5)]),
        stripe_bytes=st.sampled_from([1, 3, 8, 100, 1 << 17]),
    )
    def test_streaming_encode_agrees_with_scalar_reference(
            self, data, params, stripe_bytes):
        n, k = params
        coder = ErasureCoder(n, k)
        buffer = coder.encode_into(data, stripe_bytes=stripe_bytes)
        assert [row.tobytes() for row in buffer] == _reference_encode(coder, data)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=2000),
        params=st.sampled_from([(4, 2), (4, 3), (6, 3), (7, 5)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_decode_agrees_with_scalar_reference(self, data, params, seed):
        # Random erasure patterns: any surviving k-subset must round-trip and
        # match the scalar reference's framed reconstruction byte-for-byte.
        n, k = params
        coder = ErasureCoder(n, k)
        blocks = coder.encode(data)
        subset = random.Random(seed).sample(blocks, k)
        assert coder.decode(subset) == data
        reference_framed = _reference_decode_framed(coder, subset)
        chosen = sorted(subset, key=lambda b: b.index)[:k]
        block_len = len(chosen[0].payload)
        if all(b.index < k for b in chosen):
            vectorised_framed = b"".join(b.payload for b in chosen)
        else:
            stacked = np.stack([np.frombuffer(b.payload, dtype=np.uint8) for b in chosen])
            vectorised_framed = gf256.matmul(
                coder._decode_matrix(tuple(b.index for b in chosen)), stacked
            ).reshape(-1).tobytes()
        assert vectorised_framed[: coder.k * block_len] == reference_framed[: coder.k * block_len]


class TestErasureCodingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=5000),
        params=st.sampled_from([(4, 2), (4, 3), (6, 3), (7, 5)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_k_of_n_blocks_reconstruct_the_data(self, data, params, seed):
        n, k = params
        coder = ErasureCoder(n, k)
        blocks = coder.encode(data)
        chosen = random.Random(seed).sample(blocks, k)
        assert coder.decode(chosen) == data

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=1, max_size=2000))
    def test_total_storage_is_n_over_k_of_the_payload(self, data):
        coder = ErasureCoder(4, 2)
        blocks = coder.encode(data)
        total = sum(len(b.payload) for b in blocks)
        # Framing adds a constant 10-byte header before the n/k expansion.
        overhead = coder.n / coder.k
        assert total <= (len(data) + 16) * overhead + coder.n
        assert total >= len(data) * overhead * 0.9


class TestSecretSharingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        secret=st.binary(min_size=1, max_size=64),
        params=st.sampled_from([(4, 2), (5, 3), (7, 4)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_t_of_n_shares_reconstruct_the_secret(self, secret, params, seed):
        n, t = params
        rng = random.Random(seed)
        shares = split_secret(secret, n, t, rng)
        chosen = rng.sample(shares, t)
        assert combine_secret(chosen, t) == secret

    @settings(max_examples=30, deadline=None)
    @given(secret=st.binary(min_size=16, max_size=32), seed=st.integers(0, 2**16))
    def test_shares_differ_from_the_secret(self, secret, seed):
        shares = split_secret(secret, 4, 2, random.Random(seed))
        assert all(share.data != secret or set(secret) == {0} for share in shares[1:])


class TestCipherProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(min_size=0, max_size=5000), seed=st.integers(0, 2**16))
    def test_decrypt_inverts_encrypt(self, data, seed):
        rng = random.Random(seed)
        cipher = SymmetricCipher(generate_key(rng))
        assert cipher.decrypt(cipher.encrypt(data, rng)) == data

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(min_size=1, max_size=1000), seed=st.integers(0, 2**16))
    def test_ciphertext_has_fixed_overhead(self, data, seed):
        rng = random.Random(seed)
        cipher = SymmetricCipher(generate_key(rng))
        assert len(cipher.encrypt(data, rng)) == len(data) + cipher.overhead()


class TestHashingProperties:
    @given(st.binary(max_size=4096), st.binary(max_size=4096))
    def test_equal_digests_imply_equal_data_in_practice(self, a, b):
        if content_digest(a) == content_digest(b):
            assert a == b

    @given(st.binary(max_size=4096))
    def test_digest_is_stable(self, data):
        assert content_digest(data) == content_digest(bytes(data))
