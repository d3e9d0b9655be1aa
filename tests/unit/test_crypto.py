"""Unit tests for the cryptographic and coding substrate."""

import random

import numpy as np
import pytest

from repro.common.errors import SingularMatrixError
from repro.crypto import gf256
from repro.crypto.cipher import KEY_SIZE, SymmetricCipher, generate_key
from repro.crypto.erasure import CodedBlock, ErasureCoder
from repro.crypto.hashing import content_digest, hmac_digest, verify_hmac
from repro.crypto.secret_sharing import SecretShare, combine_secret, split_secret


class TestHashing:
    def test_digest_is_deterministic(self):
        assert content_digest(b"hello") == content_digest(b"hello")

    def test_digest_differs_for_different_data(self):
        assert content_digest(b"hello") != content_digest(b"hello!")

    def test_hmac_verifies(self):
        tag = hmac_digest(b"key", b"data")
        assert verify_hmac(b"key", b"data", tag)
        assert not verify_hmac(b"key", b"other", tag)
        assert not verify_hmac(b"other", b"data", tag)


class TestGF256:
    def test_multiplication_by_zero_and_one(self):
        assert gf256.gf_mul(0, 77) == 0
        assert gf256.gf_mul(1, 77) == 77

    def test_inverse_round_trip(self):
        for a in range(1, 256):
            assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1

    def test_division_is_inverse_of_multiplication(self):
        for a, b in [(3, 7), (200, 99), (255, 2)]:
            assert gf256.gf_mul(gf256.gf_mul(a, b), gf256.gf_inv(b)) == a

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_inv(0)

    def test_matrix_inverse_round_trip(self):
        matrix = gf256.vandermonde(3, 3)
        inverse = gf256.invert_matrix(matrix)
        identity = gf256.matmul(matrix, inverse)
        assert np.array_equal(identity, np.eye(3, dtype=np.uint8))

    def test_singular_matrix_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError):
            gf256.invert_matrix(singular)

    def test_singular_matrix_raises_dedicated_error(self):
        singular = np.array([[3, 5, 6], [1, 1, 1], [2, 4, 7]], dtype=np.uint8)
        singular[2] = singular[0] ^ singular[1]  # linearly dependent row
        with pytest.raises(SingularMatrixError):
            gf256.invert_matrix(singular)

    def test_matmul_validates_shapes(self):
        with pytest.raises(ValueError):
            gf256.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))

    def test_matmul_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        blocks = rng.integers(0, 256, size=(4, 129), dtype=np.uint8)
        assert np.array_equal(gf256.matmul(matrix, blocks),
                              gf256._matmul_scalar(matrix, blocks))

    def test_matmul_large_matrix_path_matches_scalar_reference(self):
        # A matrix far larger than DepSky's 2x2 goes through the row gathers too.
        rng = np.random.default_rng(8)
        matrix = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
        blocks = rng.integers(0, 256, size=(9, 257), dtype=np.uint8)
        assert np.array_equal(gf256.matmul(matrix, blocks),
                              gf256._matmul_scalar(matrix, blocks))

    def test_one_coefficient_matmul_is_scalar_multiplication(self):
        block = np.array([[0, 1, 2, 250, 255]], dtype=np.uint8)
        result = gf256.matmul(np.array([[7]], dtype=np.uint8), block)
        assert result[0].tolist() == [gf256.gf_mul(7, int(b)) for b in block[0]]

    def test_matmul_by_zero_and_one_returns_fresh_rows(self):
        block = np.arange(256, dtype=np.uint8).reshape(1, 256)
        zero = gf256.matmul(np.array([[0]], dtype=np.uint8), block)
        one = gf256.matmul(np.array([[1]], dtype=np.uint8), block)
        assert not zero.any() and np.array_equal(one, block)
        assert not np.shares_memory(zero, block) and not np.shares_memory(one, block)

    def test_matmul_empty_blocks(self):
        matrix = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        result = gf256.matmul(matrix, np.zeros((2, 0), dtype=np.uint8))
        assert result.shape == (2, 0)


class TestMatmulOutParameter:
    """The ``out=`` destination path of matmul."""

    def _case(self, rows, cols, length, seed=0):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        blocks = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        return matrix, blocks

    def test_out_matches_plain_result_on_every_strategy(self, monkeypatch):
        for rows, cols, length in [(2, 2, 64),     # row gather
                                   (9, 9, gf256._NIBBLE_MIN_BYTES - 1),  # row, large matrix
                                   (2, 2, 200)]:   # nibble (threshold lowered)
            if length == 200:
                monkeypatch.setattr(gf256, "_NIBBLE_MIN_BYTES", 1)
            matrix, blocks = self._case(rows, cols, length)
            expected = gf256.matmul(matrix, blocks)
            out = np.full((rows, length), 0xAB, dtype=np.uint8)  # dirty buffer
            returned = gf256.matmul(matrix, blocks, out=out)
            assert returned is out
            assert np.array_equal(out, expected)

    def test_out_rows_may_be_strided_views(self):
        # The stripe encoder writes into column slices of a larger buffer:
        # each row is contiguous but the 2-D view is strided.
        matrix, blocks = self._case(2, 2, gf256._NIBBLE_MIN_BYTES)
        backing = np.zeros((2, blocks.shape[1] + 64), dtype=np.uint8)
        out = backing[:, 32:32 + blocks.shape[1]]
        gf256.matmul(matrix, blocks, out=out)
        assert np.array_equal(out, gf256.matmul(matrix, blocks))

    def test_strided_input_blocks_match_contiguous(self):
        matrix, blocks = self._case(2, 2, gf256._NIBBLE_MIN_BYTES + 65)
        sliced = blocks[:, 17:-13]  # strided 2-D view, contiguous rows
        assert np.array_equal(gf256.matmul(matrix, sliced),
                              gf256.matmul(matrix, np.ascontiguousarray(sliced)))

    def test_out_aliasing_inputs_is_rejected(self):
        matrix, blocks = self._case(2, 2, 128)
        with pytest.raises(ValueError, match="alias"):
            gf256.matmul(matrix, blocks, out=blocks)
        backing = np.zeros((4, 128), dtype=np.uint8)
        with pytest.raises(ValueError, match="alias"):
            gf256.matmul(matrix, backing[:2], out=backing[:2])

    def test_out_shape_and_dtype_validated(self):
        matrix, blocks = self._case(2, 2, 64)
        with pytest.raises(ValueError, match="shape"):
            gf256.matmul(matrix, blocks, out=np.zeros((3, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="uint8"):
            gf256.matmul(matrix, blocks, out=np.zeros((2, 64), dtype=np.uint16))


class TestNibbleKernel:
    """The nibble-split pair-table kernel used for long blocks."""

    def test_production_threshold_path_matches_row_gather(self, monkeypatch):
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 256, size=(2, 2), dtype=np.uint8)
        blocks = rng.integers(0, 256,
                              size=(2, gf256._NIBBLE_MIN_BYTES + 1),  # odd tail
                              dtype=np.uint8)
        nibble = gf256.matmul(matrix, blocks)
        monkeypatch.setattr(gf256, "_NIBBLE_MIN_BYTES", 1 << 62)
        assert np.array_equal(gf256.matmul(matrix, blocks), nibble)

    def test_zero_and_one_coefficients(self, monkeypatch):
        monkeypatch.setattr(gf256, "_NIBBLE_MIN_BYTES", 1)
        matrix = np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.uint8)
        blocks = np.random.default_rng(12).integers(
            0, 256, size=(2, 99), dtype=np.uint8)
        result = gf256.matmul(matrix, blocks)
        assert np.array_equal(result[0], blocks[1])
        assert np.array_equal(result[1], blocks[0])
        assert not result[2].any()
        assert np.array_equal(result[3], blocks[0] ^ blocks[1])

    def test_pair_table_is_cached_and_bounded(self):
        gf256._pair_cache.clear()
        first = gf256._pair_table(7)
        assert gf256._pair_table(7) is first
        for coeff in range(2, 2 + gf256._PAIR_CACHE_MAX + 5):
            gf256._pair_table(coeff)
        assert len(gf256._pair_cache) <= gf256._PAIR_CACHE_MAX

    def test_pair_table_entries_are_two_products(self):
        table = gf256._pair_table(29)
        pair = np.array([0x12, 0xF3], dtype=np.uint8)
        word = int(pair.view(np.uint16)[0])
        products = np.array([table[word]], dtype=np.uint16).view(np.uint8)
        assert list(products) == [gf256.gf_mul(29, 0x12), gf256.gf_mul(29, 0xF3)]


class TestVandermonde:
    def test_matches_repeated_multiplication(self):
        matrix = gf256.vandermonde(9, 7)
        for r in range(9):
            power = 1
            for c in range(7):
                assert int(matrix[r, c]) == power
                power = gf256.gf_mul(power, r + 1)

    def test_empty_dimensions(self):
        assert gf256.vandermonde(0, 3).shape == (0, 3)
        assert gf256.vandermonde(3, 0).shape == (3, 0)


class TestErasureCoder:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ErasureCoder(2, 3)
        with pytest.raises(ValueError):
            ErasureCoder(300, 2)

    def test_round_trip_with_all_blocks(self):
        coder = ErasureCoder(4, 2)
        data = bytes(range(256)) * 17
        assert coder.decode(coder.encode(data)) == data

    def test_round_trip_with_any_k_subset(self):
        coder = ErasureCoder(4, 2)
        data = b"the quick brown fox jumps over the lazy dog" * 9
        blocks = coder.encode(data)
        for i in range(4):
            for j in range(i + 1, 4):
                assert coder.decode([blocks[i], blocks[j]]) == data

    def test_decode_with_fewer_than_k_blocks_fails(self):
        coder = ErasureCoder(4, 2)
        blocks = coder.encode(b"payload")
        with pytest.raises(ValueError):
            coder.decode(blocks[:1])

    def test_duplicate_blocks_do_not_count_twice(self):
        coder = ErasureCoder(4, 2)
        blocks = coder.encode(b"payload")
        with pytest.raises(ValueError):
            coder.decode([blocks[0], CodedBlock(blocks[0].index, blocks[0].payload)])

    def test_empty_payload_round_trips(self):
        coder = ErasureCoder(4, 2)
        assert coder.decode(coder.encode(b"")) == b""

    def test_storage_overhead(self):
        """``n`` blocks of about ``1/k`` of the payload each: ``n / k`` of it."""
        for (n, k), overhead in (((4, 2), 2.0), ((7, 5), 1.4)):
            coder = ErasureCoder(n, k)
            assert n * coder.block_size(100_000) / 100_000 == pytest.approx(overhead, rel=1e-3)

    def test_block_size_is_about_payload_over_k(self):
        coder = ErasureCoder(4, 2)
        assert coder.block_size(1000) == pytest.approx(505, abs=2)

    def test_larger_configuration(self):
        coder = ErasureCoder(7, 3)
        data = bytes(random.Random(1).randrange(256) for _ in range(10_000))
        blocks = coder.encode(data)
        assert coder.decode([blocks[6], blocks[2], blocks[4]]) == data

    def test_invalid_block_index_rejected(self):
        coder = ErasureCoder(4, 2)
        with pytest.raises(ValueError):
            coder.decode([CodedBlock(9, b"xx"), CodedBlock(1, b"yy")])

    def test_systematic_blocks_are_plain_data_slices(self):
        coder = ErasureCoder(4, 2)
        data = b"systematic fast path" * 40
        blocks = coder.encode(data)
        framed = b"".join(b.payload for b in blocks[:2])
        assert data in framed  # the first k blocks carry the framed payload verbatim

    def test_systematic_and_parity_decodes_agree(self):
        coder = ErasureCoder(4, 2)
        data = bytes(range(256)) * 13
        blocks = coder.encode(data)
        assert coder.decode(blocks[:2]) == data          # concatenation path
        assert coder.decode(blocks[2:]) == data          # matrix path
        assert coder.decode([blocks[0], blocks[3]]) == data  # mixed

    def test_decode_matrix_is_cached_per_erasure_pattern(self):
        coder = ErasureCoder(4, 2)
        blocks = coder.encode(b"cache me" * 100)
        assert coder._decode_cache == {}
        coder.decode(blocks[2:])
        first = coder._decode_cache[(2, 3)]
        coder.decode(blocks[2:])
        assert coder._decode_cache[(2, 3)] is first
        coder.decode(blocks[:2])  # systematic path does not populate the cache
        assert set(coder._decode_cache) == {(2, 3)}

    def test_dependent_blocks_raise_singular_matrix_error(self):
        coder = ErasureCoder(4, 2)
        blocks = coder.encode(b"payload" * 50)
        # Force two linearly dependent rows to simulate a degenerate code.
        coder._matrix[3] = coder._matrix[2]
        coder._decode_cache.clear()
        with pytest.raises(SingularMatrixError, match="insufficient independent blocks"):
            coder.decode(blocks[2:])


class TestStreamingEncode:
    """frame_into / encode_stripes / encode_into — the zero-copy path."""

    @staticmethod
    def _stripes(coder, data, **kwargs):
        buffer, payload_view = coder.frame_into(len(data))
        payload_view[:] = np.frombuffer(data, dtype=np.uint8)
        return list(coder.encode_stripes(buffer, **kwargs))

    def test_frame_into_lays_out_a_zeroed_frame_around_the_payload(self):
        coder = ErasureCoder(4, 2)
        buffer, payload_view = coder.frame_into(100)
        assert buffer.shape == (4, coder.block_size(100)) and buffer.dtype == np.uint8
        assert payload_view.size == 100 and np.shares_memory(payload_view, buffer)
        payload_view[:] = 0xAB
        framed = buffer[:2].reshape(-1)
        start = int(np.flatnonzero(framed == 0xAB)[0])
        assert framed[:start].any()  # the header
        assert (framed[start:start + 100] == 0xAB).all()
        assert not framed[start + 100:].any() and not buffer[2:].any()
        list(coder.encode_stripes(buffer))
        blocks = [CodedBlock(index=i, payload=buffer[i].tobytes()) for i in (0, 3)]
        assert coder.decode(blocks) == b"\xab" * 100

    def test_encode_into_rows_equal_encode_payloads(self):
        coder = ErasureCoder(4, 2)
        data = b"streaming must not change wire bytes" * 70
        buffer = coder.encode_into(data)
        assert [row.tobytes() for row in buffer] == \
            [b.payload for b in coder.encode(data)]

    def test_encode_stripes_yields_stripes_covering_the_buffer(self):
        coder = ErasureCoder(4, 2)
        data = bytes(range(256)) * 40
        reference = coder.encode_into(data)
        stripes = self._stripes(coder, data, stripe_bytes=1000)
        assert stripes[0].start == 0
        last = stripes[-1]
        assert last.start + last.blocks.shape[1] == reference.shape[1]
        for before, after in zip(stripes, stripes[1:], strict=False):
            assert before.start + before.blocks.shape[1] == after.start
        rebuilt = np.concatenate([s.blocks for s in stripes], axis=1)
        assert np.array_equal(rebuilt, reference)

    def test_stripe_width_does_not_change_the_bytes(self):
        coder = ErasureCoder(6, 4)
        data = b"width independence" * 123
        reference = coder.encode_into(data)
        for stripe_bytes in (1, 7, 64, 1 << 20):
            assert np.array_equal(
                coder.encode_into(data, stripe_bytes=stripe_bytes), reference)

    def test_encode_stripes_validates_buffer(self):
        coder = ErasureCoder(4, 2)
        with pytest.raises(ValueError, match="rows"):
            list(coder.encode_stripes(np.zeros((3, 10), dtype=np.uint8)))
        with pytest.raises(ValueError, match="positive"):
            list(coder.encode_stripes(np.zeros((4, 10), dtype=np.uint8),
                                      stripe_bytes=0))

    def test_streamed_blocks_decode(self):
        coder = ErasureCoder(4, 2)
        data = b"round trip through the streaming encoder" * 55
        buffer = coder.encode_into(data, stripe_bytes=512)
        blocks = [CodedBlock(index=i, payload=buffer[i].tobytes())
                  for i in (1, 3)]
        assert coder.decode(blocks) == data

    def test_empty_payload_streams(self):
        coder = ErasureCoder(4, 2)
        stripes = self._stripes(coder, b"")
        assert stripes  # header-only frame still yields a stripe
        assert coder.decode(coder.encode(b"")) == b""


class TestSecretSharing:
    def test_round_trip(self):
        secret = bytes(range(32))
        shares = split_secret(secret, n=4, t=2, rng=random.Random(0))
        assert combine_secret(shares[:2], 2) == secret
        assert combine_secret(shares[2:], 2) == secret

    def test_any_threshold_subset_recovers(self):
        secret = b"super secret key material 123456"
        shares = split_secret(secret, n=5, t=3, rng=random.Random(1))
        assert combine_secret([shares[4], shares[0], shares[2]], 3) == secret

    def test_too_few_shares_fail(self):
        shares = split_secret(b"secret", n=4, t=3, rng=random.Random(2))
        with pytest.raises(ValueError):
            combine_secret(shares[:2], 3)

    def test_single_share_reveals_nothing_obvious(self):
        secret = b"\x00" * 16
        shares = split_secret(secret, n=4, t=2, rng=random.Random(3))
        # With threshold 2, one share alone should not equal the secret.
        assert shares[0].data != secret

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            split_secret(b"s", n=2, t=3, rng=random.Random(0))
        with pytest.raises(ValueError):
            split_secret(b"s", n=300, t=2, rng=random.Random(0))

    def test_duplicate_shares_do_not_count(self):
        shares = split_secret(b"secret", n=4, t=2, rng=random.Random(4))
        with pytest.raises(ValueError):
            combine_secret([shares[0], SecretShare(shares[0].x, shares[0].data)], 2)

    def test_split_evaluates_each_byte_polynomial_at_the_share_x(self):
        secret, n, t = b"key bytes", 5, 3
        shares = split_secret(secret, n=n, t=t, rng=random.Random(5))
        # The same RNG, drawn byte by byte, gives the same polynomials.
        rng = random.Random(5)
        polynomials = [[byte, *(rng.randrange(256) for _ in range(t - 1))]
                       for byte in secret]
        for share in shares:
            expected = []
            for coefficients in polynomials:
                value = 0
                for coefficient in reversed(coefficients):  # Horner
                    value = gf256.gf_mul(value, share.x) ^ coefficient
                expected.append(value)
            assert list(share.data) == expected

    def test_combine_is_lagrange_interpolation_at_zero(self):
        shares = split_secret(b"\x00\x01\x7f\xff", n=6, t=3, rng=random.Random(6))
        chosen = [shares[5], shares[1], shares[3]]
        # Scalar Lagrange basis at x = 0; subtraction is XOR in GF(2^8).
        expected = [0] * 4
        for share in chosen:
            weight = 1
            for other in chosen:
                if other.x != share.x:
                    weight = gf256.gf_mul(
                        weight, gf256.gf_mul(other.x, gf256.gf_inv(other.x ^ share.x)))
            for position, byte in enumerate(share.data):
                expected[position] ^= gf256.gf_mul(weight, byte)
        assert combine_secret(chosen, 3) == bytes(expected) == b"\x00\x01\x7f\xff"


class TestSymmetricCipher:
    def test_round_trip(self):
        key = generate_key(random.Random(0))
        cipher = SymmetricCipher(key)
        data = b"attack at dawn" * 100
        assert cipher.decrypt(cipher.encrypt(data, random.Random(1))) == data

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            SymmetricCipher(b"short")

    def test_generated_keys_have_expected_size(self):
        assert len(generate_key(random.Random(0))) == KEY_SIZE

    def test_ciphertext_differs_from_plaintext(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        data = b"x" * 64
        assert cipher.encrypt(data, random.Random(1))[16:-32] != data

    def test_tampering_is_detected(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        blob = bytearray(cipher.encrypt(b"data" * 50, random.Random(1)))
        blob[20] ^= 0xFF
        with pytest.raises(ValueError):
            cipher.decrypt(bytes(blob))

    def test_wrong_key_is_detected(self):
        blob = SymmetricCipher(generate_key(random.Random(0))).encrypt(b"data", random.Random(1))
        other = SymmetricCipher(generate_key(random.Random(2)))
        with pytest.raises(ValueError):
            other.decrypt(blob)

    def test_truncated_blob_rejected(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        with pytest.raises(ValueError):
            cipher.decrypt(b"tiny")

    def test_empty_plaintext(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        assert cipher.decrypt(cipher.encrypt(b"", random.Random(1))) == b""

    def test_overhead_is_constant(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        blob = cipher.encrypt(b"z" * 1000, random.Random(1))
        assert len(blob) - 1000 == cipher.overhead()


class TestGenerateKeyDerivation:
    """generate_key must keep the historic seeded-RNG byte stream forever.

    Pinned scenario fingerprints replay whole simulations; if key derivation
    consumed the underlying Mersenne Twister stream differently, every pinned
    run would silently re-key.  The pins below were produced by the original
    per-byte ``rng.randrange(256)`` loop.
    """

    def test_seeded_derivation_is_pinned(self):
        key = generate_key(random.Random(1234))
        assert key.hex() == ("e13b032e112a32b579080f08b1f7ed4c"
                             "2e5d3a07f97f21ee232d178a209af6b5")

    def test_rng_state_after_derivation_is_pinned(self):
        # The *state* the RNG is left in matters as much as the key bytes:
        # the simulation draws nonces and latencies from the same stream.
        rng = random.Random(1234)
        generate_key(rng)
        assert rng.random() == pytest.approx(0.2664542440261849, abs=0.0)

    def test_matches_historic_per_byte_loop(self):
        for seed in range(10):
            reference_rng = random.Random(seed)
            reference = bytes(reference_rng.randrange(256)
                              for _ in range(KEY_SIZE))
            rng = random.Random(seed)
            assert generate_key(rng) == reference
            assert rng.getstate() == reference_rng.getstate()


class TestEncryptInto:
    def test_matches_encrypt_byte_for_byte(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        data = b"in-place encryption" * 37
        blob = cipher.encrypt(data, random.Random(5))
        out = np.full(len(data) + cipher.overhead(), 0x55, dtype=np.uint8)
        returned = cipher.encrypt_into(data, out, random.Random(5))
        assert returned is out
        assert out.tobytes() == blob

    def test_round_trips_through_decrypt(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        data = b"decryptable" * 100
        out = np.empty(len(data) + cipher.overhead(), dtype=np.uint8)
        cipher.encrypt_into(data, out, random.Random(3))
        assert cipher.decrypt(out.tobytes()) == data

    def test_accepts_a_view_into_a_larger_buffer(self):
        # The write pipeline passes the erasure coder's framed payload region.
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        data = b"view target" * 20
        backing = np.zeros(len(data) + cipher.overhead() + 64, dtype=np.uint8)
        view = backing[32:32 + len(data) + cipher.overhead()]
        cipher.encrypt_into(data, view, random.Random(9))
        assert cipher.decrypt(view.tobytes()) == data

    def test_validates_out(self):
        cipher = SymmetricCipher(generate_key(random.Random(0)))
        data = b"payload"
        with pytest.raises(ValueError, match="uint8"):
            cipher.encrypt_into(
                data, np.zeros(len(data) + cipher.overhead(), dtype=np.uint16),
                random.Random(1))
        with pytest.raises(ValueError, match="uint8"):
            cipher.encrypt_into(data, np.zeros(5, dtype=np.uint8), random.Random(1))
        two_d = np.zeros((1, len(data) + cipher.overhead()), dtype=np.uint8)
        with pytest.raises(ValueError, match="1-D"):
            cipher.encrypt_into(data, two_d, random.Random(1))
