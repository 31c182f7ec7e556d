"""Tests for the crypto layer: AEAD, log chains, key ring, signatures."""

import hmac
import random
from hashlib import sha256

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto import (
    Aead,
    HmacSha256,
    KeyRing,
    LogChain,
    SigningKey,
    derive_key,
    digest,
    generate_keypair,
)
from repro.crypto.aead import IV_BYTES, KEY_BYTES, MAC_BYTES
from repro.errors import AuthenticationError, IntegrityError

KEY = bytes(range(32))
IV = b"\x01" * IV_BYTES


class TestAead:
    def test_roundtrip(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"hello world", aad=b"hdr")
        assert aead.open(sealed, aad=b"hdr") == b"hello world"

    def test_empty_plaintext(self):
        aead = Aead(KEY)
        assert aead.open(aead.seal(IV, b"")) == b""

    def test_wire_layout_sizes(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"x" * 100)
        assert len(sealed) == IV_BYTES + 100 + MAC_BYTES
        assert Aead.sealed_size(100) == len(sealed)
        assert sealed[:IV_BYTES] == IV

    def test_ciphertext_hides_plaintext(self):
        aead = Aead(KEY)
        plaintext = b"secret-value" * 10
        sealed = aead.seal(IV, plaintext)
        assert plaintext not in sealed

    @pytest.mark.parametrize("position", [0, IV_BYTES, IV_BYTES + 5, -1])
    def test_any_bit_flip_detected(self, position):
        aead = Aead(KEY)
        sealed = bytearray(aead.seal(IV, b"payload-bytes", aad=b"a"))
        sealed[position] ^= 0x01
        with pytest.raises(IntegrityError):
            aead.open(bytes(sealed), aad=b"a")

    def test_aad_mismatch_detected(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"data", aad=b"txn=1")
        with pytest.raises(IntegrityError):
            aead.open(sealed, aad=b"txn=2")

    def test_wrong_key_detected(self):
        sealed = Aead(KEY).seal(IV, b"data")
        with pytest.raises(IntegrityError):
            Aead(bytes(32)).open(sealed)

    def test_truncated_blob_detected(self):
        with pytest.raises(IntegrityError):
            Aead(KEY).open(b"short")

    def test_distinct_ivs_give_distinct_ciphertexts(self):
        aead = Aead(KEY)
        first = aead.seal(b"\x01" * 12, b"same")
        second = aead.seal(b"\x02" * 12, b"same")
        assert first[IV_BYTES:] != second[IV_BYTES:]

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            Aead(b"short")
        with pytest.raises(ValueError):
            Aead(KEY).seal(b"shortiv", b"data")

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1000, 65537])
    def test_roundtrip_and_size_at_every_length_class(self, length):
        aead = Aead(KEY)
        plaintext = bytes(i * 7 % 251 for i in range(length))
        sealed = aead.seal(IV, plaintext, aad=b"hdr")
        assert len(sealed) == Aead.sealed_size(length)
        assert aead.open(sealed, aad=b"hdr") == plaintext

    def test_keystream_is_a_function_of_key_and_iv(self):
        plaintext = b"\x00" * 96
        body = slice(IV_BYTES, -MAC_BYTES)
        base = Aead(KEY).seal(IV, plaintext)[body]
        assert base == Aead(KEY).seal(IV, plaintext)[body]  # deterministic
        assert base != Aead(KEY).seal(b"\x02" * IV_BYTES, plaintext)[body]
        assert base != Aead(bytes(32)).seal(IV, plaintext)[body]
        # No short cycle: a repeating keystream would leak plaintext XORs.
        assert len({base[i : i + 32] for i in range(0, 96, 32)}) == 3

    def test_tamper_of_every_position_class_detected(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"p" * 70, aad=b"aad")
        for position in range(len(sealed)):  # IV, body and tag bytes alike
            forged = bytearray(sealed)
            forged[position] ^= 0x80
            with pytest.raises(IntegrityError):
                aead.open(bytes(forged), aad=b"aad")
        for aad in (b"", b"aae", b"aad\x00"):
            with pytest.raises(IntegrityError):
                aead.open(sealed, aad=aad)
        # Moving a byte across the aad / ciphertext boundary must not verify.
        first, rest = sealed[IV_BYTES : IV_BYTES + 1], sealed[IV_BYTES + 1 :]
        with pytest.raises(IntegrityError):
            aead.open(sealed[:IV_BYTES] + rest, aad=b"aad" + first)

    def test_one_native_call_per_seal_and_per_open(self):
        """Cost guard by count: one seal is one native encrypt and one open
        one native decrypt, for 64 B as for 64 KiB."""
        calls = []

        class Counted:
            def __init__(self, inner):
                self._inner = inner

            def encrypt(self, *args):
                calls.append("encrypt")
                return self._inner.encrypt(*args)

            def decrypt(self, *args):
                calls.append("decrypt")
                return self._inner.decrypt(*args)

        aead = Aead(KEY)
        aead._gcm = Counted(aead._gcm)
        for length in (64, 64 * 1024):
            sealed = aead.seal(IV, b"m" * length)
            assert calls == ["encrypt"]
            assert aead.open(sealed) == b"m" * length
            assert calls == ["encrypt", "decrypt"]
            del calls[:]

    @pytest.mark.parametrize("plaintext, sealed_hex", [
        # McGrew & Viega, "The Galois/Counter Mode of Operation", test
        # case 13 (empty plaintext) and 14 (16 zero bytes): key and IV zero
        (b"", "530f8afbc74536b9a963b4f1c4cb738b"),
        (bytes(16), "cea7403d4d606b6e074ec5d3baf39d18"
                    "d0d1c8a799996bf0265b98b5d48ab919"),
    ])
    def test_gcm_known_answers(self, plaintext, sealed_hex):
        """The primitive behind :class:`Aead` is AES-256-GCM, and a seal is
        the IV followed by exactly its output."""
        zero_iv = bytes(IV_BYTES)
        assert AESGCM(bytes(32)).encrypt(zero_iv, plaintext, b"").hex() == (
            sealed_hex)
        aead = Aead(KEY)
        aead._gcm = AESGCM(bytes(32))
        sealed = aead.seal(zero_iv, plaintext)
        assert sealed == zero_iv + bytes.fromhex(sealed_hex)
        assert aead.open(sealed) == plaintext

    @pytest.mark.parametrize("lengths", [
        range(0, 16), range(16, 64), range(64, 256), range(256, 1024),
        range(1024, 4096), range(4096, 5001),
    ], ids=lambda lengths: "%d-%d" % (lengths[0], lengths[-1]))
    def test_seal_is_iv_then_aes_gcm_under_the_hmac_subkey(self, lengths):
        """For every length 0-5000: ``IV || AESGCM(subkey).encrypt(...)``,
        the subkey ``HMAC-SHA256(key, "treaty-enc")``."""
        rng = random.Random(lengths[0])
        key, iv = rng.randbytes(KEY_BYTES), rng.randbytes(IV_BYTES)
        data, aad = rng.randbytes(lengths[-1]), rng.randbytes(40)
        gcm = AESGCM(hmac.new(key, b"treaty-enc", sha256).digest())
        aead = Aead(key)
        for length in lengths:
            plaintext = data[:length]
            sealed = aead.seal(iv, plaintext, aad[: length % 41])
            assert sealed == iv + gcm.encrypt(iv, plaintext, aad[: length % 41])


#: RFC 4231 §4.2-§4.8: (key, data, HMAC-SHA-256 hex; case 5 is truncated
#: to 128 bits)
RFC_4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


class TestHmacSha256:
    @pytest.mark.parametrize("key, data, expected", RFC_4231)
    def test_rfc_4231_known_answers(self, key, data, expected):
        assert HmacSha256(key).digest(data).hex().startswith(expected)

    @pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 200])
    def test_equals_stdlib_hmac_and_is_reusable(self, key_len):
        rng = random.Random(key_len)
        key = rng.randbytes(key_len)
        mac = HmacSha256(key)
        for data_len in (0, 1, 55, 64, 1000):
            data = rng.randbytes(data_len)
            assert mac.digest(data) == hmac.new(key, data, sha256).digest()


class TestLogChain:
    def test_append_then_verify_replay(self):
        writer = LogChain(KEY)
        entries = [(i, b"entry-%d" % i) for i in range(10)]
        tags = [writer.append(counter, body) for counter, body in entries]

        reader = LogChain(KEY)
        for (counter, body), tag in zip(entries, tags):
            reader.verify_next(counter, body, tag)
        assert reader.state.count == 10

    def test_modified_entry_detected(self):
        writer = LogChain(KEY)
        tag = writer.append(1, b"original")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(1, b"tampered", tag)

    def test_dropped_entry_detected(self):
        writer = LogChain(KEY)
        writer.append(1, b"first")
        tag2 = writer.append(2, b"second")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(2, b"second", tag2)  # skipped entry 1

    def test_reordered_entries_detected(self):
        writer = LogChain(KEY)
        tag1 = writer.append(1, b"first")
        tag2 = writer.append(2, b"second")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(2, b"second", tag2)
        reader2 = LogChain(KEY)
        reader2.verify_next(1, b"first", tag1)  # correct order still fine

    def test_counter_value_is_authenticated(self):
        writer = LogChain(KEY)
        tag = writer.append(5, b"body")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(6, b"body", tag)

    def test_tags_equal_stdlib_hmac(self):
        """Chains written before the keyed-state helper still verify:
        every tag is ``HMAC(key, previous || counter || body)``."""
        rng = random.Random(7)
        writer, previous = LogChain(KEY), b"\x00" * 32
        for _ in range(20):
            counter, body = rng.randrange(2**64), rng.randbytes(rng.randrange(300))
            expected = hmac.new(
                KEY, previous + counter.to_bytes(8, "little") + body, sha256
            ).digest()
            assert writer.append(counter, body) == expected
            previous = expected


class TestKeys:
    def test_derivation_is_deterministic_and_labelled(self):
        root = KEY
        assert derive_key(root, "a") == derive_key(root, "a")
        assert derive_key(root, "a") != derive_key(root, "b")
        assert derive_key(root, "a", "b") != derive_key(root, "b", "a")
        assert len(derive_key(root, "x")) == KEY_BYTES

    def test_keyring_separates_purposes(self):
        ring = KeyRing(KEY)
        assert ring.subkey("network") != ring.subkey("storage")
        assert ring.log_auth_key("WAL") != ring.log_auth_key("Clog")

    def test_keyring_aead_cached_and_functional(self):
        ring = KeyRing(KEY)
        assert ring.network_aead() is ring.network_aead()
        sealed = ring.storage_aead().seal(IV, b"v")
        assert ring.storage_aead().open(sealed) == b"v"

    def test_storage_key_is_scoped_to_its_sealer(self):
        ring = KeyRing(KEY)
        sealed = ring.storage_aead("node0", "memtable").seal(IV, b"v")
        assert KeyRing(KEY).storage_aead("node0", "memtable").open(sealed) == b"v"
        for other in (("node1", "memtable"), ("node0", "sstable"), ()):
            with pytest.raises(IntegrityError):
                ring.storage_aead(*other).open(sealed)

    def test_same_root_same_keys_across_nodes(self):
        assert KeyRing(KEY).subkey("network") == KeyRing(KEY).subkey("network")

    def test_root_length_validated(self):
        with pytest.raises(ValueError):
            KeyRing(b"short")


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        signing, verify = generate_keypair(b"seed-material-01", "node1")
        signature = signing.sign(b"message")
        verify.verify(b"message", signature)  # no exception

    def test_tampered_message_rejected(self):
        signing, verify = generate_keypair(b"seed-material-01", "node1")
        signature = signing.sign(b"message")
        with pytest.raises(AuthenticationError):
            verify.verify(b"other", signature)

    def test_cross_key_rejected(self):
        signing1, _ = generate_keypair(b"seed-material-01", "node1")
        _, verify2 = generate_keypair(b"seed-material-01", "node2")
        with pytest.raises(AuthenticationError):
            verify2.verify(b"m", signing1.sign(b"m"))

    def test_deterministic_keypairs(self):
        s1, _ = generate_keypair(b"seed", "id")
        s2, _ = generate_keypair(b"seed", "id")
        assert s1.sign(b"m") == s2.sign(b"m")

    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            SigningKey(b"tiny", "x")


def test_digest_is_sha256_sized():
    assert len(digest(b"data")) == 32
    assert digest(b"a") != digest(b"b")
