import pytest
from hypothesis import given
from hypothesis import strategies as st

from anonauth.envelopes import (
    MSG_BEACON,
    NO_KEY_ID,
    AesGcmEnvelope,
    EciesSeal,
    EnvelopeFailure,
    StubEnvelope,
    StubSeal,
    decode_message,
    encode_message,
    generate_seal_keypair,
)
from anonauth.numtheory import Rng


class TestAesGcm:
    def test_round_trip(self):
        env = AesGcmEnvelope()
        key = bytes(range(16))
        blob = env.seal(key, b"hello", Rng(1))
        assert env.open(key, blob) == b"hello"

    def test_wrong_key_rejected(self):
        env = AesGcmEnvelope()
        blob = env.seal(bytes(16), b"hello", Rng(1))
        with pytest.raises(EnvelopeFailure):
            env.open(bytes([1]) * 16, blob)

    def test_tamper_rejected(self):
        env = AesGcmEnvelope()
        key = bytes(16)
        blob = bytearray(env.seal(key, b"hello", Rng(1)))
        blob[-1] ^= 1
        with pytest.raises(EnvelopeFailure):
            env.open(key, bytes(blob))

    def test_short_blob_rejected(self):
        with pytest.raises(EnvelopeFailure):
            AesGcmEnvelope().open(bytes(16), b"short")

    def test_deterministic_given_rng(self):
        env = AesGcmEnvelope()
        key = bytes(16)
        assert env.seal(key, b"x", Rng(7)) == env.seal(key, b"x", Rng(7))


class TestEciesSeal:
    def test_round_trip(self):
        priv, pub = generate_seal_keypair(Rng(3))
        seal = EciesSeal()
        blob = seal.seal(pub, b"payload", Rng(4))
        assert seal.open(priv, blob) == b"payload"

    def test_wrong_recipient_rejected(self):
        priv_a, pub_a = generate_seal_keypair(Rng(3))
        priv_b, _pub_b = generate_seal_keypair(Rng(5))
        seal = EciesSeal()
        blob = seal.seal(pub_a, b"payload", Rng(4))
        with pytest.raises(EnvelopeFailure):
            seal.open(priv_b, blob)

    def test_tamper_rejected(self):
        priv, pub = generate_seal_keypair(Rng(3))
        seal = EciesSeal()
        blob = bytearray(seal.seal(pub, b"payload", Rng(4)))
        blob[-1] ^= 0xFF
        with pytest.raises(EnvelopeFailure):
            seal.open(priv, bytes(blob))

    def test_short_blob_rejected(self):
        priv, _ = generate_seal_keypair(Rng(3))
        with pytest.raises(EnvelopeFailure):
            EciesSeal().open(priv, b"tiny")

    def test_one_instance_opens_for_interleaved_recipients(self):
        keys = [generate_seal_keypair(Rng(seed)) for seed in (3, 5)]
        seal = EciesSeal()
        blobs = [seal.seal(pub, b"to %d" % i, Rng(4 + i)) for i, (_, pub) in enumerate(keys)]
        for i in (0, 0, 1, 0, 1, 1):
            priv, before = keys[i][0], seal._loaded
            assert seal.open(priv, blobs[i]) == b"to %d" % i
            # one parsed key at a time, parsed again only when the bytes change
            assert vars(seal) == {"_loaded": (priv, seal._loaded[1])}
            assert (seal._loaded is before) == (before is not None and before[0] == priv)

    def test_cached_key_still_rejects_another_recipients_blob(self):
        (priv_a, pub_a), (priv_b, pub_b) = (generate_seal_keypair(Rng(s)) for s in (3, 5))
        seal = EciesSeal()
        blob_a, blob_b = seal.seal(pub_a, b"a", Rng(4)), seal.seal(pub_b, b"b", Rng(6))
        assert seal.open(priv_a, blob_a) == b"a"
        with pytest.raises(EnvelopeFailure):
            seal.open(priv_a, blob_b)
        with pytest.raises(EnvelopeFailure):
            seal.open(priv_b, blob_a)
        assert seal.open(priv_b, blob_b) == b"b"


class TestStubs:
    def test_stub_envelope_round_trip_and_label(self):
        env = StubEnvelope()
        blob = env.seal(b"k" * 16, b"body", Rng(1))
        assert blob.startswith(b"STUB-SYM:")
        assert env.open(b"k" * 16, blob) == b"body"
        with pytest.raises(EnvelopeFailure):
            env.open(b"j" * 16, blob)

    def test_stub_seal_round_trip_and_label(self):
        seal = StubSeal()
        blob = seal.seal(b"p" * 32, b"body", Rng(1))
        assert blob.startswith(b"STUB-SEAL:")
        assert seal.open(b"p" * 32, blob) == b"body"
        with pytest.raises(EnvelopeFailure):
            seal.open(b"q" * 32, blob)

    def test_stubs_are_deterministic(self):
        env = StubEnvelope()
        assert env.seal(b"k", b"x", Rng(1)) == env.seal(b"k", b"x", Rng(999))


class TestWireFormat:
    @given(st.integers(0, 255), st.binary(min_size=8, max_size=8), st.binary(max_size=64))
    def test_round_trip(self, tag, key_id, body):
        frame = encode_message(tag, key_id, body)
        assert decode_message(frame) == (tag, key_id, body)

    def test_key_id_length_enforced(self):
        with pytest.raises(ValueError):
            encode_message(MSG_BEACON, b"short", b"")

    def test_truncated_frame_rejected(self):
        frame = encode_message(MSG_BEACON, NO_KEY_ID, b"abcdef")
        with pytest.raises(EnvelopeFailure):
            decode_message(frame[:-1])
        with pytest.raises(EnvelopeFailure):
            decode_message(frame[:5])
