"""Pluggable encryption envelopes and the session wire format.

The protocol logic is the artifact; ciphers are swappable. The reference
constructions are AES-128-GCM for the symmetric envelope and an
X25519 + HKDF + AES-GCM seal for the asymmetric one. ``StubEnvelope`` /
``StubSeal`` are NOT SECURE: they exist only for deterministic test
fixtures and label their output accordingly.
"""

from __future__ import annotations

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .numtheory import Rng

SESSION_KEY_BYTES = 16  # 128-bit symmetric session keys


class EnvelopeFailure(ValueError):
    """An envelope failed to open (wrong key, tamper, or malformed blob)."""


class AesGcmEnvelope:
    """Authenticated encryption under a 128-bit key; nonce from the caller's rng."""

    def seal(self, key: bytes, plaintext: bytes, rng: Rng) -> bytes:
        nonce = rng.randbytes(12)
        return nonce + AESGCM(key).encrypt(nonce, plaintext, None)

    def open(self, key: bytes, blob: bytes) -> bytes:
        if len(blob) < 12 + 16:
            raise EnvelopeFailure("symmetric blob too short")
        try:
            return AESGCM(key).decrypt(blob[:12], blob[12:], None)
        except Exception as exc:
            raise EnvelopeFailure("symmetric envelope rejected") from exc


class StubEnvelope:
    """Deterministic non-encrypting stand-in for tests. NOT SECURE."""

    _MAGIC = b"STUB-SYM:"

    def seal(self, key: bytes, plaintext: bytes, rng: Rng) -> bytes:
        return self._MAGIC + key + plaintext

    def open(self, key: bytes, blob: bytes) -> bytes:
        prefix = self._MAGIC + key
        if not blob.startswith(prefix):
            raise EnvelopeFailure("stub envelope key mismatch")
        return blob[len(prefix):]


def generate_seal_keypair(rng: Rng) -> tuple[bytes, bytes]:
    """(private, public) raw 32-byte X25519 keypair from the given rng."""
    priv = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    pub = priv.public_key()
    return (
        priv.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        ),
        pub.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw),
    )


class EciesSeal:
    """Ephemeral X25519 + HKDF-SHA256 + AES-128-GCM public-key seal.

    ``open`` keeps the last private key it parsed, keyed by its raw bytes:
    the verifier that owns the instance holds those bytes for its lifetime,
    so the cache keeps no secret its owner does not.
    """

    _INFO = b"anonauth-seal-v1"

    def __init__(self):
        self._loaded: tuple[bytes, X25519PrivateKey] | None = None

    @classmethod
    def _key(cls, shared: bytes) -> bytes:
        """The AES-128 key both ends derive from the X25519 shared secret."""
        return HKDF(algorithm=hashes.SHA256(), length=16, salt=None, info=cls._INFO).derive(shared)

    def seal(self, recipient_public: bytes, plaintext: bytes, rng: Rng) -> bytes:
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        key = self._key(eph.exchange(X25519PublicKey.from_public_bytes(recipient_public)))
        eph_pub = eph.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        nonce = rng.randbytes(12)
        return eph_pub + nonce + AESGCM(key).encrypt(nonce, plaintext, None)

    def open(self, recipient_private: bytes, blob: bytes) -> bytes:
        if len(blob) < 32 + 12 + 16:
            raise EnvelopeFailure("asymmetric blob too short")
        if self._loaded is None or self._loaded[0] != recipient_private:
            self._loaded = (
                bytes(recipient_private),
                X25519PrivateKey.from_private_bytes(recipient_private),
            )
        priv = self._loaded[1]
        try:
            key = self._key(priv.exchange(X25519PublicKey.from_public_bytes(blob[:32])))
            return AESGCM(key).decrypt(blob[32:44], blob[44:], None)
        except Exception as exc:
            raise EnvelopeFailure("asymmetric seal rejected") from exc


class StubSeal(StubEnvelope):
    """Deterministic non-encrypting public-key stand-in for tests: a stub
    envelope under the recipient's key, as stub pairs use public == private
    bytes. NOT SECURE."""

    _MAGIC = b"STUB-SEAL:"


# ------------------------------------------------------------ wire format
# tag byte || session key id (8 bytes) || 4-byte length || ciphertext

MSG_BEACON = 0x01
MSG_AUTH_REQUEST = 0x02
MSG_COMMITMENTS = 0x03  # a proof's first move, membership or bundle
MSG_PROOF_SETS = 0x04
MSG_CHALLENGES = 0x05  # the verifier's challenges
MSG_ALPHA_REPLY = 0x06
MSG_ANSWERS = 0x07  # the prover's answers

NO_KEY_ID = b"\x00" * 8


def encode_message(tag: int, key_id: bytes, ciphertext: bytes) -> bytes:
    if len(key_id) != 8:
        raise ValueError("key id must be 8 bytes")
    return bytes([tag]) + key_id + len(ciphertext).to_bytes(4, "big") + ciphertext


def decode_message(frame: bytes) -> tuple[int, bytes, bytes]:
    if len(frame) < 13:
        raise EnvelopeFailure("frame too short")
    tag = frame[0]
    key_id = frame[1:9]
    n = int.from_bytes(frame[9:13], "big")
    if len(frame) != 13 + n:
        raise EnvelopeFailure("frame length mismatch")
    return tag, key_id, frame[13:]
