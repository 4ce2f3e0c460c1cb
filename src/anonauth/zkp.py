"""Round-based quadratic-residue zero-knowledge proofs.

One proof system per variant: ``BASIC``, the commit/challenge/respond
scheme, and ``Hardened``, which binds every response to a per-session
polynomial so recorded transcripts cannot be replayed across sessions.
``prove``, ``verify`` and ``verify_interactive`` run either one. A verifier
builds the system from its own session configuration; the variant byte of a
received proof must match it and never selects it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .numtheory import Rng, gcd, sample_unit

DEFAULT_COEFF_MODULUS = (1 << 61) - 1  # public prime; must exceed any k in use
_HARDENED_MAX_RETRIES = 64


class DegenerateParameters(ValueError):
    """k = 0 or h = 0 would make the proof a vacuous accept."""


class ChallengeLengthMismatch(ValueError):
    """Prover and verifier disagree on the number of secrets per round."""


class DegenerateEvaluation(ArithmeticError):
    """A polynomial evaluation hit zero or a non-unit; round must re-run."""


class MalformedProof(ValueError):
    """A proof blob is truncated, has trailing bytes or an unknown variant."""


class Variant(Enum):
    BASIC = "basic"
    HARDENED = "hardened"


@dataclass(frozen=True)
class ZkpRound:
    w: int
    challenge: tuple[int, ...]
    y: int


@dataclass(frozen=True)
class ZkpProof:
    secret_ids: tuple[int, ...]
    rounds: tuple[ZkpRound, ...]
    variant: Variant = Variant.BASIC
    poly_seed: Optional[bytes] = None


@dataclass(frozen=True)
class SessionPolynomial:
    coefficients: tuple[int, ...]
    modulus: int
    seed: bytes


# ---------------------------------------------------------------- basic


def prover_commit(rng: Rng, m: int) -> tuple[int, int]:
    """Pick private R, return (R, W) with W = +-R^2 mod m."""
    r = sample_unit(rng, m)
    w = (rng.choice_sign() * r * r) % m
    return r, w


def prover_respond(r: int, secrets: Sequence[int], challenge: Sequence[int], m: int) -> int:
    if len(secrets) != len(challenge):
        raise ChallengeLengthMismatch(
            f"{len(secrets)} secrets vs {len(challenge)} challenge bits"
        )
    y = r
    for s, b in zip(secrets, challenge):
        if b:
            y = (y * s) % m
    return y


def verify_round(
    w: int, challenge: Sequence[int], y: int, witnesses: Sequence[int], m: int
) -> bool:
    """Accept iff Y^2 = +-W * prod(I_i for challenged i) mod m.

    The +- absorbs the sign freedom in both the commitment and the
    witnesses (I_x = +-S_x^2).
    """
    if len(witnesses) != len(challenge):
        raise ChallengeLengthMismatch(
            f"{len(witnesses)} witnesses vs {len(challenge)} challenge bits"
        )
    lhs = (y * y) % m
    rhs = w % m
    for i_x, b in zip(witnesses, challenge):
        if b:
            rhs = (rhs * i_x) % m
    return lhs == rhs or lhs == (-rhs) % m


def draw_challenge(rng: Rng, k: int) -> tuple[int, ...]:
    bits = rng.randbits(k)
    return tuple((bits >> i) & 1 for i in range(k))


# ------------------------------------------------------------- hardened


def derive_session_polynomial(
    seed: bytes, k: int, coeff_modulus: int = DEFAULT_COEFF_MODULUS
) -> SessionPolynomial:
    """Derive k coefficients a_t = H(tag || seed || t) mod Q on both sides.

    An all-zero outcome is regenerated with an incremented domain tag so
    the polynomial is never identically zero.
    """
    if k < 2:
        raise DegenerateParameters("hardened variant requires k >= 2")
    tag = 0
    while True:
        coeffs = []
        for t in range(k):
            digest = hashlib.sha256(
                b"poly" + tag.to_bytes(4, "big") + seed + t.to_bytes(4, "big")
            ).digest()
            coeffs.append(int.from_bytes(digest, "big") % coeff_modulus)
        if any(coeffs):
            return SessionPolynomial(
                coefficients=tuple(coeffs), modulus=coeff_modulus, seed=seed
            )
        tag += 1


def _poly_factor(poly: SessionPolynomial, base: int, challenge: Sequence[int], scale: int, m: int) -> int:
    """Inner sum  sum_t a_t * base^(scale*t*b_t)  mod m."""
    total = 0
    for t, (a_t, b_t) in enumerate(zip(poly.coefficients, challenge)):
        total = (total + a_t * pow(base, scale * t * b_t, m)) % m
    return total


def hardened_respond(
    r: int,
    secrets: Sequence[int],
    challenge: Sequence[int],
    poly: SessionPolynomial,
    m: int,
) -> int:
    """Y = R^2 * prod_i( sum_t a_t * S_i^(2t*b_t) ) mod m."""
    if len(secrets) != len(challenge) or len(challenge) != len(poly.coefficients):
        raise ChallengeLengthMismatch("secrets/challenge/coefficients disagree")
    g = 1
    for s in secrets:
        inner = _poly_factor(poly, s, challenge, 2, m)
        if gcd(inner, m) != 1:
            raise DegenerateEvaluation("inner sum is not a unit; re-run the round")
        g = (g * inner) % m
    return (r * r % m) * g % m


def hardened_verify(
    w: int,
    challenge: Sequence[int],
    y: int,
    witnesses: Sequence[int],
    poly: SessionPolynomial,
    m: int,
) -> bool:
    """Accept iff P = prod_i( sum_t a_t * I_i^(t*b_t) ) is a unit and
    Y = +-W * P mod m: the accept set of Y / P = +-W without the inverse.
    A non-unit P (a degenerate round) returns False instead of raising."""
    if len(witnesses) != len(challenge) or len(challenge) != len(poly.coefficients):
        raise ChallengeLengthMismatch("witnesses/challenge/coefficients disagree")
    prod = 1
    for i_x in witnesses:
        prod = (prod * _poly_factor(poly, i_x, challenge, 1, m)) % m
    rhs = w * prod % m
    return gcd(prod, m) == 1 and y % m in (rhs, -rhs % m)


# -------------------------------------------------------- proof systems


class Basic:
    """Y = R * prod(S_i for challenged i), checked by ``verify_round``."""

    variant = Variant.BASIC
    poly_seed = None

    def respond(self, r, secrets, challenge, m) -> int:
        return prover_respond(r, secrets, challenge, m)

    def check(self, w, challenge, y, witnesses, m) -> bool:
        return verify_round(w, challenge, y, witnesses, m)


BASIC = Basic()


class Hardened:
    """Responses bound to one session polynomial; a degenerate evaluation
    on the witness side fails the round."""

    variant = Variant.HARDENED

    def __init__(self, poly: SessionPolynomial):
        if len(poly.coefficients) < 2:
            raise DegenerateParameters("hardened variant requires k >= 2")
        self.poly = poly
        self.poly_seed = poly.seed

    def respond(self, r, secrets, challenge, m) -> int:
        return hardened_respond(r, secrets, challenge, self.poly, m)

    def check(self, w, challenge, y, witnesses, m) -> bool:
        return hardened_verify(w, challenge, y, witnesses, self.poly, m)


def prove(
    system,
    secrets: Sequence[int],
    h: int,
    m: int,
    prover_rng: Rng,
    verifier_rng: Rng,
    secret_ids: Sequence[int] = (),
) -> ZkpProof:
    """The honest prover's h rounds; ``verifier_rng`` draws the challenges.

    A degenerate hardened round re-runs with a fresh R and challenge. The
    prover does not check its own rounds: with honest material the
    verifier's witness-side product equals the prover's, so a round that
    ``respond`` answers is never degenerate at the verifier.
    """
    k = len(secrets)
    if k < 1 or h < 1:
        raise DegenerateParameters("k and h must both be >= 1")
    rounds = []
    for _ in range(h):
        for _attempt in range(_HARDENED_MAX_RETRIES):
            r, w = prover_commit(prover_rng, m)
            challenge = draw_challenge(verifier_rng, k)
            try:
                y = system.respond(r, secrets, challenge, m)
            except DegenerateEvaluation:
                continue
            rounds.append(ZkpRound(w=w, challenge=challenge, y=y))
            break
        else:
            raise DegenerateEvaluation("could not find a non-degenerate round")
    return ZkpProof(
        secret_ids=tuple(secret_ids),
        rounds=tuple(rounds),
        variant=system.variant,
        poly_seed=system.poly_seed,
    )


def verify(system, proof: ZkpProof, witnesses: Sequence[int], m: int, h: int) -> bool:
    """Check a recorded transcript once against the verifier's own system.

    It must carry that system's variant, exactly h rounds and one challenge
    bit per witness in every round.
    """
    if h < 1 or proof.variant is not system.variant or len(proof.rounds) != h:
        return False
    k = len(witnesses)
    return all(
        len(rd.challenge) == k and system.check(rd.w, rd.challenge, rd.y, witnesses, m)
        for rd in proof.rounds
    )


def verify_interactive(
    system,
    prover,
    witnesses: Sequence[int],
    h: int,
    m: int,
    verifier_rng: Rng,
    transcript: Optional[list] = None,
) -> bool:
    """Play up to h rounds of ``system`` against any prover object and
    stop at the first round that fails.

    The prover exposes ``commit() -> W`` and ``respond(challenge) -> Y``.
    Every round played is appended to ``transcript`` when one is given.
    """
    k = len(witnesses)
    if k < 1 or h < 1:
        raise DegenerateParameters("k and h must both be >= 1")
    check = system.check
    for _ in range(h):
        w = prover.commit()
        challenge = draw_challenge(verifier_rng, k)
        y = prover.respond(challenge)
        if transcript is not None:
            transcript.append(ZkpRound(w=w, challenge=challenge, y=y))
        if not check(w, challenge, y, witnesses, m):
            return False
    return True


def run_proof(
    secrets: Sequence[int],
    witnesses: Sequence[int],
    k: int,
    h: int,
    m: int,
    prover_rng: Rng,
    verifier_rng: Rng,
    secret_ids: Sequence[int] = (),
) -> tuple[ZkpProof, bool]:
    """Honest basic proof, then its check: (transcript, verdict)."""
    if len(secrets) != k:
        raise ChallengeLengthMismatch(f"prover holds {len(secrets)} secrets, k={k}")
    proof = prove(BASIC, secrets, h, m, prover_rng, verifier_rng, secret_ids)
    return proof, verify(BASIC, proof, witnesses, m, h)


def run_hardened_proof(
    secrets: Sequence[int],
    witnesses: Sequence[int],
    poly: SessionPolynomial,
    h: int,
    m: int,
    prover_rng: Rng,
    verifier_rng: Rng,
    secret_ids: Sequence[int] = (),
) -> tuple[ZkpProof, bool]:
    """Honest hardened proof, then its check: (transcript, verdict)."""
    system = Hardened(poly)
    proof = prove(system, secrets, h, m, prover_rng, verifier_rng, secret_ids)
    return proof, verify(system, proof, witnesses, m, h)


# -------------------------------------------------------- serialization


_VARIANTS = (Variant.BASIC, Variant.HARDENED)  # index = wire byte


def _encode_int(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    return len(raw).to_bytes(4, "big") + raw


def _take(blob: bytes, off: int, n: int) -> tuple[bytes, int]:
    if off + n > len(blob):
        raise MalformedProof(f"{n} bytes needed at offset {off} of {len(blob)}")
    return blob[off : off + n], off + n


def _decode_uint(blob: bytes, off: int, n: int) -> tuple[int, int]:
    raw, off = _take(blob, off, n)
    return int.from_bytes(raw, "big"), off


def _decode_int(blob: bytes, off: int) -> tuple[int, int]:
    n, off = _decode_uint(blob, off, 4)
    return _decode_uint(blob, off, n)


def pack_challenge(challenge: Sequence[int]) -> bytes:
    k = len(challenge)
    bits = 0
    for i, b in enumerate(challenge):
        bits |= (b & 1) << i
    return k.to_bytes(2, "big") + bits.to_bytes((k + 7) // 8 or 1, "big")


def unpack_challenge(blob: bytes, off: int) -> tuple[tuple[int, ...], int]:
    k, off = _decode_uint(blob, off, 2)
    bits, off = _decode_uint(blob, off, (k + 7) // 8 or 1)
    return tuple((bits >> i) & 1 for i in range(k)), off


def encode_round(rd: ZkpRound) -> bytes:
    return _encode_int(rd.w) + pack_challenge(rd.challenge) + _encode_int(rd.y)


def decode_round(blob: bytes, off: int = 0) -> tuple[ZkpRound, int]:
    w, off = _decode_int(blob, off)
    challenge, off = unpack_challenge(blob, off)
    y, off = _decode_int(blob, off)
    return ZkpRound(w=w, challenge=challenge, y=y), off


def encode_proof(proof: ZkpProof) -> bytes:
    out = bytearray()
    out += _VARIANTS.index(proof.variant).to_bytes(1, "big")
    seed = proof.poly_seed or b""
    out += len(seed).to_bytes(2, "big") + seed
    out += len(proof.secret_ids).to_bytes(2, "big")
    for sid in proof.secret_ids:
        out += sid.to_bytes(4, "big")
    out += len(proof.rounds).to_bytes(2, "big")
    for rd in proof.rounds:
        out += encode_round(rd)
    return bytes(out)


def decode_proof(blob: bytes) -> ZkpProof:
    """Inverse of ``encode_proof``; every byte of ``blob`` must belong to
    the proof, else ``MalformedProof``."""
    code, off = _decode_uint(blob, 0, 1)
    if code >= len(_VARIANTS):
        raise MalformedProof(f"unknown variant byte {code}")
    seed_len, off = _decode_uint(blob, off, 2)
    poly_seed, off = _take(blob, off, seed_len)
    n_ids, off = _decode_uint(blob, off, 2)
    ids = []
    for _ in range(n_ids):
        sid, off = _decode_uint(blob, off, 4)
        ids.append(sid)
    n_rounds, off = _decode_uint(blob, off, 2)
    rounds = []
    for _ in range(n_rounds):
        rd, off = decode_round(blob, off)
        rounds.append(rd)
    if off != len(blob):
        raise MalformedProof(f"{len(blob) - off} trailing bytes")
    return ZkpProof(
        secret_ids=tuple(ids),
        rounds=tuple(rounds),
        variant=_VARIANTS[code],
        poly_seed=poly_seed or None,
    )
