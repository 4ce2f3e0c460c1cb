"""Round-based quadratic-residue zero-knowledge proofs.

One proof system per variant: ``BASIC``, the commit/challenge/respond
scheme, and ``Hardened``, which binds every response to a per-session
polynomial so recorded transcripts cannot be replayed across sessions.
``prove``, ``verify`` and ``verify_interactive`` run either one. A verifier
builds the system from its own session configuration; the variant byte of a
received proof must match it and never selects it. A proof carries no
polynomial seed: each verifier derives its own polynomial.

Wire format of a proof under modulus m, big-endian, with width =
(m.bit_length() + 7) // 8 and every field fixed-width, so the header fixes
the length and each proof has exactly one encoding:

    header   variant (1 byte: 0 basic, 1 hardened), secret-id count (2),
             round count (2), k = challenge bits per round (2)
    ids      4 bytes per secret id
    rounds   W (width bytes), challenge (ceil(k/8) bytes, bit i = b_i),
             Y (width bytes); W and Y are below m
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
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


@dataclass(frozen=True)
class SessionPolynomial:
    coefficients: tuple[int, ...]
    modulus: int
    seed: bytes
    # (base, scale, m) -> the inner sum's terms, built by a proof's first
    # round and read by its others; a polynomial serves one proof per side
    term_tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)


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


def challenge_bits(challenge: Sequence[int]) -> int:
    """The challenge as one integer with bit i = b_i, as ``draw_challenge`` reads it."""
    v = 0
    for i, b in enumerate(challenge):
        v |= (b & 1) << i
    return v


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


def _term_table(
    poly: SessionPolynomial, base: int, scale: int, m: int
) -> tuple[int, tuple[int, ...]]:
    """The inner sum's terms for ``base``, built once per proof: with
    x = base^scale, the sum of every term at b_t = 0 (sum_t a_t) and, per
    t, what b_t = 1 adds to it (a_t * x^t mod m - a_t)."""
    key = (base, scale, m)
    table = poly.term_tables.get(key)
    if table is None:
        x, x_t, steps = pow(base, scale, m), 1, []
        for t, a_t in enumerate(poly.coefficients):
            if t:
                x_t = x_t * x % m
            steps.append(a_t * x_t % m - a_t)
        table = poly.term_tables[key] = (sum(poly.coefficients), tuple(steps))
    return table


def _poly_factor(poly: SessionPolynomial, base: int, challenge: Sequence[int], scale: int, m: int) -> int:
    """Inner sum  sum_t a_t * base^(scale*t*b_t)  mod m."""
    total, steps = _term_table(poly, base, scale, m)
    return sum(compress(steps, challenge), total) % m


def _poly_product(
    poly: SessionPolynomial, values: Sequence[int], challenge: Sequence[int], scale: int, m: int
) -> int:
    """prod_v( inner sum for base v ) mod m."""
    prod = 1
    for v in values:
        prod = prod * _poly_factor(poly, v, challenge, scale, m) % m
    return prod


def hardened_respond(
    r: int,
    secrets: Sequence[int],
    challenge: Sequence[int],
    poly: SessionPolynomial,
    m: int,
) -> int:
    """Y = R^2 * prod_i( sum_t a_t * S_i^(2t*b_t) ) mod m.

    The product is a unit iff every factor is, so one gcd decides whether
    the round is degenerate."""
    if len(secrets) != len(challenge) or len(challenge) != len(poly.coefficients):
        raise ChallengeLengthMismatch("secrets/challenge/coefficients disagree")
    g = _poly_product(poly, secrets, challenge, 2, m)
    if gcd(g, m) != 1:
        raise DegenerateEvaluation("inner sum is not a unit; re-run the round")
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
    prod = _poly_product(poly, witnesses, challenge, 1, m)
    rhs = w * prod % m
    return gcd(prod, m) == 1 and y % m in (rhs, -rhs % m)


# -------------------------------------------------------- proof systems


class Basic:
    """Y = R * prod(S_i for challenged i), checked by ``verify_round``."""

    variant = Variant.BASIC

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
    return ZkpProof(secret_ids=tuple(secret_ids), rounds=tuple(rounds), variant=system.variant)


def _round_ok(system, w, challenge, y, witnesses, m) -> bool:
    """One round of ``system``, for both ``verify`` and ``verify_interactive``:
    one challenge bit per witness and a nonzero commitment, since W = 0
    (mod m) with Y = 0 satisfies both variants' equations without a secret."""
    return (
        len(challenge) == len(witnesses)
        and w % m != 0
        and system.check(w, challenge, y, witnesses, m)
    )


def verify(system, proof: ZkpProof, witnesses: Sequence[int], m: int, h: int) -> bool:
    """Check a recorded transcript once against the verifier's own system.

    It must carry that system's variant, exactly h rounds and one challenge
    bit per witness in every round.
    """
    if h < 1 or proof.variant is not system.variant or len(proof.rounds) != h:
        return False
    return all(_round_ok(system, rd.w, rd.challenge, rd.y, witnesses, m) for rd in proof.rounds)


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
    for _ in range(h):
        w = prover.commit()
        challenge = draw_challenge(verifier_rng, k)
        y = prover.respond(challenge)
        if transcript is not None:
            transcript.append(ZkpRound(w=w, challenge=challenge, y=y))
        if not _round_ok(system, w, challenge, y, witnesses, m):
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
_HEADER = struct.Struct(">BHHH")  # variant, secret-id count, round count, k


def encode_proof(proof: ZkpProof, m: int) -> bytes:
    """The proof's fixed-width bytes under modulus ``m`` (layout in the
    module docstring); every round must carry the same number of bits."""
    width = (m.bit_length() + 7) // 8
    k = len(proof.rounds[0].challenge) if proof.rounds else 0
    ids = proof.secret_ids
    out = [
        _HEADER.pack(_VARIANTS.index(proof.variant), len(ids), len(proof.rounds), k),
        struct.pack(f">{len(ids)}I", *ids),
    ]
    for rd in proof.rounds:
        if len(rd.challenge) != k:
            raise ChallengeLengthMismatch(f"round of {len(rd.challenge)} bits in a k={k} proof")
        out += (
            rd.w.to_bytes(width, "big"),
            challenge_bits(rd.challenge).to_bytes((k + 7) // 8, "big"),
            rd.y.to_bytes(width, "big"),
        )
    return b"".join(out)


def decode_proof(blob: bytes, m: int) -> ZkpProof:
    """Inverse of ``encode_proof``: the blob must be exactly as long as its
    header says and hold only values below ``m`` (and below 2^k for the
    challenge bits), so each proof has one encoding; else ``MalformedProof``."""
    if len(blob) < _HEADER.size:
        raise MalformedProof(f"{len(blob)} bytes is shorter than the header")
    code, n_ids, n_rounds, k = _HEADER.unpack_from(blob)
    width, ch_bytes = (m.bit_length() + 7) // 8, (k + 7) // 8
    step = 2 * width + ch_bytes
    start = _HEADER.size + 4 * n_ids
    if len(blob) != start + n_rounds * step:
        raise MalformedProof(f"{len(blob)} bytes, the header says {start + n_rounds * step}")
    if code >= len(_VARIANTS):
        raise MalformedProof(f"unknown variant byte {code}")
    if k and not n_rounds:
        raise MalformedProof(f"k={k} in a proof with no rounds")
    rounds = []
    for off in range(start, len(blob), step):
        w = int.from_bytes(blob[off : off + width], "big")
        bits = int.from_bytes(blob[off + width : off + width + ch_bytes], "big")
        y = int.from_bytes(blob[off + width + ch_bytes : off + step], "big")
        if w >= m or y >= m or bits >> k:
            raise MalformedProof("a round value is out of range")
        rounds.append(ZkpRound(w=w, challenge=tuple((bits >> i) & 1 for i in range(k)), y=y))
    return ZkpProof(
        secret_ids=struct.unpack_from(f">{n_ids}I", blob, _HEADER.size),
        rounds=tuple(rounds),
        variant=_VARIANTS[code],
    )
