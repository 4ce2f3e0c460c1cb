"""Round-based quadratic-residue zero-knowledge proofs.

One proof system per variant: ``BASIC``, the commit/challenge/respond
scheme, and ``Hardened``, which binds every response to a per-session
polynomial so recorded transcripts cannot be replayed across sessions.
A verifier builds the system from its own session configuration; nothing in
a proof selects it. A proof carries no polynomial seed: each verifier
derives its own polynomial.

Proofs run in exchanges whose challenges the verifier owns, as
Feige-Fiat-Shamir soundness needs. A ``Prover`` and a ``Verifier`` are the
two halves of one exchange of any number of proofs, h rounds each, and
every move batches all their rounds, as bytes: the prover commits from its
own rng, the verifier draws the challenges from its own, the prover answers
each once from that round's state, and the verifier judges each proof from
the W it kept, the challenges it drew and the answers it received.

``verify_interactive`` plays the same rounds one at a time against any
prover object, for the threat models. A round's challenge is the int the
verifier draws, ``randbits(k)``, in every layer: bit i is b_i, the bit of
the i-th secret. The arithmetic reads it by shift and mask and raises
``ChallengeLengthMismatch`` on a bit at or above k.

Wire format of one move, big-endian: its values at one fixed width and
nothing else. The reader knows how many values to expect and their bound,
m for commitments and answers and 2^k for challenges, so each move has
exactly one encoding. The width is the bound's byte length, rounded up to
1, 2, 4 or 8 when it is at most 8, so one ``struct`` call packs a move.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, starmap
from typing import NamedTuple, Sequence

from .numtheory import Rng, gcd, sample_unit

DEFAULT_COEFF_MODULUS = (1 << 61) - 1  # public prime; must exceed any k in use
# witness values whose powers ``_powers`` keeps: a deployment's pool and
# master witnesses, about 1.5 KB each at 2048 bits and k = 5
POWER_CACHE_SIZE = 512


class DegenerateParameters(ValueError):
    """k = 0 or h = 0 would make the proof a vacuous accept."""


class ChallengeLengthMismatch(ValueError):
    """Prover and verifier disagree on the number of secrets per round, or a
    challenge has a bit at or above that number."""


class DegenerateEvaluation(ArithmeticError):
    """A polynomial evaluation hit zero or a non-unit; the round cannot be answered."""


class MalformedProof(ValueError):
    """A proof blob's length, secret ids or a value is not what the verifier expects."""


class Variant(Enum):
    BASIC = "basic"
    HARDENED = "hardened"


class ZkpRound(NamedTuple):
    w: int
    challenge: int
    y: int


@dataclass(frozen=True, slots=True)
class ZkpProof:
    secret_ids: tuple[int, ...]
    rounds: tuple[ZkpRound, ...]


@dataclass(frozen=True)
class SessionPolynomial:
    coefficients: tuple[int, ...]
    # (base, scale, m) -> the inner sum's terms, built by a proof's first
    # round and read by its others; a polynomial serves one proof per side
    term_tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# ---------------------------------------------------------------- basic


def verify_round(w: int, challenge: int, y: int, witnesses: Sequence[int], m: int) -> bool:
    """Accept iff Y^2 = +-W * prod(I_i for each bit i set in the challenge) mod m.

    The +- absorbs the sign freedom in both the commitment and the
    witnesses (I_x = +-S_x^2).
    """
    if challenge >> len(witnesses):  # a negative challenge shifts to -1
        raise ChallengeLengthMismatch(f"challenge {challenge} vs {len(witnesses)} witnesses")
    lhs = (y * y) % m
    rhs = w % m
    for i_x in witnesses:
        if challenge & 1:
            rhs = (rhs * i_x) % m
        challenge >>= 1
    return lhs == rhs or lhs == (-rhs) % m


# ------------------------------------------------------------- hardened


def derive_session_polynomial(seed: bytes, k: int) -> SessionPolynomial:
    """Derive k coefficients a_t = H(tag || seed || t) mod Q on both sides,
    with Q = ``DEFAULT_COEFF_MODULUS`` read at call time.

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
            coeffs.append(int.from_bytes(digest, "big") % DEFAULT_COEFF_MODULUS)
        if any(coeffs):
            return SessionPolynomial(coefficients=tuple(coeffs))
        tag += 1


@functools.lru_cache(maxsize=POWER_CACHE_SIZE)
def _powers(x: int, k: int, m: int) -> tuple[int, ...]:
    """(x^0, ..., x^(k-1)) mod m, kept across proofs and sessions.

    ``x`` is always a public witness: the verifier's I, or the prover's
    S^2 mod m, which is the provisioned witness of S. Every member already
    holds the pool witnesses and every verifier the master witnesses, and
    recovering S from S^2 mod m is as hard as factoring m, so the cache
    holds nothing a party does not already know. It never sees a secret S
    nor a session's coefficients: the a_t-weighted terms stay in the
    proof's own ``SessionPolynomial.term_tables``.
    """
    powers = [1]
    for _ in range(k - 1):
        powers.append(powers[-1] * x % m)
    return tuple(powers)


def _term_table(
    poly: SessionPolynomial, base: int, scale: int, m: int
) -> tuple[int, tuple[int, ...]]:
    """The inner sum's terms for ``base``, built once per proof: with
    x = base^scale, the sum of every term at b_t = 0 (sum_t a_t) and, per
    t, what b_t = 1 adds to it (a_t * x^t mod m - a_t)."""
    key = (base, scale, m)
    table = poly.term_tables.get(key)
    if table is None:
        coeffs = poly.coefficients
        powers = _powers(pow(base, scale, m), len(coeffs), m)
        steps = tuple(a_t * x_t % m - a_t for a_t, x_t in zip(coeffs, powers))
        table = poly.term_tables[key] = (sum(coeffs), steps)
    return table


def _poly_product(
    poly: SessionPolynomial, values: Sequence[int], challenge: int, scale: int, m: int
) -> int:
    """prod_v( sum_t a_t * v^(scale*t*b_t) ) mod m, each inner sum from v's term table."""
    prod = 1
    for v in values:
        inner, steps = _term_table(poly, v, scale, m)
        c = challenge
        for step in steps:
            if c & 1:
                inner += step
            c >>= 1
        prod = prod * inner % m
    return prod


def hardened_verify(
    w: int,
    challenge: int,
    y: int,
    witnesses: Sequence[int],
    poly: SessionPolynomial,
    m: int,
) -> bool:
    """Accept iff P = prod_i( sum_t a_t * I_i^(t*b_t) ) is a unit and
    Y = +-W * P mod m: the accept set of Y / P = +-W without the inverse.
    A non-unit P (a degenerate round) returns False instead of raising."""
    if challenge >> len(witnesses) or len(witnesses) != len(poly.coefficients):
        raise ChallengeLengthMismatch("witnesses/challenge/coefficients disagree")
    prod = _poly_product(poly, witnesses, challenge, 1, m)
    rhs = w * prod % m
    return gcd(prod, m) == 1 and y % m in (rhs, -rhs % m)


# -------------------------------------------------------- proof systems


def _commit(rng: Rng, m: int) -> tuple[int, int, int]:
    """Pick private R; return (R, R^2 mod m, W) with W = +-R^2 mod m, the
    sign from one ``rng.randbits(1)`` draw (1 is +). R is a unit, so R^2 is
    nonzero and m - R^2 is -R^2 mod m."""
    r = sample_unit(rng, m)
    r2 = r * r % m
    return r, r2, (r2 if rng.randbits(1) else m - r2)


class Basic:
    """Y = R * prod(S_i for challenged i), checked by ``verify_round``.
    ``commit`` keeps R as the round's private state."""

    def commit(self, rng: Rng, m: int) -> tuple[int, int]:
        r, _, w = _commit(rng, m)
        return r, w

    def respond(self, r: int, secrets: Sequence[int], challenge: int, m: int) -> int:
        if challenge >> len(secrets):
            raise ChallengeLengthMismatch(f"challenge {challenge} vs {len(secrets)} secrets")
        y = r
        for s in secrets:
            if challenge & 1:
                y = (y * s) % m
            challenge >>= 1
        return y

    def check(self, w, challenge, y, witnesses, m) -> bool:
        return verify_round(w, challenge, y, witnesses, m)


BASIC = Basic()


class Hardened:
    """Responses bound to one session polynomial; a degenerate evaluation
    on the witness side fails the round. ``commit`` keeps R^2 mod m as the
    round's state, so each round squares R once."""

    def __init__(self, poly: SessionPolynomial):
        if len(poly.coefficients) < 2:
            raise DegenerateParameters("hardened variant requires k >= 2")
        self.poly = poly

    def commit(self, rng: Rng, m: int) -> tuple[int, int]:
        _, r2, w = _commit(rng, m)
        return r2, w

    def respond(self, r2: int, secrets: Sequence[int], challenge: int, m: int) -> int:
        """Y = R^2 * prod_i( sum_t a_t * S_i^(2t*b_t) ) mod m, from R^2.

        The product is a unit iff every factor is, so one gcd decides
        whether the round is degenerate."""
        if challenge >> len(secrets) or len(secrets) != len(self.poly.coefficients):
            raise ChallengeLengthMismatch("secrets/challenge/coefficients disagree")
        g = _poly_product(self.poly, secrets, challenge, 2, m)
        if gcd(g, m) != 1:
            raise DegenerateEvaluation("inner sum is not a unit; the round fails")
        return r2 * g % m

    def check(self, w, challenge, y, witnesses, m) -> bool:
        return hardened_verify(w, challenge, y, witnesses, self.poly, m)


class Prover:
    """The prover's half of one exchange: h rounds per proof, proof i run by
    ``systems[i]`` from ``secrets[i]``. Built, it commits from the prover's
    rng in proof then round order; ``commitments`` is its first move."""

    def __init__(self, systems, secrets, h: int, m: int, rng: Rng):
        self.systems, self.secrets, self.h, self.m = systems, secrets, h, m
        # per proof, each round's (private state, W)
        self.rounds = [[system.commit(rng, m) for _ in range(h)] for system in systems]
        self.commitments = encode_proof([w for rounds in self.rounds for _, w in rounds], m)

    def answer(self, blob: bytes) -> bytes:
        """The last move: each challenge in ``blob`` (else ``MalformedProof``)
        answered from its round's state. A degenerate hardened round answers
        0, which fails, since with honest material the verifier's witness-side
        product is degenerate too; it is not run again, so no W answers two
        challenges as long as the caller drops the half once it answers."""
        m, count = self.m, len(self.systems) * self.h
        challenges = iter(decode_proof(blob, count, 1 << len(self.secrets[0])))
        ys = []
        for system, secrets, rounds in zip(self.systems, self.secrets, self.rounds):
            respond = system.respond
            for (state, _), challenge in zip(rounds, challenges):
                try:
                    ys.append(respond(state, secrets, challenge, m))
                except DegenerateEvaluation:
                    ys.append(0)
        return encode_proof(ys, m)


def _round_ok(system, w, challenge, y, witnesses, m) -> bool:
    """One round of ``system``, for ``Verifier.judge`` and ``verify_interactive``:
    no challenge bit at or above the witness count and a nonzero commitment,
    since W = 0 (mod m) with Y = 0 satisfies both variants' equations without
    a secret."""
    return (
        not challenge >> len(witnesses)
        and w % m != 0
        and system.check(w, challenge, y, witnesses, m)
    )


class Verifier:
    """The verifier's half of one exchange: h rounds per proof, proof i
    judged by ``systems[i]`` against ``witnesses[i]``. Built, it decodes the
    prover's ``commitments`` (else ``MalformedProof``)."""

    def __init__(self, systems, witnesses, k: int, h: int, m: int, commitments: bytes):
        if k < 1 or h < 1:
            raise DegenerateParameters("k and h must both be >= 1")
        self.systems, self.witnesses, self.k, self.h, self.m = systems, witnesses, k, h, m
        self.ws = decode_proof(commitments, len(systems) * h, m)

    def challenge(self, rng: Rng) -> bytes:
        """The verifier's move: a k-bit challenge per W from its own rng, in order."""
        randbits, k = rng.randbits, self.k
        self.challenges = tuple(randbits(k) for _ in self.ws)
        return encode_proof(self.challenges, 1 << k)

    def judge(self, blob: bytes) -> list[bool]:
        """Each proof's verdict, from the W this half kept, the challenges it
        drew and the answers in ``blob`` (else ``MalformedProof``), which it
        keeps; every round must pass."""
        m = self.m
        self.answers = decode_proof(blob, len(self.ws), m)
        moves = zip(self.ws, self.challenges, self.answers)
        verdicts = []
        for system, witnesses in zip(self.systems, self.witnesses):
            ok = True
            for w, c, y in islice(moves, self.h):
                ok = ok and _round_ok(system, w, c, y, witnesses, m)
            verdicts.append(ok)
        return verdicts

    def rounds(self) -> list[tuple[ZkpRound, ...]]:
        """Each judged proof's rounds, for a caller that keeps a transcript."""
        rounds = starmap(ZkpRound, zip(self.ws, self.challenges, self.answers))
        return [tuple(islice(rounds, self.h)) for _ in self.systems]


def verify_interactive(
    system,
    prover,
    witnesses: Sequence[int],
    h: int,
    m: int,
    verifier_rng: Rng,
) -> bool:
    """Play up to h rounds of ``system`` against any prover object and
    stop at the first round that fails.

    The prover exposes ``commit() -> W`` and ``respond(challenge) -> Y``.
    """
    k = len(witnesses)
    if k < 1 or h < 1:
        raise DegenerateParameters("k and h must both be >= 1")
    commit, respond, randbits = prover.commit, prover.respond, verifier_rng.randbits
    for _ in range(h):
        w = commit()
        challenge = randbits(k)
        y = respond(challenge)
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
) -> tuple[ZkpProof, bool]:
    """Honest basic proof through the endpoints' exchange: (its rounds, the verdict)."""
    if len(secrets) != k:
        raise ChallengeLengthMismatch(f"prover holds {len(secrets)} secrets, k={k}")
    return _exchange(BASIC, secrets, witnesses, h, m, prover_rng, verifier_rng)


def run_hardened_proof(
    secrets: Sequence[int],
    witnesses: Sequence[int],
    poly: SessionPolynomial,
    h: int,
    m: int,
    prover_rng: Rng,
    verifier_rng: Rng,
) -> tuple[ZkpProof, bool]:
    """Honest hardened proof through the endpoints' exchange: (its rounds, the verdict)."""
    return _exchange(Hardened(poly), secrets, witnesses, h, m, prover_rng, verifier_rng)


def _exchange(system, secrets, witnesses, h, m, prover_rng, verifier_rng):
    prover = Prover((system,), (secrets,), h, m, prover_rng)
    verifier = Verifier((system,), (witnesses,), len(witnesses), h, m, prover.commitments)
    (ok,) = verifier.judge(prover.answer(verifier.challenge(verifier_rng)))
    return ZkpProof((), verifier.rounds()[0]), ok


# -------------------------------------------------------- serialization


# moduli and challenge bounds whose layout ``_layout`` keeps
_LAYOUT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(bound: int) -> tuple[int, str]:
    """(bytes per value below ``bound``, the ``struct`` code of that width,
    or "" for none): the bound's byte length, rounded up to 1, 2, 4 or 8
    when it is at most 8. A bound is public, a modulus or 2^k."""
    size = ((bound - 1).bit_length() + 7) // 8
    if size > 8:
        return size, ""
    width = 1 << (size - 1).bit_length()
    return width, {1: "B", 2: "H", 4: "I", 8: "Q"}[width]


def encode_proof(values: Sequence[int], bound: int) -> bytes:
    """One move's fixed-width bytes (layout in the module docstring); every
    value must lie in [0, bound)."""
    if values and not 0 <= min(values) <= max(values) < bound:
        raise ValueError(f"a value is outside [0, {bound})")
    width, code = _layout(bound)
    if code:
        return struct.pack(f">{len(values)}{code}", *values)
    return b"".join(v.to_bytes(width, "big") for v in values)


def decode_proof(blob: bytes, count: int, bound: int) -> tuple[int, ...]:
    """Inverse of ``encode_proof`` for a reader that expects ``count`` values
    below ``bound``: the blob must be exactly that long and hold only such
    values, so each move has one encoding; else ``MalformedProof``."""
    width, code = _layout(bound)
    if len(blob) != count * width:
        raise MalformedProof(f"{len(blob)} bytes, the reader expects {count * width}")
    if code:
        values = struct.unpack(f">{count}{code}", blob)
    else:
        values = tuple(
            int.from_bytes(blob[i : i + width], "big") for i in range(0, len(blob), width)
        )
    if values and max(values) >= bound:
        raise MalformedProof("a value is not below its bound")
    return values
