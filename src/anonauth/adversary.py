"""Executable threat models: the secretless cheater, the transcript forger,
the passive observer, and the transcript-replay simulator, plus its
byte-level memory-cost model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import Optional, Sequence

from . import zkp
from .numtheory import Rng, mod_inv, sample_unit
from .protocol import SessionTranscript, StepOutOfOrder
from .zkp import SessionPolynomial, ZkpProof, ZkpRound


class MissingSimulator(KeyError):
    """The requested secret-id set was never observed."""


class TapLevel(Enum):
    CIPHERTEXT_ONLY = "ciphertext"
    ROUND_PLAINTEXT = "rounds"


@dataclass
class AttackReport:
    kind: str
    trials: int
    successes: int
    memory_bytes_modeled: Optional[int] = None
    memory_bytes_measured: Optional[int] = None

    @property
    def frequency(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


# ------------------------------------------------------------- cheater


class CheaterProver:
    """Secretless prover: guesses the challenge, commits
    W = +-R^2 / prod(g_i for guessed i), answers Y = R.

    A round verifies exactly when the verifier's challenge equals the
    guess (up to negligible arithmetic coincidence in the modulus). One
    prover serves any number of attempts on its witnesses: it keeps
    mask -> 1 / prod(g_i for i in mask) mod m, filled as masks are first
    drawn.
    """

    def __init__(self, witnesses: Sequence[int], m: int, rng: Rng):
        self.witnesses = tuple(witnesses)
        self.m = m
        self.rng = rng
        self._randbits = rng.randbits
        self._inverses: dict[int, int] = {}
        self._r: Optional[int] = None

    def commit(self) -> int:
        m, randbits = self.m, self._randbits
        self._r = r = sample_unit(self.rng, m)
        mask = randbits(len(self.witnesses))
        negate = not randbits(1)  # one sign bit, as ``zkp`` commits draw it
        inv = self._inverses.get(mask)
        if inv is None:
            prod = 1
            for i, g in enumerate(self.witnesses):
                if (mask >> i) & 1:
                    prod = (prod * g) % m
            inv = self._inverses[mask] = mod_inv(prod, m)
        w = r * r * inv % m
        return -w % m if negate else w

    def respond(self, challenge: int) -> int:
        """The R of the last ``commit``; each commit answers once."""
        r = self._r
        if r is None:
            raise StepOutOfOrder("respond without a fresh commit")
        self._r = None
        return r


def cheater_attempt(prover: CheaterProver, h: int, verifier_rng: Rng) -> bool:
    """One full cheating attempt: up to h rounds against an honest
    verifier, which stops at the first failed round. Returns the verdict."""
    return zkp.verify_interactive(zkp.BASIC, prover, prover.witnesses, h, prover.m, verifier_rng)


class BundleCheater:
    """Secretless attacker on the bundle check. It keeps one
    ``CheaterProver`` per k-id set whose guess has landed, so each set's
    mask -> inverse table serves every later attempt on that set."""

    def __init__(self, pool_witnesses: Sequence[int], m: int, rng: Rng):
        self.pool_witnesses = tuple(pool_witnesses)
        self.m = m
        self.rng = rng
        self._provers: dict[int, CheaterProver] = {}

    def prover(self, mask: int) -> CheaterProver:
        """The prover for the set ``mask``, built on first use."""
        prover = self._provers.get(mask)
        if prover is None:
            witnesses = [w for i, w in enumerate(self.pool_witnesses) if (mask >> i) & 1]
            prover = self._provers[mask] = CheaterProver(witnesses, self.m, self.rng)
        return prover


def bundle_cheater_attempt(
    cheater: BundleCheater, requested_sets: Sequence[int], h: int, alpha: int, verifier_rng: Rng
) -> bool:
    """Cheating verifier-side prover against the bundle check.

    Each requested k-id set is a bitmask, bit i - 1 for id i. The attacker
    holds no pool secrets and, per the modeled attacker, must also guess
    which k-id set each proof will be checked against before learning the
    real one. Each proof declares the guessed set, mirroring the live flow
    where bundle items carry their secret ids and the verifier rejects a
    declaration mismatch before any arithmetic.
    """
    n, rng = len(cheater.pool_witnesses), cheater.rng
    verified = 0
    for mask in requested_sets:
        if _sample_subset(rng, n, mask.bit_count()) != mask:
            continue
        prover = cheater.prover(mask)
        if zkp.verify_interactive(zkp.BASIC, prover, prover.witnesses, h, cheater.m, verifier_rng):
            verified += 1
    return verified >= alpha


def _sample_subset(rng: Rng, n: int, k: int) -> int:
    """k distinct ids of 1..n as a bitmask, bit i - 1 for id i: one
    ``rng.randrange(0, n)`` draw per id, repeats included, in a single loop
    over ``rng.randbits``."""
    randbits, bits = rng.randbits, n.bit_length()
    mask = picked = 0
    while picked < k:
        r = randbits(bits)
        if r < n:
            grown = mask | 1 << r
            if grown != mask:
                mask = grown
                picked += 1
    return mask


# -------------------------------------------------------------- forger


class TranscriptForger:
    """Secretless prover writing the rounds a prover-chosen challenge of 0
    lets through, W = R^2 and Y = R; a basic round it passes only when the
    verifier draws 0. Given the public witnesses and the session polynomial,
    it answers every hardened challenge b with Y = W * P(b). It keeps one R
    per commitment, first in first out, for batched and sequential rounds."""

    def __init__(self, m: int, rng: Rng, witnesses=(), poly: Optional[SessionPolynomial] = None):
        self.m, self.rng, self.witnesses, self.poly = m, rng, tuple(witnesses), poly
        self._rs: deque[int] = deque()

    def commit(self) -> int:
        r = sample_unit(self.rng, self.m)
        self._rs.append(r)
        return r * r % self.m

    def respond(self, challenge: int) -> int:
        r = self._rs.popleft()
        if self.poly is None:
            return r
        return r * r * zkp._poly_product(self.poly, self.witnesses, challenge, 1, self.m) % self.m


# ------------------------------------------------------------- observer


def observe_sessions(
    transcripts: Sequence[SessionTranscript],
    tap_level: TapLevel = TapLevel.ROUND_PLAINTEXT,
) -> list[ZkpProof]:
    """Corpus of the verifier proofs (secret-id set, rounds) from tapped sessions.

    The replay attack needs round-plaintext visibility; a
    ciphertext-only tap yields nothing usable, which makes the threat
    model's implicit envelope-compromise assumption explicit.
    """
    if tap_level is TapLevel.CIPHERTEXT_ONLY:
        return []
    corpus: list[ZkpProof] = []
    for t in transcripts:
        corpus.extend(t.bundle_observations)
    return corpus


# -------------------------------------------------------------- simulator


@dataclass
class SimulatorMatrix:
    """Sparse replay matrix for one k-id set.

    ``rows`` maps each distinct recorded commitment W, in the order first
    seen and capped at 2^k rows, to its cells: challenge value -> the
    first recorded response Y.
    """

    secret_ids: tuple[int, ...]
    rows: dict[int, dict[int, int]] = field(default_factory=dict)

    def add_round(self, rd: ZkpRound) -> None:
        row = self.rows.get(rd.w)
        if row is None:
            if len(self.rows) >= 1 << len(self.secret_ids):
                return
            row = self.rows[rd.w] = {}
        row.setdefault(rd.challenge, rd.y)

    def best_row(self) -> int:
        """The W with the most cells; the first seen among equals."""
        if not self.rows:
            raise MissingSimulator(f"no rows recorded for set {self.secret_ids}")
        return max(self.rows, key=lambda w: len(self.rows[w]))

    def coverage(self) -> float:
        filled = max(map(len, self.rows.values()), default=0)
        return filled / (1 << len(self.secret_ids))

    def memory_bytes(self) -> int:
        # 8 bytes per populated Y cell plus 8 per recorded W row
        return 8 * sum(map(len, self.rows.values())) + 8 * len(self.rows)


def build_simulators(corpus: Sequence[ZkpProof]) -> dict[tuple[int, ...], SimulatorMatrix]:
    """One replay matrix per observed k-id set."""
    matrices: dict[tuple[int, ...], SimulatorMatrix] = {}
    for obs in corpus:
        key = tuple(sorted(obs.secret_ids))
        mat = matrices.setdefault(key, SimulatorMatrix(secret_ids=key))
        for rd in obs.rounds:
            mat.add_round(rd)
    return matrices


class SimulatorProver:
    """Replays the best-covered row of one matrix; rounds with an empty
    cell are answered with a junk response that cannot verify honestly."""

    def __init__(self, matrix: SimulatorMatrix):
        self.w = matrix.best_row()
        self.row = matrix.rows[self.w]

    def commit(self) -> int:
        return self.w

    def respond(self, challenge: int) -> int:
        return self.row.get(challenge, 1)


def _bundle_successes(
    requested_sets_per_session: Sequence[Sequence[Sequence[int]]],
    prover_for,
    pool_witnesses: Sequence[int],
    h: int,
    alpha: int,
    m: int,
    verifier_rng: Rng,
    hardened_polys: Optional[Sequence[Sequence[SessionPolynomial]]],
) -> int:
    """Sessions in which at least alpha of the attacker's proofs verify.

    ``prover_for(ids)`` is the attacker for one sorted id set, or None when
    it has nothing to send, which fails that proof.
    """
    successes = 0
    for s_idx, requested_sets in enumerate(requested_sets_per_session):
        verified = 0
        for p_idx, ids in enumerate(requested_sets):
            key = tuple(sorted(ids))
            prover = prover_for(key)
            if prover is None:
                continue
            if hardened_polys is None:
                system = zkp.BASIC
            else:
                system = zkp.Hardened(hardened_polys[s_idx][p_idx])
            witnesses = [pool_witnesses[i - 1] for i in key]
            if zkp.verify_interactive(system, prover, witnesses, h, m, verifier_rng):
                verified += 1
        if verified >= alpha:
            successes += 1
    return successes


class RandomProver:
    """Baseline attacker: uniform random units for W and Y."""

    def __init__(self, m: int, rng: Rng):
        self.m = m
        self.rng = rng

    def commit(self) -> int:
        return sample_unit(self.rng, self.m)

    def respond(self, challenge: int) -> int:
        return sample_unit(self.rng, self.m)


def simulator_attack(
    matrices: dict[tuple[int, ...], SimulatorMatrix],
    pool_witnesses: Sequence[int],
    requested_sets_per_session: Sequence[Sequence[Sequence[int]]],
    k: int,
    h: int,
    alpha: int,
    m: int,
    verifier_rng: Rng,
    hardened_polys: Optional[Sequence[Sequence[SessionPolynomial]]] = None,
) -> AttackReport:
    """Replay attack against the bundle verification flow.

    ``requested_sets_per_session`` is one entry per attacked session.
    When ``hardened_polys`` is given (one polynomial per proof per
    session), the verifier runs the hardened check against the replayed
    material instead of the basic one.
    """

    def replayer_for(ids):
        mat = matrices.get(ids)
        if mat is None or not mat.rows:
            return None  # MissingSimulator: counted as proof failure
        return SimulatorProver(mat)

    successes = _bundle_successes(
        requested_sets_per_session, replayer_for, pool_witnesses, h, alpha, m,
        verifier_rng, hardened_polys,
    )
    measured = sum(mat.memory_bytes() for mat in matrices.values())
    return AttackReport(
        kind="simulator",
        trials=len(requested_sets_per_session),
        successes=successes,
        memory_bytes_modeled=simulator_memory_cost(len(pool_witnesses), k),
        memory_bytes_measured=measured,
    )


def random_response_control(
    pool_witnesses: Sequence[int],
    requested_sets_per_session: Sequence[Sequence[Sequence[int]]],
    h: int,
    alpha: int,
    m: int,
    rng: Rng,
    verifier_rng: Rng,
    hardened_polys: Optional[Sequence[Sequence[SessionPolynomial]]] = None,
) -> AttackReport:
    """Baseline attacker sending uniform random units for W and Y."""
    successes = _bundle_successes(
        requested_sets_per_session, lambda _ids: RandomProver(m, rng),
        pool_witnesses, h, alpha, m, verifier_rng, hardened_polys,
    )
    return AttackReport(
        kind="random-control", trials=len(requested_sets_per_session), successes=successes
    )


def simulator_memory_cost(n: int, k: int) -> int:
    """The modeled byte cost, exactly: 2^(2k+6) * C(n, k)."""
    if n < k:
        raise ValueError("require n >= k")
    return (1 << (2 * k + 6)) * comb(n, k)
