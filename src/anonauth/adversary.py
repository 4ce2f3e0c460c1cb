"""Executable threat models: the secretless cheater, the passive observer,
and the transcript-replay simulator, plus its byte-level memory-cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import Optional, Sequence

from . import zkp
from .numtheory import Rng, mod_inv, sample_unit
from .protocol import SessionTranscript
from .zkp import SessionPolynomial, ZkpProof, ZkpRound, challenge_bits


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
    closed_form: Optional[float] = None
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
    guess (up to negligible arithmetic coincidence in the modulus).
    ``inverses`` (mask -> 1 / prod(g_i for i in mask) mod m, filled as
    masks are first drawn) may be shared by provers with the same witnesses
    and modulus.
    """

    def __init__(
        self, witnesses: Sequence[int], m: int, rng: Rng, inverses: Optional[dict[int, int]] = None
    ):
        self.witnesses = list(witnesses)
        self.m = m
        self.rng = rng
        self.k = len(witnesses)
        self._inv_cache = {} if inverses is None else inverses
        self._r: Optional[int] = None

    def _inv_product(self, mask: int) -> int:
        if mask not in self._inv_cache:
            prod = 1
            for i in range(self.k):
                if (mask >> i) & 1:
                    prod = (prod * self.witnesses[i]) % self.m
            self._inv_cache[mask] = mod_inv(prod, self.m)
        return self._inv_cache[mask]

    def commit(self) -> int:
        self._r = sample_unit(self.rng, self.m)
        mask = self.rng.randbits(self.k)
        sign = self.rng.choice_sign()
        return (sign * self._r * self._r * self._inv_product(mask)) % self.m

    def respond(self, challenge: Sequence[int]) -> int:
        assert self._r is not None
        return self._r


def cheater_attempt(
    witnesses: Sequence[int],
    k: int,
    h: int,
    m: int,
    rng: Rng,
    verifier_rng: Rng,
    inverses: Optional[dict[int, int]] = None,
) -> tuple[list[ZkpRound], bool]:
    """One full cheating attempt: up to h rounds against an honest
    verifier, which stops at the first failed round. Returns the rounds
    played and the verdict. Attempts on the same witnesses and modulus may
    share one ``inverses`` table (see ``CheaterProver``)."""
    if len(witnesses) != k:
        raise zkp.ChallengeLengthMismatch(f"{len(witnesses)} witnesses, k={k}")
    rounds: list[ZkpRound] = []
    ok = zkp.verify_interactive(
        zkp.BASIC, CheaterProver(witnesses, m, rng, inverses), witnesses, h, m, verifier_rng,
        transcript=rounds,
    )
    return rounds, ok


def bundle_cheater_attempt(
    pool_witnesses: Sequence[int],
    requested_sets: Sequence[Sequence[int]],
    k: int,
    h: int,
    alpha: int,
    m: int,
    rng: Rng,
    verifier_rng: Rng,
) -> bool:
    """Cheating verifier-side prover against the bundle check.

    The attacker holds no pool secrets and, per the modeled attacker, must
    also guess which k-id set each proof will be checked against before
    learning the real one. Each proof declares the guessed set, mirroring
    the live flow where bundle items carry their secret ids and the
    verifier rejects a declaration mismatch before any arithmetic.
    """
    n = len(pool_witnesses)
    all_ids = list(range(1, n + 1))
    verified = 0
    for ids in requested_sets:
        guess = tuple(sorted(_sample_subset(rng, all_ids, k)))
        if guess != tuple(sorted(ids)):
            continue
        true_witnesses = [pool_witnesses[i - 1] for i in ids]
        prover = CheaterProver(true_witnesses, m, rng)
        if zkp.verify_interactive(zkp.BASIC, prover, true_witnesses, h, m, verifier_rng):
            verified += 1
    return verified >= alpha


def _sample_subset(rng: Rng, ids: list[int], k: int) -> list[int]:
    picked: set[int] = set()
    while len(picked) < k:
        picked.add(ids[rng.randrange(0, len(ids))])
    return sorted(picked)


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

    Rows are distinct recorded commitments W (capped at 2^k); cells map
    (row, challenge value) to the recorded response Y.
    """

    secret_ids: tuple[int, ...]
    k: int
    rows: list[int] = field(default_factory=list)  # recorded W values
    cells: dict[tuple[int, int], int] = field(default_factory=dict)

    def add_round(self, rd: ZkpRound) -> None:
        if rd.w not in self.rows:
            if len(self.rows) >= 1 << self.k:
                return
            self.rows.append(rd.w)
        row = self.rows.index(rd.w)
        self.cells.setdefault((row, challenge_bits(rd.challenge)), rd.y)

    def row_coverage(self, row: int) -> float:
        filled = sum(1 for (r, _s) in self.cells if r == row)
        return filled / (1 << self.k)

    def best_row(self) -> int:
        if not self.rows:
            raise MissingSimulator(f"no rows recorded for set {self.secret_ids}")
        return max(range(len(self.rows)), key=self.row_coverage)

    def coverage(self) -> float:
        return max((self.row_coverage(r) for r in range(len(self.rows))), default=0.0)

    def memory_bytes(self) -> int:
        # 8 bytes per populated Y cell plus 8 per recorded W row
        return 8 * len(self.cells) + 8 * len(self.rows)


def build_simulators(
    corpus: Sequence[ZkpProof], n: int, k: int
) -> dict[tuple[int, ...], SimulatorMatrix]:
    """One replay matrix per observed k-id set."""
    matrices: dict[tuple[int, ...], SimulatorMatrix] = {}
    for obs in corpus:
        key = tuple(sorted(obs.secret_ids))
        mat = matrices.setdefault(key, SimulatorMatrix(secret_ids=key, k=k))
        for rd in obs.rounds:
            mat.add_round(rd)
    return matrices


class SimulatorProver:
    """Replays the best-covered row of one matrix; rounds with an empty
    cell are answered with a junk response that cannot verify honestly."""

    def __init__(self, matrix: SimulatorMatrix):
        self.matrix = matrix
        self.row = matrix.best_row()

    def commit(self) -> int:
        return self.matrix.rows[self.row]

    def respond(self, challenge: Sequence[int]) -> int:
        return self.matrix.cells.get((self.row, challenge_bits(challenge)), 1)


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

    def respond(self, challenge: Sequence[int]) -> int:
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
    k: int,
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
