"""Two-way anonymous authentication session between a member (OBU) and a
roadside verifier (RSU).

Flow: beacon -> sealed request -> privacy negotiation -> secret-id set
announcement (screened against the revocation table before any proof
rounds run) -> member's membership proof -> verifier's mu-proof bundle ->
alpha-threshold decision -> closing reply.

Each direction is one ``zkp`` exchange, each endpoint holding its half: the
member is the ``zkp.Prover`` of membership and the ``zkp.Verifier`` of the
bundle, the RSU the other way round. Commitments, challenges and answers
are one sealed message each, the bundle's mu proofs in set order in every
move. Each plaintext has one length, known to its reader: the sets are mu*k
4-byte ids, each set strictly ascending in [1, n]; the membership
commitments are T2 (a big-endian double) then h W, the bundle commitments
mu*h W; challenges and answers are the move's values alone, at ``zkp``'s
widths; the closing reply is one byte. A decided session leaves the RSU.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import starmap
from typing import Optional

from . import envelopes, revocation, zkp
from .envelopes import (
    MSG_ALPHA_REPLY,
    MSG_AUTH_REQUEST,
    MSG_ANSWERS,
    MSG_BEACON,
    MSG_CHALLENGES,
    MSG_COMMITMENTS,
    MSG_PROOF_SETS,
    NO_KEY_ID,
    EnvelopeFailure,
    encode_message,
)
from .keymgmt import Certificate, ObuCredential, RsuCredential, verify_certificate
from .numtheory import Rng
from .revocation import RevocationTable
from .zkp import Variant, ZkpProof

SUPPORTED_ALPHAS = frozenset({1, 2, 3, 4, 5})
FRESHNESS_WINDOW = 5.0  # logical seconds a request or proof timestamp may be off
# sessions an RSU holds at once; registering one more evicts the oldest
SESSION_CAPACITY = 1024
# signature checks the process remembers as passed; one more forgets the least recently used
CERTIFICATE_CACHE_SIZE = 64


class BadCertificate(ValueError):
    pass


@functools.lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _signature_verified(cert: Certificate, payload: bytes, root_public_key: bytes) -> None:
    """``BadCertificate`` unless the signature verifies. Passes are kept for the process,
    failures never; every input is public, and ``payload`` keys the bytes signed (0 == 0.0)."""
    if not verify_certificate(cert, root_public_key):
        raise BadCertificate("beacon certificate does not verify under the root key")


class UnsupportedAlpha(ValueError):
    pass


class StaleTimestamp(ValueError):
    pass


class MalformedSetRequest(ValueError):
    pass


class MalformedRequest(ValueError):
    """An opened request is short, or its group, t1, alpha or serv_id is not
    acceptable; or a request would name an n beyond its group's pool."""


class UnknownSession(ValueError):
    pass


class StepOutOfOrder(ValueError):
    """A session step called before the step it depends on succeeded."""


class Outcome(Enum):
    ACCEPTED = "Accepted"
    REJECTED_INSUFFICIENT_PROOFS = "RejectedInsufficientProofs"
    REJECTED_MEMBERSHIP = "RejectedMembership"
    REJECTED_POLICY = "RejectedPolicy"
    REJECTED_REVOKED = "RejectedRevoked"


@dataclass(frozen=True)
class SessionConfig:
    alpha: int
    mu: int
    k: int
    h: int
    n: int
    serv_id: str
    variant: Variant = Variant.BASIC

    def __post_init__(self):
        if self.alpha not in SUPPORTED_ALPHAS:
            raise UnsupportedAlpha(f"alpha={self.alpha} not in {sorted(SUPPORTED_ALPHAS)}")
        if not (1 <= self.alpha <= self.mu):
            raise ValueError(f"require 1 <= alpha <= mu, got alpha={self.alpha}, mu={self.mu}")
        revocation.check_params(self.n, self.k, self.mu)
        if self.k == self.n:
            raise ValueError(f"require k < n, got k={self.k}, n={self.n}")
        if self.h < 1:
            raise zkp.DegenerateParameters("h must be >= 1")
        if self.variant is Variant.HARDENED and self.k < 2:
            raise zkp.DegenerateParameters("hardened variant requires k >= 2")
        self.serv_id.encode()  # a request carries it as UTF-8; UnicodeEncodeError is a ValueError


@dataclass(frozen=True)
class AuthResult:
    outcome: Outcome
    verified_count: int
    alpha: int

    def __post_init__(self):
        if self.outcome is Outcome.ACCEPTED and self.verified_count < self.alpha:
            raise ValueError("accepted result below the alpha threshold")


class SessionTranscript:
    """What one session sent, recorded by reference while it runs and built
    when first read. ``sent`` holds each message's ``(tag, key_id, sealed)``,
    which ``frames`` encodes; ``bundle`` holds the member's announced sets and
    its judged bundle ``zkp.Verifier``, from which ``bundle_observations``
    builds one ``ZkpProof`` per set, none unless the bundle's answers decoded.
    Nothing recorded changes once the session ends, so a transcript reads
    the same after its endpoints run later sessions."""

    def __init__(self):
        self.key_id: bytes = NO_KEY_ID
        self.sent: list[tuple[int, bytes, bytes]] = []
        self.bundle: tuple[tuple, Optional[zkp.Verifier]] = ((), None)

    @functools.cached_property
    def frames(self) -> list[bytes]:
        return list(starmap(encode_message, self.sent))

    @functools.cached_property
    def bundle_observations(self) -> list[ZkpProof]:
        sets, verifier = self.bundle
        return [] if verifier is None else list(map(ZkpProof, sets, verifier.rounds()))


def _fresh(now: float, t: float) -> bool:
    """``t`` lies within ``FRESHNESS_WINDOW`` of ``now``; never for NaN or an infinity."""
    return math.isfinite(t) and abs(now - t) <= FRESHNESS_WINDOW


# a request: group id, t1, alpha and session key, then serv_id as UTF-8
_REQUEST = struct.Struct(f">IdB{envelopes.SESSION_KEY_BYTES}s")


def _request_fields(plain: bytes, groups) -> tuple[int, float, bytes, str, int]:
    """(group_id, t1, session key, serv_id, alpha) of an opened request.

    Anyone can seal a request to a verifier's public key, so the group must
    be one the verifier holds, t1 finite, alpha supported and serv_id UTF-8;
    anything else is ``MalformedRequest``.
    """
    if len(plain) < _REQUEST.size:
        raise MalformedRequest(f"request is {len(plain)} bytes, under {_REQUEST.size}")
    group_id, t1, alpha, key = _REQUEST.unpack_from(plain)
    if group_id not in groups or not math.isfinite(t1) or alpha not in SUPPORTED_ALPHAS:
        raise MalformedRequest(f"group {group_id}, t1 {t1} or alpha {alpha} is not supported")
    try:
        serv_id = plain[_REQUEST.size :].decode()
    except UnicodeDecodeError as exc:
        raise MalformedRequest("serv_id is not UTF-8") from exc
    return group_id, t1, key, serv_id, alpha


def _session_poly(session_key: bytes, key_id: bytes, purpose: bytes, index: int, k: int):
    seed = session_key + key_id + purpose + index.to_bytes(4, "big")
    return zkp.derive_session_polynomial(seed, k)


def _proof_systems(
    config: SessionConfig, session_key: bytes, key_id: bytes, purpose: bytes, count: int
) -> tuple:
    """The proof system a session's own config selects for each of ``count`` proofs."""
    if config.variant is Variant.BASIC:
        return (zkp.BASIC,) * count
    polys = (_session_poly(session_key, key_id, purpose, i, config.k) for i in range(count))
    return tuple(map(zkp.Hardened, polys))


class Step(Enum):
    """An RSU session's progress, forward only. Each handler runs at one
    step, raises ``StepOutOfOrder`` at any other and advances it by one; a
    handler that decides the session removes it from the table instead."""

    REGISTERED = "registered"
    NEGOTIATED = "negotiated"
    SCREENED = "screened"
    CHALLENGED = "challenged"
    MEMBER_VERIFIED = "member-verified"
    BUNDLED = "bundled"
    ANSWERED = "answered"


@dataclass
class _RsuSession:
    session_key: bytes
    group_id: int
    alpha: int
    # the policy's minimum alpha for the requested service; None if it names none
    min_alpha: Optional[int]
    config: SessionConfig
    step: Step = Step.REGISTERED
    requested_sets: tuple = ()
    # the exchange in flight, dropped once spent: the membership proof's
    # ``zkp.Verifier`` while challenged, the bundle's ``zkp.Prover`` while bundled
    rounds: Optional[zkp.Verifier | zkp.Prover] = None


class Rsu:
    """Verifier-side endpoint: beacons, session table, screening, proving."""

    def __init__(
        self,
        credential: RsuCredential,
        rng: Rng,
        policy: Optional[dict[str, int]] = None,
        stub: bool = False,
    ):
        self.credential = credential
        self.rng = rng
        self.clock = 0.0  # logical seconds; the protocol never reads wall time
        # policy maps serv_id -> minimum permitted alpha
        self.policy = policy if policy is not None else {"ERS": 1, "NAV": 1, "INFO": 1}
        self.sym = envelopes.StubEnvelope() if stub else envelopes.AesGcmEnvelope()
        self.seal = envelopes.StubSeal() if stub else envelopes.EciesSeal()
        self.table = RevocationTable()
        self.sessions: dict[bytes, _RsuSession] = {}

    # -- step 1: discovery ------------------------------------------------

    def beacon(self) -> Certificate:
        return self.credential.certificate

    # -- step 2: request registration -------------------------------------

    def register_session(self, request: bytes, config: SessionConfig) -> bytes:
        """Open a sealed (group_id, T1, session key, serv_id, alpha) request; its key id.
        ``MalformedRequest`` unless the group's pool holds ``config.n`` secrets.
        The session keeps the policy's floor for serv_id, never serv_id itself."""
        plain = self.seal.open(self.credential.seal_private_key, request)
        pools = self.credential.pool_secrets
        group_id, t1, session_key, serv_id, alpha = _request_fields(plain, pools)
        if not _fresh(self.clock, t1):
            raise StaleTimestamp(f"t1={t1} outside window at t={self.clock}")
        if config.n > len(pools[group_id]):
            raise MalformedRequest(f"n={config.n} exceeds group {group_id}'s pool")
        while True:
            key_id = self.rng.randbytes(8)
            if key_id not in self.sessions and key_id != NO_KEY_ID:
                break
        if len(self.sessions) >= SESSION_CAPACITY:
            del self.sessions[next(iter(self.sessions))]
        self.sessions[key_id] = _RsuSession(
            session_key=session_key,
            group_id=group_id,
            alpha=alpha,
            min_alpha=self.policy.get(serv_id),
            config=config,
        )
        return key_id

    def negotiate_privacy(self, key_id: bytes) -> Optional[int]:
        """The alpha the member sealed when policy permits it, else None
        (policy rejection, which ends the session)."""
        sess = self._session(key_id, Step.REGISTERED)
        if sess.min_alpha is None or sess.alpha < sess.min_alpha:
            del self.sessions[key_id]
            return None
        sess.step = Step.NEGOTIATED
        return sess.alpha

    # -- step 3: set announcement + revocation screening ------------------

    def receive_proof_sets(self, key_id: bytes, sealed: bytes) -> Optional[revocation.Match]:
        """Open the member's mu sets of k 4-byte ids, each strictly
        ascending in [1, n] and no two alike (else ``MalformedSetRequest``),
        and screen them; a match ends the session."""
        sess = self._session(key_id, Step.NEGOTIATED)
        cfg = sess.config
        plain = self.sym.open(sess.session_key, sealed)
        count = cfg.mu * cfg.k
        if len(plain) != 4 * count:
            raise MalformedSetRequest(f"{len(plain)} bytes, not {cfg.mu} sets of {cfg.k} ids")
        ids = struct.unpack(f">{count}I", plain)
        sets = tuple(ids[i : i + cfg.k] for i in range(0, count, cfg.k))
        for s in sets:
            if s != tuple(sorted(set(s))) or not 1 <= s[0] <= s[-1] <= cfg.n:
                raise MalformedSetRequest(f"set {s} is not ascending ids in [1, {cfg.n}]")
        if len(set(sets)) != cfg.mu:
            raise MalformedSetRequest("duplicate secret-id set in request")
        match = revocation.screen_session(self.table, sets, cfg.n, cfg.k)
        if match is not None:
            del self.sessions[key_id]
            return match
        sess.requested_sets = sets
        sess.step = Step.SCREENED
        return None

    # -- step 4: membership verification (verifier side) ------------------

    def challenge_membership(self, key_id: bytes, sealed: bytes) -> bytes:
        """Answer the member's T2 and h commitments (else ``zkp.MalformedProof``)
        with h challenges from this verifier's rng; the session keeps its half."""
        sess = self._session(key_id, Step.SCREENED)
        plain = memoryview(self.sym.open(sess.session_key, sealed))
        systems = _proof_systems(sess.config, sess.session_key, key_id, b"membership", 1)
        witnesses = self.credential.master_witnesses[sess.group_id]
        h, m = sess.config.h, self.credential.modulus
        verifier = zkp.Verifier(systems, (witnesses,), h, m, plain[8:])
        (t2,) = struct.unpack(">d", plain[:8])
        if not _fresh(self.clock, t2):
            raise StaleTimestamp(f"t2={t2} outside window")
        sess.rounds, sess.step = verifier, Step.CHALLENGED
        return self.sym.seal(sess.session_key, verifier.challenge(self.rng), self.rng)

    def check_membership_proof(self, key_id: bytes, sealed: bytes) -> bool:
        """Judge the member's h answers under this session's config against the
        rounds it kept, which the verdict spends: a failure, answers that do
        not decode included, ends the session."""
        sess = self._session(key_id, Step.CHALLENGED)
        plain = self.sym.open(sess.session_key, sealed)
        try:
            (ok,) = sess.rounds.judge(plain)
        except zkp.MalformedProof:
            ok = False
        if ok:
            sess.rounds, sess.step = None, Step.MEMBER_VERIFIED
        else:
            del self.sessions[key_id]
        return ok

    # -- step 5: bundle generation (prover side) ---------------------------

    def generate_proof_bundle(self, key_id: bytes) -> bytes:
        """Commit to one proof per requested set, once per session after a
        verified membership proof; the session keeps its half of the exchange."""
        sess = self._session(key_id, Step.MEMBER_VERIFIED)
        cfg, pool = sess.config, self.credential.pool_secrets[sess.group_id]
        systems = _proof_systems(cfg, sess.session_key, key_id, b"bundle", cfg.mu)
        secrets = [[pool[i - 1] for i in ids] for ids in sess.requested_sets]
        prover = zkp.Prover(systems, secrets, cfg.h, self.credential.modulus, self.rng)
        sess.rounds, sess.step = prover, Step.BUNDLED
        return self.sym.seal(sess.session_key, prover.commitments, self.rng)

    def answer_bundle(self, key_id: bytes, sealed: bytes) -> bytes:
        """Answer the member's mu*h challenges (else ``zkp.MalformedProof``),
        each from its kept round state, which is then dropped."""
        sess = self._session(key_id, Step.BUNDLED)
        plain = self.sym.open(sess.session_key, sealed)
        answers = sess.rounds.answer(plain)
        sess.rounds, sess.step = None, Step.ANSWERED
        return self.sym.seal(sess.session_key, answers, self.rng)

    def record_closing_reply(self, key_id: bytes, sealed: bytes) -> int:
        """The member's closing alpha value, sealed as exactly one byte, which
        ends the session; access is not gated on it."""
        sess = self._session(key_id, Step.ANSWERED)
        plain = self.sym.open(sess.session_key, sealed)
        if len(plain) != 1:
            raise EnvelopeFailure(f"closing reply is {len(plain)} bytes, not 1")
        del self.sessions[key_id]
        return plain[0]

    def _session(self, key_id: bytes, step: Step) -> _RsuSession:
        """Session ``key_id``, which must be at ``step``."""
        sess = self.sessions.get(key_id)
        if sess is None:
            raise UnknownSession(key_id.hex())
        if sess.step is not step:
            raise StepOutOfOrder(f"session is {sess.step.value}, not {step.value}")
        return sess


class ObuStep(Enum):
    """A member's session, forward only by the RSU's rule: ``start`` opens
    it from any step; every other handler runs at one step, raises
    ``StepOutOfOrder`` at any other and advances it by one. A message that
    fails its AEAD tag or does not decode leaves the step where it was; the
    bundle's verdict, whatever it is, decides the session."""

    OPEN = "open"
    ANNOUNCED = "announced"
    COMMITTED = "committed"
    PROVEN = "proven"
    CHALLENGED = "challenged"
    DECIDED = "decided"


class Obu:
    """Member-side endpoint: single active session, whose config and sets
    it keeps from ``start`` and ``choose_proof_sets``, and whose half of the
    exchange in flight it keeps from one move to the next."""

    def __init__(
        self,
        credential: ObuCredential,
        root_public_key: bytes,
        rng: Rng,
        stub: bool = False,
    ):
        self.credential = credential
        self.root_public_key = root_public_key
        self.rng = rng
        self.clock = 0.0  # logical seconds; the protocol never reads wall time
        self.sym = envelopes.StubEnvelope() if stub else envelopes.AesGcmEnvelope()
        self.seal = envelopes.StubSeal() if stub else envelopes.EciesSeal()
        self.session_key: Optional[bytes] = None
        self.key_id: bytes = NO_KEY_ID
        self.config: Optional[SessionConfig] = None
        self.sets: tuple = ()
        self.step: Optional[ObuStep] = None
        # the exchange in flight, dropped once spent: the membership proof's
        # ``zkp.Prover`` while committed, the bundle's ``zkp.Verifier`` while challenged
        self._half: Optional[zkp.Prover | zkp.Verifier] = None

    # -- step 1: request ----------------------------------------------------

    def start(self, cert: Certificate, config: SessionConfig) -> bytes:
        """Check the beacon's certificate and seal a request to its key, unless
        the member's last counter is spent (``revocation.CounterOverflow``) or
        its pool holds fewer than ``config.n`` witnesses (``MalformedRequest``)."""
        if self.credential.counter + 1 >= revocation.COUNTER_LIMIT:
            raise revocation.CounterOverflow("the credential's last counter is spent")
        if config.n > len(self.credential.pool_witnesses):
            raise MalformedRequest(f"n={config.n} exceeds the member's pool")
        now = self.clock
        if not cert.valid_from <= now <= cert.valid_to:
            raise BadCertificate(f"beacon certificate is not valid at t={now}")
        _signature_verified(cert, cert.signed_payload, self.root_public_key)
        self.config, self.step = config, ObuStep.OPEN
        self.key_id, self.sets, self._half = NO_KEY_ID, (), None
        self.session_key = self.rng.randbytes(envelopes.SESSION_KEY_BYTES)
        body = _REQUEST.pack(self.credential.group_id, now, config.alpha, self.session_key)
        return self.seal.seal(cert.public_key, body + config.serv_id.encode(), self.rng)

    def _at(self, step: ObuStep) -> SessionConfig:
        """The config of the session, which must be at ``step``."""
        if self.step is not step:
            raise StepOutOfOrder(f"member session is {self.step}, not {step}")
        return self.config

    # -- step 3: secret-id sets ----------------------------------------------

    def choose_proof_sets(self) -> bytes:
        """Seal the mu pairwise-distinct k-id sets for this session,
        PRF-derived from (iv, counter) so a verifier holding the iv can
        screen them."""
        cfg = self._at(ObuStep.OPEN)
        self.sets = revocation.next_sequence(
            self.credential.iv, self.credential.counter, cfg.n, cfg.k, cfg.mu
        )
        self.step = ObuStep.ANNOUNCED
        ids = [i for s in self.sets for i in s]
        return self.sym.seal(self.session_key, struct.pack(f">{len(ids)}I", *ids), self.rng)

    # -- step 4: membership proof (prover side) -------------------------------

    def prove_membership(self) -> bytes:
        """Seal T2 and h commitments from the member's rng; keep the prover's half."""
        cfg, cred = self._at(ObuStep.ANNOUNCED), self.credential
        systems = _proof_systems(cfg, self.session_key, self.key_id, b"membership", 1)
        prover = zkp.Prover(systems, (cred.master_key,), cfg.h, cred.modulus, self.rng)
        self._half, self.step = prover, ObuStep.COMMITTED
        plain = struct.pack(">d", self.clock) + prover.commitments
        return self.sym.seal(self.session_key, plain, self.rng)

    def answer_membership(self, sealed: bytes) -> bytes:
        """Answer the verifier's h challenges (else ``zkp.MalformedProof``),
        each from its kept round state, which is then dropped: no commitment
        answers two challenges."""
        self._at(ObuStep.COMMITTED)
        answers = self._half.answer(self.sym.open(self.session_key, sealed))
        self._half, self.step = None, ObuStep.PROVEN
        return self.sym.seal(self.session_key, answers, self.rng)

    # -- step 6: bundle verification ------------------------------------------

    def challenge_bundle(self, sealed: bytes) -> bytes:
        """Answer the bundle's mu*h commitments (else ``zkp.MalformedProof``)
        with mu*h challenges from the member's rng, kept with them; proof i is
        judged against the witnesses of the i-th set this member announced."""
        cfg, pool = self._at(ObuStep.PROVEN), self.credential.pool_witnesses
        plain = self.sym.open(self.session_key, sealed)
        witnesses = [[pool[i - 1] for i in s] for s in self.sets]
        systems = _proof_systems(cfg, self.session_key, self.key_id, b"bundle", cfg.mu)
        verifier = zkp.Verifier(systems, witnesses, cfg.h, self.credential.modulus, plain)
        self._half, self.step = verifier, ObuStep.CHALLENGED
        return self.sym.seal(self.session_key, verifier.challenge(self.rng), self.rng)

    def verify_bundle(
        self, sealed: bytes, transcript: Optional[SessionTranscript] = None
    ) -> AuthResult:
        """Count the proofs whose answers (none, if they do not decode) check
        against the rounds ``challenge_bundle`` kept; the verdict, whatever it
        is, decides the session. A half that judged goes to ``transcript``
        with the announced sets. On acceptance the member moves to its next
        counter."""
        cfg = self._at(ObuStep.CHALLENGED)
        plain = self.sym.open(self.session_key, sealed)
        verifier, self._half, self.step = self._half, None, ObuStep.DECIDED
        try:
            verified = sum(verifier.judge(plain))
        except zkp.MalformedProof:
            return AuthResult(Outcome.REJECTED_INSUFFICIENT_PROOFS, 0, cfg.alpha)
        if transcript is not None:
            transcript.bundle = self.sets, verifier
        if verified < cfg.alpha:
            return AuthResult(Outcome.REJECTED_INSUFFICIENT_PROOFS, verified, cfg.alpha)
        self.credential.counter += 1
        return AuthResult(Outcome.ACCEPTED, verified, cfg.alpha)

    def closing_reply(self) -> bytes:
        """The session's alpha, sealed as one byte, once a verdict decided it."""
        alpha = self._at(ObuStep.DECIDED).alpha
        return self.sym.seal(self.session_key, bytes([alpha]), self.rng)


def run_full_session(
    obu: Obu, rsu: Rsu, config: SessionConfig
) -> tuple[AuthResult, SessionTranscript]:
    """Execute one complete session, passing each message between the
    endpoints up to the step that decides it; a verdict on the bundle,
    accepting or not, is closed at both ends. The transcript records each
    message sent and the member's judged bundle half by reference, and
    builds their frames and proofs only when read; it doubles as the tap
    for the passive-observer threat model."""
    log = SessionTranscript()

    def send(tag: int, sealed: bytes) -> bytes:
        log.sent.append((tag, log.key_id, sealed))
        return sealed

    cert = rsu.beacon()
    send(MSG_BEACON, cert.signed_payload)
    request = send(MSG_AUTH_REQUEST, obu.start(cert, config))
    key_id = obu.key_id = log.key_id = rsu.register_session(request, config)
    if rsu.negotiate_privacy(key_id) is None:
        return AuthResult(Outcome.REJECTED_POLICY, 0, config.alpha), log

    sealed = send(MSG_PROOF_SETS, obu.choose_proof_sets())
    if rsu.receive_proof_sets(key_id, sealed) is not None:
        return AuthResult(Outcome.REJECTED_REVOKED, 0, config.alpha), log

    sealed = send(MSG_COMMITMENTS, obu.prove_membership())
    sealed = send(MSG_CHALLENGES, rsu.challenge_membership(key_id, sealed))
    sealed = send(MSG_ANSWERS, obu.answer_membership(sealed))
    if not rsu.check_membership_proof(key_id, sealed):
        return AuthResult(Outcome.REJECTED_MEMBERSHIP, 0, config.alpha), log

    sealed = send(MSG_COMMITMENTS, rsu.generate_proof_bundle(key_id))
    sealed = send(MSG_CHALLENGES, obu.challenge_bundle(sealed))
    sealed = send(MSG_ANSWERS, rsu.answer_bundle(key_id, sealed))
    result = obu.verify_bundle(sealed, log)
    rsu.record_closing_reply(key_id, send(MSG_ALPHA_REPLY, obu.closing_reply()))
    return result, log
