import dataclasses
import json
import struct

import pytest

from anonauth import protocol, zkp
from anonauth.envelopes import EnvelopeFailure, StubEnvelope, StubSeal
from anonauth.numtheory import Rng, generate_blum_modulus
from anonauth.protocol import (
    AuthRequest,
    AuthResult,
    BadCertificate,
    MalformedRequest,
    MalformedSetRequest,
    Outcome,
    SessionConfig,
    StaleTimestamp,
    TooManyProofsRequested,
    UndecryptableRequest,
    UnknownSession,
    UnsupportedAlpha,
    run_full_session,
)
from anonauth.zkp import Variant
from conftest import build_deployment


def cfg(**kw):
    base = dict(alpha=1, mu=2, k=2, h=1, n=6, serv_id="INFO")
    base.update(kw)
    return SessionConfig(**base)


class TestSessionConfig:
    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedAlpha):
            cfg(alpha=7, mu=8)
        with pytest.raises(UnsupportedAlpha):
            cfg(alpha=0)

    def test_alpha_above_mu(self):
        with pytest.raises(ValueError):
            cfg(alpha=3, mu=2)

    def test_k_must_be_below_n(self):
        with pytest.raises(ValueError):
            cfg(k=6, n=6)
        with pytest.raises(ValueError):
            cfg(k=0)

    def test_zero_rounds_rejected(self):
        with pytest.raises(zkp.DegenerateParameters):
            cfg(h=0)

    def test_hardened_needs_two_secrets(self):
        with pytest.raises(zkp.DegenerateParameters):
            cfg(k=1, variant=Variant.HARDENED)
        assert cfg(k=2, variant=Variant.HARDENED).variant is Variant.HARDENED


class TestHandshakeErrors:
    def test_bad_beacon_certificate(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        beacon = rsu.beacon()
        forged = dataclasses.replace(
            beacon, certificate=dataclasses.replace(beacon.certificate, rsu_id=99)
        )
        with pytest.raises(BadCertificate):
            obu.start(forged, cfg())

    def test_stale_timestamp(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        obu.clock.advance(30.0)  # far outside the 5 s freshness window
        request = obu.start(rsu.beacon(), cfg())
        with pytest.raises(StaleTimestamp):
            rsu.register_session(request, cfg())

    def test_request_for_other_verifier_is_undecryptable(self):
        dep = build_deployment(1, n=6, k=2)
        rsu_a = dep.make_rsu(1)
        obu = dep.make_obu(2)
        request = obu.start(rsu_a.beacon(), cfg())
        dep_b = build_deployment(99, n=6, k=2)
        rsu_b = dep_b.make_rsu(3)
        with pytest.raises(UndecryptableRequest):
            rsu_b.register_session(request, cfg())

    def test_unknown_session_key_id(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        with pytest.raises(UnknownSession):
            rsu.negotiate_privacy(b"\x01" * 8, 1)


class TestPrivacyNegotiation:
    def _session(self, policy=None):
        dep = build_deployment(2, n=6, k=2)
        rsu = dep.make_rsu(1, policy=policy)
        obu = dep.make_obu(2)
        request = obu.start(rsu.beacon(), cfg())
        key_id = rsu.register_session(request, cfg())
        return rsu, key_id

    def test_permitted_alpha_echoed(self):
        rsu, key_id = self._session()
        assert rsu.negotiate_privacy(key_id, 1) == 1

    def test_alpha_below_policy_floor_rejected(self):
        rsu, key_id = self._session(policy={"INFO": 3})
        assert rsu.negotiate_privacy(key_id, 2) is None
        assert rsu.negotiate_privacy(key_id, 3) == 3

    def test_unknown_service_rejected(self):
        rsu, key_id = self._session(policy={"NAV": 1})
        assert rsu.negotiate_privacy(key_id, 1) is None

    def test_policy_rejection_ends_session(self):
        dep = build_deployment(2, n=6, k=2)
        rsu = dep.make_rsu(1, policy={"INFO": 4})
        obu = dep.make_obu(2)
        result, log = run_full_session(obu, rsu, cfg(alpha=2, mu=3))
        assert result.outcome is Outcome.REJECTED_POLICY
        assert result.verified_count == 0
        assert not log.bundle_observations


class TestProofSetAnnouncement:
    def _session(self, config):
        dep = build_deployment(3, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        request = obu.start(rsu.beacon(), config)
        key_id = rsu.register_session(request, config)
        obu.bind(key_id)
        return rsu, obu, key_id

    def test_wrong_set_count(self):
        rsu, obu, key_id = self._session(cfg(mu=3))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(1, 2), (3, 4)])

    def test_duplicate_sets(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(1, 2), (2, 1)])

    def test_wrong_set_size(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(1, 2, 3), (4, 5)])
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(1, 1), (4, 5)])

    def test_ids_out_of_range(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(0, 2), (3, 4)])
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, [(1, 7), (3, 4)])

    def test_mu_above_subset_count(self):
        dep = build_deployment(3, n=4, k=2)
        obu = dep.make_obu(2)
        with pytest.raises(TooManyProofsRequested):
            obu.choose_proof_sets(cfg(alpha=5, mu=7, n=4))


class TestMembership:
    def test_wrong_group_master_key_rejected(self):
        # the member presents group 1's master key against group 2's
        # witnesses; acceptance chance is at most ~2^-kh per session
        dep = build_deployment(4, n=6, k=2, q=2, obus=2, stub=True)
        rsu = dep.make_rsu(1)
        config = cfg(h=4, mu=2)
        rejected = 0
        for trial in range(30):
            obu = dep.make_obu(100 + trial, index=0)  # group 1 member
            # graft group 2's credential identity onto group 1's master key
            other = dep.obu_creds[1]
            obu.credential = dataclasses.replace(
                other,
                master_key=dep.obu_creds[0].master_key,
                iv=5000 + trial,
            )
            result, _ = run_full_session(obu, rsu, config)
            if result.outcome is Outcome.REJECTED_MEMBERSHIP:
                rejected += 1
        assert rejected >= 28  # binomial(30, 2^-8) makes 2+ accepts absurd

    def test_membership_proof_round_count_enforced(self):
        dep = build_deployment(4, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        config = cfg(h=3, mu=2)
        request = obu.start(rsu.beacon(), config)
        key_id = rsu.register_session(request, config)
        obu.bind(key_id)
        rsu.receive_proof_sets(key_id, obu.choose_proof_sets(config))
        short = obu.prove_membership(cfg(h=2, mu=2), challenge_rng=rsu.rng)
        assert not rsu.check_membership_proof(key_id, short)


def _run_to_bundle(seed, config, stub=True):
    dep = build_deployment(seed, n=config.n, k=config.k, stub=stub)
    rsu = dep.make_rsu(1)
    obu = dep.make_obu(2)
    request = obu.start(rsu.beacon(), config)
    key_id = rsu.register_session(request, config)
    obu.bind(key_id)
    sets = obu.choose_proof_sets(config)
    assert rsu.receive_proof_sets(key_id, sets) is None
    sealed = obu.prove_membership(config, challenge_rng=rsu.rng)
    assert rsu.check_membership_proof(key_id, sealed)
    bundle = rsu.generate_proof_bundle(key_id, challenge_rng=obu.rng)
    return dep, rsu, obu, key_id, sets, bundle


def _tamper_items(rsu, obu, key_id, bundle, count):
    """Re-seal the first `count` items with a mismatched secret-id claim."""
    session_key = rsu.sessions[key_id].session_key
    m = rsu.credential.modulus
    items = list(bundle.items)
    for i in range(count):
        proof = zkp.decode_proof(obu.sym.open(session_key, items[i]), m)
        lied = dataclasses.replace(proof, secret_ids=(1,) * len(proof.secret_ids))
        items[i] = obu.sym.seal(session_key, zkp.encode_proof(lied, m), rsu.rng)
    return dataclasses.replace(bundle, items=tuple(items))


class TestBundleVerification:
    def test_honest_bundle_verifies_every_item(self):
        config = cfg(alpha=2, mu=4, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(7, config)
        result = obu.verify_bundle(bundle, config, sets)
        assert result.outcome is Outcome.ACCEPTED
        assert result.verified_count == config.mu

    def test_threshold_boundary_and_monotonicity(self):
        config = cfg(alpha=3, mu=4, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(8, config)
        # leave exactly 2 valid items
        tampered = _tamper_items(rsu, obu, key_id, bundle, 2)
        for alpha, expected in [(1, Outcome.ACCEPTED), (2, Outcome.ACCEPTED),
                                (3, Outcome.REJECTED_INSUFFICIENT_PROOFS),
                                (4, Outcome.REJECTED_INSUFFICIENT_PROOFS)]:
            check = cfg(alpha=alpha, mu=4, h=2)
            result = obu.verify_bundle(tampered, check, sets)
            assert result.outcome is expected
            assert result.verified_count == 2

    def test_all_items_tampered(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(9, config)
        tampered = _tamper_items(rsu, obu, key_id, bundle, 3)
        result = obu.verify_bundle(tampered, config, sets)
        assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
        assert result.verified_count == 0

    def test_wrong_round_count_not_counted(self):
        config = cfg(alpha=1, mu=2, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(10, config)
        stricter = cfg(alpha=1, mu=2, h=3)
        result = obu.verify_bundle(bundle, stricter, sets)
        assert result.verified_count == 0

    def test_bundle_for_other_session_rejected(self):
        config = cfg(alpha=1, mu=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(11, config)
        alien = dataclasses.replace(bundle, key_id=b"\xff" * 8)
        with pytest.raises(EnvelopeFailure):
            obu.verify_bundle(alien, config, sets)

    def test_eager_stop_skips_surplus_items(self):
        config = cfg(alpha=1, mu=4, h=1, eager_stop=True)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(12, config)
        observations = []
        result = obu.verify_bundle(bundle, config, sets, observations=observations)
        assert result.outcome is Outcome.ACCEPTED
        assert result.verified_count == 1
        assert len(observations) == 1

    def test_accepted_result_must_meet_threshold(self):
        with pytest.raises(ValueError):
            AuthResult(Outcome.ACCEPTED, verified_count=1, alpha=2)


class TestFullSession:
    @pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
    def test_accept_both_variants(self, variant):
        dep = build_deployment(20, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        config = cfg(alpha=2, mu=3, h=2, variant=variant)
        result, log = run_full_session(obu, rsu, config)
        assert result.outcome is Outcome.ACCEPTED
        assert result.verified_count == 3
        assert len(log.bundle_observations) == 3
        assert rsu.sessions[log.key_id].closing_alpha == 2

    def test_transcript_frames_cover_all_steps(self):
        dep = build_deployment(21, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        config = cfg(alpha=1, mu=2)
        result, log = run_full_session(obu, rsu, config)
        # beacon, request, sets, membership, mu bundle items, closing reply
        assert len(log.frames) == 4 + config.mu + 1
        assert log.membership_proof is None

    def test_key_ids_are_unique_across_sessions(self):
        dep = build_deployment(22, n=6, k=2, stub=True)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        ids = set()
        for _ in range(50):
            _, log = run_full_session(obu, rsu, cfg())
            ids.add(log.key_id)
        assert len(ids) == 50

    def test_interleaved_sessions_are_isolated(self):
        dep = build_deployment(23, n=6, k=2, q=2, obus=2)
        rsu = dep.make_rsu(1)
        obu_a = dep.make_obu(2, index=0)
        obu_b = dep.make_obu(3, index=1)
        config = cfg(alpha=1, mu=2, h=2)
        # both sessions open before either proves
        req_a = obu_a.start(rsu.beacon(), config)
        req_b = obu_b.start(rsu.beacon(), config)
        kid_a = rsu.register_session(req_a, config)
        kid_b = rsu.register_session(req_b, config)
        obu_a.bind(kid_a)
        obu_b.bind(kid_b)
        assert kid_a != kid_b
        sets_a = obu_a.choose_proof_sets(config)
        sets_b = obu_b.choose_proof_sets(config)
        assert rsu.receive_proof_sets(kid_a, sets_a) is None
        assert rsu.receive_proof_sets(kid_b, sets_b) is None
        # b proves first, then a; each against its own session state
        assert rsu.check_membership_proof(kid_b, obu_b.prove_membership(config, rsu.rng))
        assert rsu.check_membership_proof(kid_a, obu_a.prove_membership(config, rsu.rng))
        bundle_a = rsu.generate_proof_bundle(kid_a, challenge_rng=obu_a.rng)
        bundle_b = rsu.generate_proof_bundle(kid_b, challenge_rng=obu_b.rng)
        assert obu_a.verify_bundle(bundle_a, config, sets_a).outcome is Outcome.ACCEPTED
        assert obu_b.verify_bundle(bundle_b, config, sets_b).outcome is Outcome.ACCEPTED
        # cross-session bundles do not verify
        with pytest.raises(EnvelopeFailure):
            obu_a.verify_bundle(bundle_b, config, sets_b)

    def test_verifier_state_never_names_the_member(self):
        mod = generate_blum_modulus(64, 30)
        dep = build_deployment(30, n=6, k=2, modulus=mod)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        result, log = run_full_session(obu, rsu, cfg(alpha=1, mu=2))
        assert result.outcome is Outcome.ACCEPTED
        sess = rsu.sessions[log.key_id]
        state = json.dumps(
            {
                "group_id": sess.group_id,
                "serv_id": sess.serv_id,
                "alpha": sess.alpha,
                "sets": sess.requested_sets,
            },
            default=str,
        )
        assert str(obu.credential.iv) not in state
        for secret in obu.credential.master_key:
            assert str(secret) not in state
        # the verifier credential holds witnesses, never master secrets
        held = {v for ws in rsu.credential.master_witnesses.values() for v in ws}
        assert held.isdisjoint(obu.credential.master_key)


def _open_screened_session(rsu, obu, config):
    request = obu.start(rsu.beacon(), config)
    key_id = rsu.register_session(request, config)
    obu.bind(key_id)
    assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets(config)) is None
    return key_id


class TestStepOrder:
    """Each RSU step checks that the step it depends on has run."""

    def test_membership_proof_before_set_screening_fails(self):
        dep = build_deployment(50, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = rsu.register_session(obu.start(rsu.beacon(), config), config)
        obu.bind(key_id)
        early = obu.prove_membership(config, rsu.rng)
        assert rsu.check_membership_proof(key_id, early) is False
        assert rsu.sessions[key_id].membership_ok is False
        assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets(config)) is None
        assert rsu.check_membership_proof(key_id, early)

    def test_bundle_needs_a_verified_membership_proof(self):
        dep = build_deployment(51, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        with pytest.raises(protocol.StepOutOfOrder):
            rsu.generate_proof_bundle(key_id, challenge_rng=obu.rng)
        sealed = obu.sym.seal(obu.session_key, b"abc", obu.rng)
        assert not rsu.check_membership_proof(key_id, sealed)
        with pytest.raises(protocol.StepOutOfOrder):
            rsu.generate_proof_bundle(key_id, challenge_rng=obu.rng)


class TestSessionCapacity:
    def test_oldest_session_is_evicted(self):
        dep = build_deployment(52, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg()
        beacon = rsu.beacon()
        key_ids = []
        for _ in range(protocol.SESSION_CAPACITY + 1):
            key_ids.append(rsu.register_session(obu.start(beacon, config), config))
            assert len(rsu.sessions) <= protocol.SESSION_CAPACITY
        assert len(rsu.sessions) == protocol.SESSION_CAPACITY
        with pytest.raises(UnknownSession):
            rsu.negotiate_privacy(key_ids[0], config.alpha)
        assert rsu.negotiate_privacy(key_ids[1], config.alpha) == config.alpha
        assert rsu.negotiate_privacy(key_ids[-1], config.alpha) == config.alpha


class TestVariantDowngrade:
    """The verifier takes the variant from its own config, never from the
    variant byte the prover sends."""

    def test_hardened_rsu_rejects_basic_membership_proof(self):
        dep = build_deployment(40, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg(h=2, variant=Variant.HARDENED))
        sealed = obu.prove_membership(cfg(h=2), challenge_rng=rsu.rng)
        assert not rsu.check_membership_proof(key_id, sealed)

    def test_hardened_obu_does_not_count_basic_bundle(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(41, config)
        hardened = cfg(alpha=1, mu=3, h=2, variant=Variant.HARDENED)
        result = obu.verify_bundle(bundle, hardened, sets)
        assert result.verified_count == 0
        assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS

    def test_replayed_basic_transcript_rejected_in_hardened_session(self):
        dep = build_deployment(42, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        basic = cfg(h=2)
        recorded_key = _open_screened_session(rsu, obu, basic)
        sealed = obu.prove_membership(basic, challenge_rng=rsu.rng)
        assert rsu.check_membership_proof(recorded_key, sealed)
        plain = obu.sym.open(obu.session_key, sealed)
        # a fresh hardened session; the replayer knows its session key
        key_id = _open_screened_session(rsu, obu, cfg(h=2, variant=Variant.HARDENED))
        resealed = obu.sym.seal(obu.session_key, plain, obu.rng)
        assert not rsu.check_membership_proof(key_id, resealed)


class TestMalformedProofs:
    def test_membership_proof_that_does_not_decode_fails(self):
        dep = build_deployment(43, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        plain = obu.sym.open(obu.session_key, obu.prove_membership(config, rsu.rng))
        for bad in (plain[:-1], plain + b"\0", plain[:8]):
            sealed = obu.sym.seal(obu.session_key, bad, obu.rng)
            assert not rsu.check_membership_proof(key_id, sealed)

    def test_bundle_item_that_does_not_decode_is_not_counted(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(44, config)
        items = list(bundle.items)
        items[0] = obu.sym.seal(obu.session_key, b"", rsu.rng)
        items[1] = obu.sym.seal(
            obu.session_key, obu.sym.open(obu.session_key, items[1])[:-2], rsu.rng
        )
        result = obu.verify_bundle(dataclasses.replace(bundle, items=tuple(items)), config, sets)
        assert result.verified_count == 1

    def test_round_with_wrong_challenge_length_fails(self):
        dep = build_deployment(45, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        plain = obu.sym.open(obu.session_key, obu.prove_membership(config, rsu.rng))
        m = rsu.credential.modulus
        proof = zkp.decode_proof(plain[8:], m)
        # every round: the codec writes one challenge length per proof
        longer = [dataclasses.replace(rd, challenge=rd.challenge + (0,)) for rd in proof.rounds]
        forged = dataclasses.replace(proof, rounds=tuple(longer))
        sealed = obu.sym.seal(obu.session_key, plain[:8] + zkp.encode_proof(forged, m), obu.rng)
        assert not rsu.check_membership_proof(key_id, sealed)


def _zero_proof(variant, secret_ids=()):
    """What a prover with no secrets can send: W = Y = 0 in every round."""
    rounds = (zkp.ZkpRound(w=0, challenge=(1, 1), y=0),) * 2
    return zkp.ZkpProof(secret_ids=tuple(secret_ids), rounds=rounds, variant=variant)


@pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
class TestZeroProofs:
    def test_sealed_zero_membership_proof_is_refused(self, variant):
        dep = build_deployment(48, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg(h=2, variant=variant))
        plain = struct.pack(">d", obu.clock.now()) + zkp.encode_proof(
            _zero_proof(variant), rsu.credential.modulus
        )
        sealed = obu.sym.seal(obu.session_key, plain, obu.rng)
        assert rsu.check_membership_proof(key_id, sealed) is False

    def test_zero_bundle_items_count_zero(self, variant):
        config = cfg(alpha=1, mu=3, h=2, variant=variant)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(49, config)
        items = tuple(
            obu.sym.seal(
                obu.session_key,
                zkp.encode_proof(_zero_proof(variant, ids), rsu.credential.modulus),
                rsu.rng,
            )
            for ids in sets
        )
        result = obu.verify_bundle(dataclasses.replace(bundle, items=items), config, sets)
        assert result.verified_count == 0


class TestShortPlaintexts:
    """Anyone holding the session key can seal any bytes to the RSU."""

    def test_membership_plaintext_shorter_than_t2_fails(self):
        dep = build_deployment(46, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        honest = obu.prove_membership(config, rsu.rng)
        assert rsu.check_membership_proof(key_id, honest)
        for short in (b"abc", b""):
            sealed = obu.sym.seal(obu.session_key, short, obu.rng)
            assert rsu.check_membership_proof(key_id, sealed) is False
            assert rsu.sessions[key_id].membership_ok is False
        rsu.clock.advance(30.0)
        with pytest.raises(StaleTimestamp):
            rsu.check_membership_proof(key_id, honest)

    def test_closing_reply_must_be_one_byte(self):
        dep = build_deployment(47, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg())
        for bad in (b"", b"abc"):
            with pytest.raises(EnvelopeFailure):
                rsu.record_closing_reply(key_id, obu.sym.seal(obu.session_key, bad, obu.rng))
        assert rsu.sessions[key_id].closing_alpha is None
        assert rsu.record_closing_reply(key_id, obu.closing_reply(2)) == 2


def _request_body(**overrides):
    body = {"group_id": 1, "t1": 0.0, "session_key": "00" * 16, "serv_id": "INFO", "alpha": 1}
    body.update(overrides)
    return body


class TestHostileRequests:
    """Anyone can seal a request body to the RSU's public key."""

    def _register(self, rsu, body):
        plain = json.dumps(body).encode()
        sealed = StubSeal().seal(rsu.credential.certificate.public_key, plain, rsu.rng)
        return rsu.register_session(AuthRequest(ciphertext=sealed), cfg())

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {},
            _request_body(t1="0.0"),
            _request_body(t1=float("nan")),
            _request_body(t1=10**400),
            _request_body(session_key="zz" * 16),
            _request_body(session_key="ab"),
            _request_body(group_id=99),
        ],
        ids=["list", "empty", "str-t1", "nan-t1", "huge-t1", "non-hex-key", "short-key",
             "unknown-group"],
    )
    def test_malformed_body_is_rejected(self, body):
        rsu = build_deployment(48, n=6, k=2, stub=True).make_rsu(1)
        self._register(rsu, _request_body())  # the body every case alters registers
        with pytest.raises(MalformedRequest):
            self._register(rsu, body)
        assert len(rsu.sessions) == 1

    def test_nan_t2_is_stale(self):
        dep = build_deployment(49, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        plain = StubEnvelope().open(obu.session_key, obu.prove_membership(config, rsu.rng))
        forged = struct.pack(">d", float("nan")) + plain[8:]
        with pytest.raises(StaleTimestamp):
            rsu.check_membership_proof(key_id, obu.sym.seal(obu.session_key, forged, obu.rng))
