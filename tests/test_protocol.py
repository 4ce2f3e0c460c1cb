import copy
import dataclasses
import functools
import json
import pickle
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    precondition,
    rule,
)

from anonauth import envelopes, keymgmt, protocol, revocation, zkp
from anonauth.envelopes import EnvelopeFailure, StubEnvelope, StubSeal
from anonauth.numtheory import generate_blum_modulus
from anonauth.protocol import (
    AuthResult,
    BadCertificate,
    MalformedRequest,
    MalformedSetRequest,
    ObuStep,
    Outcome,
    SessionConfig,
    StaleTimestamp,
    Step,
    StepOutOfOrder,
    UnknownSession,
    UnsupportedAlpha,
    run_full_session,
)
from anonauth.revocation import ParameterOverflow
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

    def test_serv_id_must_encode_as_utf8(self):
        # a request carries serv_id as UTF-8, which a lone surrogate has no form in
        with pytest.raises(ValueError):
            cfg(serv_id="\ud800")
        assert cfg(serv_id="INFO\u00e9").serv_id == "INFO\u00e9"


class TestHandshakeErrors:
    def test_bad_beacon_certificate(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        beacon = rsu.beacon()
        forged = dataclasses.replace(beacon, rsu_id=99)
        with pytest.raises(BadCertificate):
            obu.start(forged, cfg())

    def test_stale_timestamp(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        obu.clock += 30.0  # far outside the 5 s freshness window
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
        with pytest.raises(EnvelopeFailure):
            rsu_b.register_session(request, cfg())

    def test_unknown_session_key_id(self):
        dep = build_deployment(1, n=6, k=2)
        rsu = dep.make_rsu(1)
        with pytest.raises(UnknownSession):
            rsu.negotiate_privacy(b"\x01" * 8)

    def test_unknown_session_is_a_value_error(self):
        # one error family for bad input: the CLI turns ValueError into exit 2
        assert issubclass(UnknownSession, ValueError)


class TestPrivacyNegotiation:
    def _session(self, policy=None, sealed=None, registered=None):
        """A registered session whose member sealed ``sealed`` (default
        ``cfg()``) and which the verifier registered under ``registered``."""
        dep = build_deployment(2, n=6, k=2)
        rsu = dep.make_rsu(1, policy=policy)
        obu = dep.make_obu(2)
        sealed = sealed or cfg()
        request = obu.start(rsu.beacon(), sealed)
        key_id = rsu.register_session(request, registered or sealed)
        obu.key_id = key_id
        return rsu, obu, key_id

    def test_permitted_alpha_echoed(self):
        rsu, _, key_id = self._session()
        assert rsu.negotiate_privacy(key_id) == 1
        assert rsu.sessions[key_id].step is Step.NEGOTIATED

    def test_alpha_below_policy_floor_rejected(self):
        rsu, _, key_id = self._session(policy={"INFO": 3}, sealed=cfg(alpha=2, mu=3))
        assert rsu.negotiate_privacy(key_id) is None
        assert key_id not in rsu.sessions  # a refusal decides the session
        rsu, _, key_id = self._session(policy={"INFO": 3}, sealed=cfg(alpha=3, mu=3))
        assert rsu.negotiate_privacy(key_id) == 3

    def test_sealed_alpha_is_judged_not_the_registered_config(self):
        # the member sealed alpha 2; the verifier's own config says 4
        rsu, _, key_id = self._session(
            policy={"INFO": 3}, sealed=cfg(alpha=2, mu=4), registered=cfg(alpha=4, mu=4)
        )
        assert rsu.negotiate_privacy(key_id) is None

    def test_unknown_service_rejected(self):
        rsu, _, key_id = self._session(policy={"NAV": 1})
        assert rsu.negotiate_privacy(key_id) is None

    def test_sets_of_policy_rejected_session_are_refused(self):
        rsu, obu, key_id = self._session(policy={"INFO": 3})
        assert rsu.negotiate_privacy(key_id) is None
        with pytest.raises(UnknownSession):
            rsu.receive_proof_sets(key_id, obu.choose_proof_sets())
        assert key_id not in rsu.sessions

    def test_policy_rejection_ends_session(self, transcript_builds):
        dep = build_deployment(2, n=6, k=2)
        rsu = dep.make_rsu(1, policy={"INFO": 4})
        obu = dep.make_obu(2)
        result, log = run_full_session(obu, rsu, cfg(alpha=2, mu=3))
        assert result.outcome is Outcome.REJECTED_POLICY
        assert result.verified_count == 0
        assert not transcript_builds  # nothing is built until the transcript is read
        assert not log.bundle_observations
        assert len(log.frames) == 2 and transcript_builds == {"frames": 2}


def _seal_sets(obu, sets, tail=b""):
    """What anyone holding the session key can announce as sets: their ids
    in the order given, 4 bytes each, then ``tail``."""
    ids = [i for s in sets for i in s]
    return obu.sym.seal(obu.session_key, struct.pack(f">{len(ids)}I", *ids) + tail, obu.rng)


class TestProofSetAnnouncement:
    def _session(self, config):
        dep = build_deployment(3, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        request = obu.start(rsu.beacon(), config)
        key_id = rsu.register_session(request, config)
        obu.key_id = key_id
        assert rsu.negotiate_privacy(key_id) == config.alpha
        return rsu, obu, key_id

    def test_wrong_set_count(self):
        rsu, obu, key_id = self._session(cfg(mu=3))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2), (3, 4)]))

    def test_duplicate_sets(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2), (1, 2)]))

    def test_descending_set_is_refused(self):
        # one encoding per announcement: the same sets in another order are refused
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(2, 1), (3, 4)]))
        assert rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2), (3, 4)])) is None
        assert rsu.sessions[key_id].requested_sets == ((1, 2), (3, 4))

    def test_trailing_byte_is_refused(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2), (3, 4)], tail=b"\0"))
        assert rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2), (3, 4)])) is None

    def test_wrong_set_size(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 2, 3), (4, 5)]))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 1), (4, 5)]))

    def test_ids_out_of_range(self):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(0, 2), (3, 4)]))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, _seal_sets(obu, [(1, 7), (3, 4)]))

    def test_mu_above_subset_count(self):
        with pytest.raises(ParameterOverflow):
            cfg(alpha=5, mu=7, n=4)

    @pytest.mark.parametrize(
        "plain",
        [
            b"[[1, 2], [3",
            b"\xff\xfe",
            b'{"sets": [[1, 2], [3, 4]]}',
            b'"[[1, 2], [3, 4]]"',
            b"[1, 2]",
            b'[["1", 2], [3, 4]]',
            b"[[true, 2], [3, 4]]",
            b"[[1.0, 2], [3, 4]]",
            b"[[[1, 2]], [3, 4]]",
            b"[[1, 2], [3, 4, [5]]]",
            b"[" * 100_000,
        ],
        ids=["truncated", "not-utf8", "object", "string", "flat-list", "string-id",
             "bool-id", "float-id", "nested-set", "nested-id", "deep"],
    )
    def test_hostile_sealed_sets_are_refused(self, plain):
        rsu, obu, key_id = self._session(cfg(mu=2))
        with pytest.raises(MalformedSetRequest):
            rsu.receive_proof_sets(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))
        with pytest.raises(EnvelopeFailure):
            rsu.receive_proof_sets(key_id, plain)  # not sealed under the session key
        assert rsu.sessions[key_id].step is Step.NEGOTIATED
        assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets()) is None


class TestMembership:
    def test_wrong_group_master_key_rejected(self):
        # the member presents group 1's master key against group 2's
        # witnesses; acceptance chance is at most ~2^-kh per session
        dep = build_deployment(4, n=6, k=2, q=2, stub=True)
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
        # the member proves 2 rounds; the verifier's session asks for 3
        key_id = _open_screened_session(rsu, obu, cfg(h=2, mu=2), rsu_config=cfg(h=3, mu=2))
        with pytest.raises(zkp.MalformedProof):
            rsu.challenge_membership(key_id, obu.prove_membership())
        assert rsu.sessions[key_id].step is Step.SCREENED  # a retry is allowed
        with pytest.raises(StepOutOfOrder):
            rsu.generate_proof_bundle(key_id)


def _membership(rsu, obu, key_id):
    """One membership exchange between the endpoints; the RSU's verdict."""
    challenges = rsu.challenge_membership(key_id, obu.prove_membership())
    return rsu.check_membership_proof(key_id, obu.answer_membership(challenges))


def _run_to_member_verified(seed, config, stub=True):
    dep = build_deployment(seed, n=config.n, k=config.k, stub=stub)
    rsu = dep.make_rsu(1)
    obu = dep.make_obu(2)
    key_id = _open_screened_session(rsu, obu, config)
    assert _membership(rsu, obu, key_id)
    return dep, rsu, obu, key_id


def _run_to_bundle(seed, config, stub=True, tamper=0):
    """A session whose member holds the challenged bundle; the RSU's sealed
    answers. The first ``tamper`` proofs' answers are doubled, which fails
    each of their rounds: Y is a unit, and (2Y)^2 = 4Y^2 is not +-Y^2 mod m."""
    dep, rsu, obu, key_id = _run_to_member_verified(seed, config, stub)
    challenges = obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
    answers = rsu.answer_bundle(key_id, challenges)
    if tamper:
        m, bad = rsu.credential.modulus, config.h * tamper
        plain = obu.sym.open(obu.session_key, answers)
        ys = list(zkp.decode_proof(plain, config.mu * config.h, m))
        ys[:bad] = [2 * y % m for y in ys[:bad]]
        answers = obu.sym.seal(obu.session_key, zkp.encode_proof(ys, m), rsu.rng)
    return dep, rsu, obu, key_id, obu.sets, answers


class TestBundleVerification:
    def test_honest_bundle_verifies_every_item(self):
        config = cfg(alpha=2, mu=4, h=2)
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(7, config)
        result = obu.verify_bundle(bundle)
        assert result.outcome is Outcome.ACCEPTED
        assert result.verified_count == config.mu

    def test_threshold_boundary_and_monotonicity(self):
        config = cfg(alpha=3, mu=4, h=2)
        # leave exactly 2 valid items
        dep, rsu, obu, key_id, sets, tampered = _run_to_bundle(8, config, tamper=2)
        for alpha, expected in [(1, Outcome.ACCEPTED), (2, Outcome.ACCEPTED),
                                (3, Outcome.REJECTED_INSUFFICIENT_PROOFS),
                                (4, Outcome.REJECTED_INSUFFICIENT_PROOFS)]:
            # each alpha judges the bundle in its own copy of the open session
            trial = copy.copy(obu)
            trial.config = cfg(alpha=alpha, mu=4, h=2)
            result = trial.verify_bundle(tampered)
            assert result.outcome is expected
            assert result.verified_count == 2

    def test_all_items_tampered(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id, sets, tampered = _run_to_bundle(9, config, tamper=3)
        result = obu.verify_bundle(tampered)
        assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
        assert result.verified_count == 0

    def test_wrong_round_count_not_counted(self):
        # the RSU commits 2 rounds per proof; the member's session asks for 3
        dep, rsu, obu, key_id = _run_to_member_verified(10, cfg(alpha=1, mu=2, h=2))
        commitments = rsu.generate_proof_bundle(key_id)
        obu.config = cfg(alpha=1, mu=2, h=3)
        with pytest.raises(zkp.MalformedProof):
            obu.challenge_bundle(commitments)
        with pytest.raises(StepOutOfOrder):  # nothing was challenged, so nothing counts
            obu.verify_bundle(obu.sym.seal(obu.session_key, b"", rsu.rng))
        assert obu.credential.counter == 0

    def test_bundle_for_other_session_rejected(self):
        config = cfg(alpha=1, mu=2)
        dep, rsu, obu, key_id, sets, answers = _run_to_bundle(11, config)
        alien = obu.sym.seal(b"\xff" * 16, obu.sym.open(obu.session_key, answers), rsu.rng)
        with pytest.raises(EnvelopeFailure):
            obu.verify_bundle(alien)
        # a frame that does not open spends nothing
        assert obu.verify_bundle(answers).outcome is Outcome.ACCEPTED

    def test_accepted_result_must_meet_threshold(self):
        with pytest.raises(ValueError):
            AuthResult(Outcome.ACCEPTED, verified_count=1, alpha=2)


class TestBundleReplay:
    def test_accepted_bundle_moves_the_counter_once(self):
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(14, cfg(alpha=2, mu=2, h=2))
        assert obu.verify_bundle(bundle).outcome is Outcome.ACCEPTED
        assert obu.credential.counter == 1
        with pytest.raises(StepOutOfOrder):
            obu.verify_bundle(bundle)
        assert obu.credential.counter == 1

    def test_the_last_counter_is_never_advanced(self):
        dep = build_deployment(17, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        last = revocation.COUNTER_LIMIT - 1
        obu.credential.counter = last - 1
        assert run_full_session(obu, rsu, cfg())[0].outcome is Outcome.ACCEPTED
        assert obu.credential.counter == last
        # no counter follows the last, so the member refuses before it sends
        # anything and the RSU holds no session it could not close
        for _ in range(2):
            with pytest.raises(revocation.CounterOverflow):
                run_full_session(obu, rsu, cfg())
            assert obu.credential.counter == last and not rsu.sessions
        with pytest.raises(revocation.CounterOverflow):
            revocation.next_sequence(obu.credential.iv, last + 1, 6, 2, 3)

    def test_a_new_session_forgets_the_last_sets(self):
        # bundle commitments sent before this session announced any sets
        # are not challenged: the member holds no sets to judge them against
        dep = build_deployment(18, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(alpha=2, mu=2, h=2)
        assert run_full_session(obu, rsu, config)[0].outcome is Outcome.ACCEPTED
        last_sets, m = obu.sets, rsu.credential.modulus
        obu.start(rsu.beacon(), config)
        prover = zkp.Prover((zkp.BASIC,) * 2, ((),) * 2, 2, m, rsu.rng)
        with pytest.raises(StepOutOfOrder):
            obu.challenge_bundle(obu.sym.seal(obu.session_key, prover.commitments, rsu.rng))
        assert obu.credential.counter == 1
        assert obu.sets == () and obu.key_id == protocol.NO_KEY_ID

    def test_verify_needs_an_open_session(self):
        dep = build_deployment(15, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        for step in (obu.challenge_bundle, obu.verify_bundle):
            with pytest.raises(StepOutOfOrder):
                step(b"")

    @pytest.mark.parametrize(
        "step",
        [
            lambda obu: obu.choose_proof_sets(),
            lambda obu: obu.prove_membership(),
            lambda obu: obu.answer_membership(b""),
            lambda obu: obu.closing_reply(),
        ],
        ids=["choose_proof_sets", "prove_membership", "answer_membership", "closing_reply"],
    )
    def test_steps_need_an_open_session(self, step):
        obu = build_deployment(16, n=6, k=2, stub=True).make_obu(2)
        with pytest.raises(StepOutOfOrder):
            step(obu)


def _signed_beacon(dep, rsu_id=0, **window):
    """A beacon whose certificate the deployment's root signs over ``window``."""
    public = dep.rsu_cred.certificate.public_key
    return keymgmt.Kdc(dep.kdc_seed).issue_certificate(rsu_id, public, **window)


class TestCertificateChecks:
    def test_certificate_outside_its_window_is_refused(self):
        dep = build_deployment(16, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        beacon = _signed_beacon(dep, valid_from=100, valid_to=200)
        with pytest.raises(BadCertificate):
            obu.start(beacon, cfg())  # t = 0
        obu.clock += 150
        obu.start(beacon, cfg())
        obu.clock += 100  # t = 250
        with pytest.raises(BadCertificate):
            obu.start(beacon, cfg())

    def test_cached_certificate_still_checks_its_window(self):
        dep = build_deployment(17, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        beacon = _signed_beacon(dep, valid_to=10)
        obu.start(beacon, cfg())
        obu.clock += 20
        with pytest.raises(BadCertificate):
            obu.start(beacon, cfg())

    def test_tampered_signature_on_a_cached_payload_fails(self):
        dep = build_deployment(18, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        beacon = rsu.beacon()
        obu.start(beacon, cfg())
        cert = beacon
        flipped = bytes([cert.signature[0] ^ 1]) + cert.signature[1:]
        # and the genuine signature on another payload
        for change in ({"signature": flipped}, {"rsu_id": cert.rsu_id + 1}):
            forged = dataclasses.replace(cert, **change)
            with pytest.raises(BadCertificate):
                obu.start(forged, cfg())

    def test_payload_is_encoded_once_across_sessions(self, monkeypatch):
        dep = build_deployment(22, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        encoded = []
        original = keymgmt._cert_to_dict
        monkeypatch.setattr(
            keymgmt, "_cert_to_dict", lambda cert: encoded.append(cert) or original(cert)
        )
        for _ in range(10):
            result, _ = run_full_session(obu, rsu, cfg())
            assert result.outcome is Outcome.ACCEPTED
        assert encoded == [rsu.credential.certificate]

    def test_signature_is_verified_once_per_certificate(self, verify_calls):
        dep = build_deployment(19, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        first, second = dep.make_rsu(1).beacon(), _signed_beacon(dep, rsu_id=1)
        for beacon in (first, second, first, second, first):
            obu.start(beacon, cfg())
        assert verify_calls == [0, 1]

    def test_oldest_certificate_is_forgotten(self, verify_calls):
        dep = build_deployment(21, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        size = protocol.CERTIFICATE_CACHE_SIZE
        beacons = [_signed_beacon(dep, rsu_id=i) for i in range(size + 1)]
        for beacon in beacons + beacons[1:] + beacons[:1]:
            obu.start(beacon, cfg())
        assert verify_calls == list(range(size + 1)) + [0]

    def test_memo_is_bounded_and_drops_the_least_recently_used(self, verify_calls):
        dep = build_deployment(23, n=6, k=2, stub=True)
        obu = dep.make_obu(2)
        size = protocol.CERTIFICATE_CACHE_SIZE
        beacons = [_signed_beacon(dep, rsu_id=i) for i in range(size + 1)]
        # certificate 0 is used again just before certificate `size` arrives,
        # so 1 is the least recently used and the one dropped
        for beacon in beacons[:size] + beacons[:1] + beacons[size:] + beacons[:2]:
            obu.start(beacon, cfg())
            assert protocol._signature_verified.cache_info().currsize <= size
        assert verify_calls == list(range(size + 1)) + [1]

    def test_another_member_reuses_a_verified_certificate(self, verify_calls):
        dep = build_deployment(24, n=6, k=2, obus_per_group=2, stub=True)
        beacon = dep.make_rsu(1).beacon()
        dep.make_obu(2).start(beacon, cfg())
        dep.make_obu(3, index=1).start(beacon, cfg())
        assert verify_calls == [0]

    def test_memo_is_keyed_by_the_root(self, verify_calls):
        dep, other = (build_deployment(seed, n=6, k=2, stub=True) for seed in (25, 26))
        beacon = dep.make_rsu(1).beacon()
        dep.make_obu(2).start(beacon, cfg())
        with pytest.raises(BadCertificate):
            other.make_obu(2).start(beacon, cfg())
        assert verify_calls == [0, 0]

    def test_forged_signature_is_checked_every_time(self, verify_calls):
        dep = build_deployment(27, n=6, k=2, stub=True)
        cert = dep.make_rsu(1).beacon()
        flipped = bytes([cert.signature[0] ^ 1]) + cert.signature[1:]
        forged = dataclasses.replace(cert, signature=flipped)
        for _ in range(2):
            with pytest.raises(BadCertificate):
                dep.make_obu(2).start(forged, cfg())
        assert verify_calls == [0, 0]

    def test_equal_certificate_over_other_bytes_is_checked(self, verify_calls):
        dep = build_deployment(28, n=6, k=2, stub=True)
        beacon = dep.make_rsu(1).beacon()
        obu = dep.make_obu(2)
        obu.start(beacon, cfg())
        # 0 == 0.0, but the signed JSON reads "0" instead of "0.0"
        cert = dataclasses.replace(beacon, valid_from=0)
        assert cert == beacon
        with pytest.raises(BadCertificate):
            obu.start(cert, cfg())
        assert verify_calls == [0, 0]


class TestFullSession:
    @pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
    def test_accept_both_variants(self, variant, transcript_builds):
        dep = build_deployment(20, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        config = cfg(alpha=2, mu=3, h=2, variant=variant)
        result, log = run_full_session(obu, rsu, config)
        assert result.outcome is Outcome.ACCEPTED
        assert result.verified_count == 3
        assert not rsu.sessions  # the closing reply decides the session
        # a transcript nobody reads costs no encode and no proof; each read
        # builds its part once
        assert not transcript_builds
        for _ in range(2):
            assert [obs.secret_ids for obs in log.bundle_observations] == list(obu.sets)
            assert len(log.frames) == 10
        assert transcript_builds == {"frames": 10, "proofs": 3}

    def test_transcript_frames_cover_all_steps(self):
        dep = build_deployment(21, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        config = cfg(alpha=1, mu=2)
        result, log = run_full_session(obu, rsu, config)
        # beacon, request, sets, the membership proof's commitments,
        # challenges and answers, the bundle's, and the closing reply
        tags = [envelopes.decode_message(frame)[0] for frame in log.frames]
        exchange = [envelopes.MSG_COMMITMENTS, envelopes.MSG_CHALLENGES, envelopes.MSG_ANSWERS]
        assert tags == [envelopes.MSG_BEACON, envelopes.MSG_AUTH_REQUEST,
                        envelopes.MSG_PROOF_SETS, *exchange, *exchange,
                        envelopes.MSG_ALPHA_REPLY]
        assert log.key_id not in rsu.sessions

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
        dep = build_deployment(23, n=6, k=2, q=2)
        rsu = dep.make_rsu(1)
        obu_a = dep.make_obu(2, index=0)
        obu_b = dep.make_obu(3, index=1)
        config = cfg(alpha=1, mu=2, h=2)
        # both sessions open before either proves
        req_a = obu_a.start(rsu.beacon(), config)
        req_b = obu_b.start(rsu.beacon(), config)
        kid_a = rsu.register_session(req_a, config)
        kid_b = rsu.register_session(req_b, config)
        obu_a.key_id = kid_a
        obu_b.key_id = kid_b
        assert kid_a != kid_b
        assert rsu.negotiate_privacy(kid_b) == rsu.negotiate_privacy(kid_a) == 1
        assert rsu.receive_proof_sets(kid_a, obu_a.choose_proof_sets()) is None
        assert rsu.receive_proof_sets(kid_b, obu_b.choose_proof_sets()) is None
        # b commits first, a answers first; each against its own session state
        challenges_b = rsu.challenge_membership(kid_b, obu_b.prove_membership())
        challenges_a = rsu.challenge_membership(kid_a, obu_a.prove_membership())
        assert rsu.check_membership_proof(kid_a, obu_a.answer_membership(challenges_a))
        assert rsu.check_membership_proof(kid_b, obu_b.answer_membership(challenges_b))
        commitments_a = rsu.generate_proof_bundle(kid_a)
        commitments_b = rsu.generate_proof_bundle(kid_b)
        answers_b = rsu.answer_bundle(kid_b, obu_b.challenge_bundle(commitments_b))
        answers_a = rsu.answer_bundle(kid_a, obu_a.challenge_bundle(commitments_a))
        # cross-session answers do not open
        with pytest.raises(EnvelopeFailure):
            obu_a.verify_bundle(answers_b)
        assert obu_a.verify_bundle(answers_a).outcome is Outcome.ACCEPTED
        assert obu_b.verify_bundle(answers_b).outcome is Outcome.ACCEPTED

    def test_verifier_state_never_names_the_member(self):
        mod = generate_blum_modulus(64, 30)
        dep = build_deployment(30, n=6, k=2, modulus=mod)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg(alpha=1, mu=2))
        assert _membership(rsu, obu, key_id)
        challenges = obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
        answers = rsu.answer_bundle(key_id, challenges)
        assert obu.verify_bundle(answers).outcome is Outcome.ACCEPTED
        # the session at its last step, the most the verifier ever holds of it
        sess = rsu.sessions[key_id]
        state = json.dumps(
            {
                "group_id": sess.group_id,
                "min_alpha": sess.min_alpha,
                "alpha": sess.alpha,
                "sets": sess.requested_sets,
                "rounds": sess.rounds,
            },
            default=str,
        )
        assert str(obu.credential.iv) not in state
        for secret in obu.credential.master_key:
            assert str(secret) not in state
        rsu.record_closing_reply(key_id, obu.closing_reply())
        assert key_id not in rsu.sessions
        # the verifier credential holds witnesses, never master secrets
        held = {v for ws in rsu.credential.master_witnesses.values() for v in ws}
        assert held.isdisjoint(obu.credential.master_key)


@pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
class TestOwnRngOnly:
    """Each endpoint draws from its own rng only: after each of three
    sessions, the other endpoint's seed has moved none of its draws, while
    its own seed has."""

    @staticmethod
    def _next_draws(variant, obu_seed, rsu_seed):
        dep = build_deployment(61, n=6, k=2)
        rsu, obu = dep.make_rsu(rsu_seed), dep.make_obu(obu_seed)
        config = cfg(alpha=2, mu=3, h=2, variant=variant)
        obu_draws, rsu_draws = [], []
        for _ in range(3):
            assert run_full_session(obu, rsu, config)[0].outcome is Outcome.ACCEPTED
            obu_draws.append(obu.rng.randbits(64))
            rsu_draws.append(rsu.rng.randbits(64))
        return tuple(obu_draws), tuple(rsu_draws)

    def test_the_rsu_seed_moves_no_member_draw(self, variant):
        obu_draws, rsu_draws = zip(*(self._next_draws(variant, 5, seed) for seed in (1, 7, 99)))
        assert len(set(obu_draws)) == 1 and len(set(rsu_draws)) == 3

    def test_the_member_seed_moves_no_rsu_draw(self, variant):
        obu_draws, rsu_draws = zip(*(self._next_draws(variant, seed, 5) for seed in (1, 7, 99)))
        assert len(set(rsu_draws)) == 1 and len(set(obu_draws)) == 3


def _open_screened_session(rsu, obu, config, rsu_config=None):
    """A session the member opened under ``config`` and the verifier
    registered under ``rsu_config`` (default the same), screened clean."""
    request = obu.start(rsu.beacon(), config)
    key_id = rsu.register_session(request, rsu_config or config)
    obu.key_id = key_id
    assert rsu.negotiate_privacy(key_id) == config.alpha
    assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets()) is None
    return key_id


class TestStepOrder:
    """Each RSU step checks that the step it depends on has run."""

    def test_membership_proof_before_set_screening_fails(self):
        dep = build_deployment(50, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = rsu.register_session(obu.start(rsu.beacon(), config), config)
        obu.key_id = key_id
        with pytest.raises(StepOutOfOrder):  # the member announces its sets first
            obu.prove_membership()
        assert obu.step is ObuStep.OPEN
        sets = obu.choose_proof_sets()
        early = obu.prove_membership()
        with pytest.raises(StepOutOfOrder):
            rsu.challenge_membership(key_id, early)
        assert rsu.negotiate_privacy(key_id) == config.alpha
        with pytest.raises(StepOutOfOrder):
            rsu.challenge_membership(key_id, early)
        assert rsu.sessions[key_id].step is Step.NEGOTIATED
        assert rsu.receive_proof_sets(key_id, sets) is None
        # the answers come only after the verifier's own challenges
        with pytest.raises(StepOutOfOrder):
            rsu.check_membership_proof(key_id, early)
        challenges = rsu.challenge_membership(key_id, early)
        assert rsu.check_membership_proof(key_id, obu.answer_membership(challenges))

    def test_bundle_needs_a_verified_membership_proof(self):
        dep = build_deployment(51, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        with pytest.raises(protocol.StepOutOfOrder):
            rsu.generate_proof_bundle(key_id)
        commitments = obu.prove_membership()
        rsu.challenge_membership(key_id, commitments)
        with pytest.raises(protocol.StepOutOfOrder):
            rsu.generate_proof_bundle(key_id)
        sealed = obu.sym.seal(obu.session_key, b"abc", obu.rng)
        assert not rsu.check_membership_proof(key_id, sealed)
        # a failed proof decides the session: no retry, no bundle
        assert key_id not in rsu.sessions
        with pytest.raises(UnknownSession):
            rsu.challenge_membership(key_id, commitments)
        with pytest.raises(UnknownSession):
            rsu.generate_proof_bundle(key_id)

    def test_one_bundle_per_session(self):
        dep, rsu, obu, key_id = _run_to_member_verified(53, cfg(h=2))
        challenges = obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
        with pytest.raises(StepOutOfOrder):
            rsu.generate_proof_bundle(key_id)
        rsu.answer_bundle(key_id, challenges)
        # one answer per commitment: a second challenge finds no round state
        for step in (rsu.generate_proof_bundle, lambda kid: rsu.answer_bundle(kid, challenges)):
            with pytest.raises(StepOutOfOrder):
                step(key_id)
        assert rsu.sessions[key_id].step is Step.ANSWERED
        assert rsu.sessions[key_id].rounds is None

    def test_closing_reply_needs_a_bundle(self):
        dep = build_deployment(54, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg())
        with pytest.raises(StepOutOfOrder):
            rsu.record_closing_reply(key_id, obu.closing_reply())
        assert rsu.sessions[key_id].step is Step.SCREENED


# each member step's handler, given the RSU's last message
_MEMBER_HANDLERS = {
    ObuStep.OPEN: lambda obu, sealed: obu.choose_proof_sets(),
    ObuStep.ANNOUNCED: lambda obu, sealed: obu.prove_membership(),
    ObuStep.COMMITTED: lambda obu, sealed: obu.answer_membership(sealed),
    ObuStep.PROVEN: lambda obu, sealed: obu.challenge_bundle(sealed),
    ObuStep.CHALLENGED: lambda obu, sealed: obu.verify_bundle(sealed),
    ObuStep.DECIDED: lambda obu, sealed: obu.closing_reply(),
}


class TestMemberStepOrder:
    """The member keeps its session by the RSU's rule: at each step only
    that step's handler runs, and any other raises ``StepOutOfOrder``."""

    def test_only_the_steps_own_handler_runs(self):
        dep = build_deployment(56, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = obu.key_id = rsu.register_session(obu.start(rsu.beacon(), config), config)
        assert rsu.negotiate_privacy(key_id) == config.alpha

        def bundle(answers):
            assert rsu.check_membership_proof(key_id, answers)
            return rsu.generate_proof_bundle(key_id)

        # the RSU's move on each member message: the member's next input
        moves = {
            ObuStep.OPEN: lambda sets: rsu.receive_proof_sets(key_id, sets),
            ObuStep.ANNOUNCED: lambda commitments: rsu.challenge_membership(key_id, commitments),
            ObuStep.COMMITTED: bundle,
            ObuStep.PROVEN: lambda challenges: rsu.answer_bundle(key_id, challenges),
            ObuStep.CHALLENGED: lambda result: result.outcome,
            ObuStep.DECIDED: lambda reply: rsu.record_closing_reply(key_id, reply),
        }
        received = None
        for step, handler in _MEMBER_HANDLERS.items():
            assert obu.step is step
            before = dict(vars(obu))
            for other in _MEMBER_HANDLERS.values():
                if other is not handler:
                    with pytest.raises(StepOutOfOrder):
                        other(obu, b"")
                    assert vars(obu) == before
            received = moves[step](handler(obu, received))
        assert received == config.alpha and rsu.sessions == {}
        assert obu.step is ObuStep.DECIDED and obu.credential.counter == 1


class TestDecidedSessionsLeave:
    """An RSU holds a session only until it is decided: a policy refusal, a
    screening match, a failed membership proof or the closing reply."""

    def test_a_mixed_batch_leaves_no_session(self):
        dep = build_deployment(70, n=6, k=2, q=2, stub=True)
        rsu = dep.make_rsu(1)
        honest, forger, revoked = (dep.make_obu(2 + j, index=j % 2) for j in range(3))
        # a second group 1 member, on the next iv after the two provisioned
        revoked.credential = dataclasses.replace(revoked.credential, iv=1002)
        revocation.broadcast_revocation(revoked.credential.iv, 0, [rsu.table])
        # the group 2 member holding group 1's master key passes at most 2^-kh
        forger.credential = dataclasses.replace(
            forger.credential, master_key=dep.obu_creds[0].master_key
        )
        config = cfg(h=4)
        runs = [(honest, config), (honest, cfg(h=4, serv_id="XYZ")), (revoked, config),
                (forger, config), (honest, config)]
        outcomes = [run_full_session(obu, rsu, c)[0].outcome for obu, c in runs]
        assert outcomes == [Outcome.ACCEPTED, Outcome.REJECTED_POLICY, Outcome.REJECTED_REVOKED,
                            Outcome.REJECTED_MEMBERSHIP, Outcome.ACCEPTED]
        assert rsu.sessions == {}

    def test_a_failed_membership_proof_gets_no_second_exchange(self):
        dep = build_deployment(71, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg(h=2))
        commitments = obu.prove_membership()
        rsu.challenge_membership(key_id, commitments)
        m = rsu.credential.modulus
        zeros = obu.sym.seal(obu.session_key, zkp.encode_proof([0, 0], m), obu.rng)
        assert not rsu.check_membership_proof(key_id, zeros)
        with pytest.raises(UnknownSession):
            rsu.challenge_membership(key_id, commitments)
        with pytest.raises(StepOutOfOrder):  # nor does the member commit twice
            obu.prove_membership()

    def test_member_rejected_bundles_leave_no_session(self):
        # a member judging against another group's pool witnesses rejects
        # every bundle, and still closes the session at the RSU
        dep = build_deployment(74, n=6, k=2, q=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        obu.credential = dataclasses.replace(
            obu.credential, pool_witnesses=dep.obu_creds[1].pool_witnesses
        )
        result, log = run_full_session(dep.make_obu(3, index=1), rsu, cfg(h=8))
        assert result.outcome is Outcome.ACCEPTED and len(log.frames) == 10
        for _ in range(5):
            result, log = run_full_session(obu, rsu, cfg(h=8))
            assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
            assert obu.step is ObuStep.DECIDED and rsu.sessions == {}
            # a passive observer cannot tell a rejection by its frame count
            assert len(log.frames) == 10

    def test_a_screening_match_leaves_no_session(self):
        dep = build_deployment(72, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        revocation.broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        key_id = rsu.register_session(obu.start(rsu.beacon(), cfg()), cfg())
        obu.key_id = key_id
        assert rsu.negotiate_privacy(key_id) == 1
        match = rsu.receive_proof_sets(key_id, obu.choose_proof_sets())
        assert match == revocation.Match(iv=obu.credential.iv, counter=0)
        assert rsu.sessions == {}

    def test_bundle_commitments_are_the_w_alone(self):
        # the prover's W alone: mu*h values at the modulus width
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id = _run_to_member_verified(73, config)
        plain = obu.sym.open(obu.session_key, rsu.generate_proof_bundle(key_id))
        width = (rsu.credential.modulus.bit_length() + 7) // 8
        assert len(plain) == config.mu * config.h * width
        assert plain == rsu.sessions[key_id].rounds.commitments


_CONFIG = cfg(h=2)
_STATE_MODULUS = generate_blum_modulus(32, 55)


class RsuStepMachine(RuleBasedStateMachine):
    """The eight RSU handlers called in any order across several sessions,
    each with the message an honest member would send it."""

    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.dep = build_deployment(55, n=6, k=2, stub=True, modulus=_STATE_MODULUS)
        self.rsu = self.dep.make_rsu(1)
        self.obus = {}  # key_id -> its member
        # key_id -> what the member sends next, by the RSU step it feeds
        self.sent = {}

    def _call(self, key_id, handler, *args):
        """``handler`` advances ``key_id`` by exactly one step, decides it
        (the session leaves the table) or raises StepOutOfOrder/UnknownSession;
        no other session moves. Its result, or None when it raised."""
        order = list(Step)
        before = {k: dataclasses.replace(s) for k, s in self.rsu.sessions.items()}
        try:
            result = handler(key_id, *args)
        except (StepOutOfOrder, UnknownSession):
            assert self.rsu.sessions == before
            return None
        after = self.rsu.sessions.get(key_id)
        if after is None:
            # an honest member is decided by its closing reply; the member's
            # answers before any challenge (b"") fail the membership proof
            assert (before[key_id].step, result) in (
                (Step.ANSWERED, _CONFIG.alpha), (Step.CHALLENGED, False)
            )
        else:
            assert order.index(after.step) == order.index(before[key_id].step) + 1
        assert {k: s for k, s in self.rsu.sessions.items() if k != key_id} == {
            k: s for k, s in before.items() if k != key_id
        }
        return result

    @precondition(lambda self: len(self.obus) < 3)
    @rule(target=sessions)
    def register(self):
        obu = self.dep.make_obu(len(self.obus) + 2)
        key_id = self.rsu.register_session(obu.start(self.rsu.beacon(), _CONFIG), _CONFIG)
        obu.key_id = key_id
        assert self.rsu.sessions[key_id].step is Step.REGISTERED
        self.obus[key_id] = obu
        # an answer or a bundle challenge exists once the RSU has challenged
        # or committed; until then the member sends bytes no step accepts
        self.sent[key_id] = {
            "sets": obu.choose_proof_sets(),
            "commitments": obu.prove_membership(),
            "answers": b"",
            "challenges": b"",
        }
        return key_id

    @rule(key_id=sessions)
    def negotiate(self, key_id):
        self._call(key_id, self.rsu.negotiate_privacy)

    @rule(key_id=sessions)
    def announce(self, key_id):
        self._call(key_id, self.rsu.receive_proof_sets, self.sent[key_id]["sets"])

    @rule(key_id=sessions)
    def challenge(self, key_id):
        sealed = self.sent[key_id]["commitments"]
        challenges = self._call(key_id, self.rsu.challenge_membership, sealed)
        if challenges is not None:
            self.sent[key_id]["answers"] = self.obus[key_id].answer_membership(challenges)

    @rule(key_id=sessions)
    def prove(self, key_id):
        self._call(key_id, self.rsu.check_membership_proof, self.sent[key_id]["answers"])

    @rule(key_id=sessions)
    def generate(self, key_id):
        commitments = self._call(key_id, self.rsu.generate_proof_bundle)
        if commitments is not None:
            self.sent[key_id]["challenges"] = self.obus[key_id].challenge_bundle(commitments)

    @rule(key_id=sessions)
    def answer(self, key_id):
        self._call(key_id, self.rsu.answer_bundle, self.sent[key_id]["challenges"])

    @rule(key_id=sessions)
    def close(self, key_id):
        # sealed by hand: the member replies only once it has decided, which
        # the RSU's steps do not wait for
        obu = self.obus[key_id]
        reply = obu.sym.seal(obu.session_key, bytes([_CONFIG.alpha]), obu.rng)
        self._call(key_id, self.rsu.record_closing_reply, reply)

    @rule(key_id=sessions)
    def advance(self, key_id):
        """The handler the session's step expects, so that the later steps
        are reached and probed out of order too."""
        handlers = (self.negotiate, self.announce, self.challenge, self.prove,
                    self.generate, self.answer, self.close)
        sess = self.rsu.sessions.get(key_id)  # None once decided: any handler then
        handlers[list(Step).index(sess.step) if sess else 0](key_id)

    @rule(key_id=st.binary(min_size=8, max_size=8))
    def unknown(self, key_id):
        if key_id not in self.rsu.sessions:
            with pytest.raises(UnknownSession):
                self.rsu.negotiate_privacy(key_id)


RsuStepMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestRsuStepMachine = RsuStepMachine.TestCase


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
            rsu.negotiate_privacy(key_ids[0])
        assert rsu.negotiate_privacy(key_ids[1]) == config.alpha
        assert rsu.negotiate_privacy(key_ids[-1]) == config.alpha


class TestVariantDowngrade:
    """The verifier takes the variant from its own config; nothing the
    prover sends names one."""

    def test_hardened_rsu_rejects_basic_membership_proof(self):
        dep = build_deployment(40, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(
            rsu, obu, cfg(h=2), rsu_config=cfg(h=2, variant=Variant.HARDENED)
        )
        assert not _membership(rsu, obu, key_id)

    def test_hardened_obu_does_not_count_basic_bundle(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id = _run_to_member_verified(41, config)
        commitments = rsu.generate_proof_bundle(key_id)
        # the member's own config picks the proof systems when it challenges
        obu.config = cfg(alpha=1, mu=3, h=2, variant=Variant.HARDENED)
        answers = rsu.answer_bundle(key_id, obu.challenge_bundle(commitments))
        result = obu.verify_bundle(answers)
        assert result.verified_count == 0
        assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS

    def test_replayed_basic_transcript_rejected_in_hardened_session(self):
        dep = build_deployment(42, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        basic = cfg(h=2)
        recorded_key = _open_screened_session(rsu, obu, basic)
        commitments = obu.prove_membership()
        challenges = rsu.challenge_membership(recorded_key, commitments)
        answers = obu.answer_membership(challenges)
        assert rsu.check_membership_proof(recorded_key, answers)
        recorded = [obu.sym.open(obu.session_key, sealed) for sealed in (commitments, answers)]
        # a fresh hardened session; the replayer knows its session key
        key_id = _open_screened_session(rsu, obu, cfg(h=2, variant=Variant.HARDENED))
        commitments, answers = (obu.sym.seal(obu.session_key, p, obu.rng) for p in recorded)
        rsu.challenge_membership(key_id, commitments)
        assert not rsu.check_membership_proof(key_id, answers)


def _reseal(obu, sealed, edit):
    """``sealed``'s plaintext under the member's session key, passed through ``edit``."""
    return obu.sym.seal(obu.session_key, edit(obu.sym.open(obu.session_key, sealed)), obu.rng)


class TestMalformedProofs:
    def test_membership_proof_that_does_not_decode_fails(self):
        dep = build_deployment(43, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        commitments = obu.prove_membership()
        for bad in (lambda p: p[:-1], lambda p: p + b"\0", lambda p: p[:8]):
            with pytest.raises(zkp.MalformedProof):
                rsu.challenge_membership(key_id, _reseal(obu, commitments, bad))
            assert rsu.sessions[key_id].step is Step.SCREENED
        answers = obu.answer_membership(rsu.challenge_membership(key_id, commitments))
        assert not rsu.check_membership_proof(key_id, _reseal(obu, answers, lambda p: p[:-1]))
        assert key_id not in rsu.sessions  # answers that do not decode decide it
        with pytest.raises(UnknownSession):
            rsu.challenge_membership(key_id, commitments)
        # a retry is a new session
        assert _membership(rsu, obu, _open_screened_session(rsu, obu, config))

    def test_bundle_item_that_does_not_decode_is_not_counted(self):
        config = cfg(alpha=1, mu=3, h=2)
        dep, rsu, obu, key_id, sets, answers = _run_to_bundle(44, config)
        for bad in (lambda p: b"", lambda p: p[:-2], lambda p: p + b"\0"):
            trial = copy.copy(obu)
            result = trial.verify_bundle(_reseal(obu, answers, bad))
            assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
            assert result.verified_count == 0
        dep, rsu, obu, key_id = _run_to_member_verified(44, config)
        commitments = rsu.generate_proof_bundle(key_id)
        with pytest.raises(zkp.MalformedProof):
            obu.challenge_bundle(_reseal(obu, commitments, lambda p: p[:-1]))
        answers = rsu.answer_bundle(key_id, obu.challenge_bundle(commitments))
        assert obu.verify_bundle(answers).outcome is Outcome.ACCEPTED

    def test_membership_proof_with_secret_ids_is_refused(self):
        # a membership commitment has one encoding: no secret ids before its W
        dep = build_deployment(45, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        commitments = obu.prove_membership()
        for ids in ((1,), (1, 2), (6, 5, 4)):
            tagged = _reseal(obu, commitments,
                             lambda p: p[:8] + struct.pack(f">{len(ids)}I", *ids) + p[8:])
            with pytest.raises(zkp.MalformedProof):
                rsu.challenge_membership(key_id, tagged)
        challenges = rsu.challenge_membership(key_id, commitments)
        assert rsu.check_membership_proof(key_id, obu.answer_membership(challenges))

    def test_round_with_wrong_challenge_length_fails(self):
        # a challenge with a bit at index k reaches neither prover's arithmetic
        config = cfg(alpha=1, mu=2, h=2)
        dep, rsu, obu, key_id = _run_to_member_verified(45, config)
        k = config.k
        wide = zkp.encode_proof([1 << k] * (config.mu * config.h), 1 << (k + 1))
        obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
        with pytest.raises(zkp.MalformedProof):
            rsu.answer_bundle(key_id, obu.sym.seal(obu.session_key, wide, obu.rng))
        assert rsu.sessions[key_id].step is Step.BUNDLED
        obu2 = dep.make_obu(3)
        key_id = _open_screened_session(rsu, obu2, config)
        rsu.challenge_membership(key_id, obu2.prove_membership())
        with pytest.raises(zkp.MalformedProof):
            obu2.answer_membership(obu2.sym.seal(obu2.session_key, wide[:2], rsu.rng))

    def test_widest_header_k_is_refused_before_decoding(self):
        # one value at k = 65535, the widest k a proof header could once
        # declare, is 8 KB: its length alone refuses it
        wide = zkp.encode_proof([(1 << 0xFFFF) - 1], 1 << 0xFFFF)
        config = cfg(alpha=1, mu=3, h=2)
        dep = build_deployment(44, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, config)
        plain = struct.pack(">d", obu.clock) + wide
        with pytest.raises(zkp.MalformedProof):
            rsu.challenge_membership(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))

        dep, rsu, obu, key_id = _run_to_member_verified(43, config)
        sealed = obu.sym.seal(obu.session_key, wide * 6, rsu.rng)
        tracemalloc.start()
        try:
            with pytest.raises(zkp.MalformedProof):
                obu.challenge_bundle(sealed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
class TestZeroProofs:
    """What a prover with no secrets can send: W = Y = 0 in every round."""

    def test_sealed_zero_membership_proof_is_refused(self, variant):
        dep = build_deployment(48, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        key_id = _open_screened_session(rsu, obu, cfg(h=2, variant=variant))
        zeros = zkp.encode_proof([0, 0], rsu.credential.modulus)
        plain = struct.pack(">d", obu.clock) + zeros
        rsu.challenge_membership(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))
        sealed = obu.sym.seal(obu.session_key, zeros, obu.rng)
        assert rsu.check_membership_proof(key_id, sealed) is False

    def test_zero_bundle_items_count_zero(self, variant):
        config = cfg(alpha=1, mu=3, h=2, variant=variant)
        dep, rsu, obu, key_id = _run_to_member_verified(49, config)
        zeros = zkp.encode_proof([0] * 6, rsu.credential.modulus)
        obu.challenge_bundle(obu.sym.seal(obu.session_key, zeros, rsu.rng))
        result = obu.verify_bundle(obu.sym.seal(obu.session_key, zeros, rsu.rng))
        assert result.verified_count == 0


class TestShortPlaintexts:
    """Anyone holding the session key can seal any bytes to the RSU."""

    def test_membership_plaintext_shorter_than_t2_fails(self):
        dep = build_deployment(46, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        honest = obu.prove_membership()
        for short in (b"abc", b""):
            sealed = obu.sym.seal(obu.session_key, short, obu.rng)
            with pytest.raises(zkp.MalformedProof):
                rsu.challenge_membership(key_id, sealed)
            assert rsu.sessions[key_id].step is Step.SCREENED
        rsu.clock += 30.0
        with pytest.raises(StaleTimestamp):
            rsu.challenge_membership(key_id, honest)
        assert rsu.sessions[key_id].step is Step.SCREENED
        # the member commits once per session: its retry, clock caught up, is a new one
        obu.clock += 30.0
        assert _membership(rsu, obu, _open_screened_session(rsu, obu, config))

    def test_closing_reply_must_be_one_byte(self):
        dep, rsu, obu, key_id, sets, bundle = _run_to_bundle(47, cfg(alpha=2, mu=2))
        assert obu.verify_bundle(bundle).outcome is Outcome.ACCEPTED
        for bad in (b"", b"abc"):
            with pytest.raises(EnvelopeFailure):
                rsu.record_closing_reply(key_id, obu.sym.seal(obu.session_key, bad, obu.rng))
        assert rsu.sessions[key_id].step is Step.ANSWERED
        assert rsu.record_closing_reply(key_id, obu.closing_reply()) == 2
        assert key_id not in rsu.sessions


def _request_body(group_id=1, t1=0.0, alpha=1, session_key=bytes(16), serv_id=b"INFO"):
    return struct.pack(">IdB16s", group_id, t1, alpha, session_key) + serv_id


def _json_body(**overrides):
    """A request body in the JSON form requests once had."""
    body = {"group_id": 1, "t1": 0.0, "session_key": "00" * 16, "serv_id": "INFO", "alpha": 1}
    body.update(overrides)
    return json.dumps(body).encode()


class TestHostileRequests:
    """Anyone can seal a request body to the RSU's public key."""

    def _register(self, rsu, body):
        sealed = StubSeal().seal(rsu.credential.certificate.public_key, body, rsu.rng)
        return rsu.register_session(sealed, cfg())

    @pytest.mark.parametrize(
        "body",
        [
            b"[]",
            b"",
            _json_body(),
            _json_body(t1="0.0"),
            _request_body(t1=float("nan")),
            _request_body(t1=float("inf")),
            _json_body(session_key="zz" * 16),
            _request_body()[:20],
            _request_body(group_id=99),
            _request_body(alpha=99),
            _request_body(alpha=0),
            _request_body(serv_id=b"\xffINFO"),
        ],
        ids=["list", "empty", "json", "str-t1", "nan-t1", "huge-t1", "non-hex-key", "short-key",
             "unknown-group", "unsupported-alpha", "zero-alpha", "serv-id-not-utf8"],
    )
    def test_malformed_body_is_rejected(self, body):
        rsu = build_deployment(48, n=6, k=2, stub=True).make_rsu(1)
        self._register(rsu, _request_body())  # the body every case alters registers
        with pytest.raises(MalformedRequest):
            self._register(rsu, body)
        assert len(rsu.sessions) == 1

    def test_trailing_byte_is_refused(self):
        # serv_id runs to the end of the request, so a trailing byte names
        # another service, which no policy permits
        rsu = build_deployment(48, n=6, k=2, stub=True).make_rsu(1)
        assert rsu.negotiate_privacy(self._register(rsu, _request_body() + b"\0")) is None
        assert rsu.negotiate_privacy(self._register(rsu, _request_body())) == 1

    def test_long_serv_id_is_not_stored(self):
        # the session keeps the policy's floor for serv_id, not serv_id
        rsu = build_deployment(48, n=6, k=2, stub=True).make_rsu(1)
        key_id = self._register(rsu, _request_body(serv_id=b"I" * 1_000_000))
        assert len(pickle.dumps(rsu.sessions)) < 10_000
        assert rsu.negotiate_privacy(key_id) is None
        assert self._register(rsu, _request_body(serv_id=b"INFO")) in rsu.sessions

    def test_n_beyond_the_groups_pool_is_refused(self):
        # the member's config names ids up to n; the RSU serves only its own
        # pool, whatever n the member's own pool allowed it to start with
        dep = build_deployment(47, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(alpha=2, mu=5, n=8)
        for _ in range(4):
            with pytest.raises(MalformedRequest):
                rsu.register_session(obu.start(rsu.beacon(), cfg(alpha=2, mu=5)), config)
            assert not rsu.sessions and obu.credential.counter == 0

    def test_n_beyond_the_members_pool_is_refused_before_sealing(self):
        # the RSU serves n = 8; a member holding 6 witnesses refuses to start
        # rather than announce ids it cannot judge a bundle against
        dep = build_deployment(47, n=8, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        pool = obu.credential.pool_witnesses
        obu.credential = dataclasses.replace(obu.credential, pool_witnesses=pool[:6])
        with pytest.raises(MalformedRequest):
            obu.start(rsu.beacon(), cfg(alpha=2, mu=5, n=8))
        assert obu.step is None and obu.session_key is None
        assert obu.rng.randbits(64) == dep.make_obu(2).rng.randbits(64)  # nothing drawn
        assert run_full_session(obu, rsu, cfg(n=6))[0].outcome is Outcome.ACCEPTED

    def test_nan_t2_is_stale(self):
        dep = build_deployment(49, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)
        key_id = _open_screened_session(rsu, obu, config)
        plain = StubEnvelope().open(obu.session_key, obu.prove_membership())
        forged = struct.pack(">d", float("nan")) + plain[8:]
        with pytest.raises(StaleTimestamp):
            rsu.challenge_membership(key_id, obu.sym.seal(obu.session_key, forged, obu.rng))


class TestBadTags:
    """A message that fails its AEAD tag is a ``ValueError`` at every handler
    that opens one, and leaves the session where it was."""

    def test_every_opening_handler_raises_value_error(self):
        dep = build_deployment(46, n=6, k=2, stub=False)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        config = cfg(h=2)

        def deliver(handler, sealed):
            with pytest.raises(ValueError):
                handler(sealed[:-1] + bytes([sealed[-1] ^ 1]))
            return handler(sealed)

        request = obu.start(rsu.beacon(), config)
        key_id = obu.key_id = deliver(lambda b: rsu.register_session(b, config), request)
        assert rsu.negotiate_privacy(key_id) == config.alpha
        sets = obu.choose_proof_sets()
        assert deliver(lambda b: rsu.receive_proof_sets(key_id, b), sets) is None
        sealed = deliver(lambda b: rsu.challenge_membership(key_id, b), obu.prove_membership())
        sealed = deliver(obu.answer_membership, sealed)
        assert deliver(lambda b: rsu.check_membership_proof(key_id, b), sealed)
        sealed = deliver(obu.challenge_bundle, rsu.generate_proof_bundle(key_id))
        sealed = deliver(lambda b: rsu.answer_bundle(key_id, b), sealed)
        assert deliver(obu.verify_bundle, sealed).outcome is Outcome.ACCEPTED
        reply = obu.closing_reply()
        assert deliver(lambda b: rsu.record_closing_reply(key_id, b), reply) == config.alpha
        assert not rsu.sessions


def _blobs(*exact):
    """Any bytes up to 64 long, and bytes of each length in ``exact``."""
    return st.binary(max_size=64) | st.sampled_from(exact).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    )


@functools.cache
def _fuzz_deployment():
    dep = build_deployment(60, n=6, k=2, stub=True)
    assert (dep.modulus.m.bit_length() + 7) // 8 == 4  # a round is 4 + 1 + 4 bytes
    return dep


def _fuzz_endpoints():
    """A fresh RSU and member of one 32-bit stub deployment; the member
    holds its own copy of the credential, whose counter an acceptance moves."""
    dep = _fuzz_deployment()
    obu = dep.make_obu(2)
    obu.credential = dataclasses.replace(obu.credential)
    return dep.make_rsu(1), obu


# k = 2, mu = 2, h = 2 at 32 bits: 16 bytes of sets; the membership proof's
# commitments are t2 and two W (16 bytes), its challenges 2 bytes and its
# answers 8; the bundle's commitments are four W (16 bytes), its challenges
# 4 bytes and its answers 16
_FUZZ_CONFIG = cfg(alpha=1, mu=2, h=2)


def _values(count, top):
    """``count`` big-endian values below ``top`` at the width ``top`` has."""
    code = {2**8: "B", 2**32: "I"}[top]
    return st.lists(st.integers(0, top - 1), min_size=count, max_size=count).map(
        lambda vs: struct.pack(f">{count}{code}", *vs)
    )


class TestByteFuzz:
    """Any bytes sealed to an endpoint raise only that step's typed errors
    or come back as a refusal; never ``struct.error``, ``IndexError`` or
    ``UnicodeDecodeError``."""

    @settings(max_examples=200, deadline=None)
    @given(
        _blobs(29, 33)
        | st.builds(
            _request_body,
            group_id=st.integers(0, 3),
            t1=st.floats(),
            alpha=st.integers(0, 255),
            session_key=st.binary(min_size=16, max_size=16),
            serv_id=st.binary(max_size=6),
        )
    )
    def test_register_session(self, plain):
        rsu, _ = _fuzz_endpoints()
        sealed = StubSeal().seal(rsu.credential.certificate.public_key, plain, rsu.rng)
        for request in (sealed, plain):
            try:
                key_id = rsu.register_session(request, cfg())
            except (EnvelopeFailure, MalformedRequest, StaleTimestamp):
                continue
            assert rsu.negotiate_privacy(key_id) in (None, 1, 2, 3, 4, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        _blobs(16)
        | st.lists(st.integers(0, 7), min_size=4, max_size=4).map(
            lambda ids: struct.pack(">4I", *ids)
        )
    )
    def test_receive_proof_sets(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = rsu.register_session(obu.start(rsu.beacon(), _FUZZ_CONFIG), _FUZZ_CONFIG)
        assert rsu.negotiate_privacy(key_id) == 1
        try:
            rsu.receive_proof_sets(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))
        except MalformedSetRequest:
            assert rsu.sessions[key_id].step is Step.NEGOTIATED
        else:
            assert rsu.sessions[key_id].step is Step.SCREENED

    @settings(max_examples=200, deadline=None)
    @given(_blobs(16) | _values(2, 2**32).map(lambda ws: struct.pack(">d", 0.0) + ws))
    def test_challenge_membership(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = _open_screened_session(rsu, obu, _FUZZ_CONFIG)
        try:
            sealed = rsu.challenge_membership(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))
        except (zkp.MalformedProof, StaleTimestamp):
            assert rsu.sessions[key_id].step is Step.SCREENED
        else:
            assert rsu.sessions[key_id].step is Step.CHALLENGED
            assert len(obu.sym.open(obu.session_key, sealed)) == 2

    @settings(max_examples=200, deadline=None)
    @given(_blobs(2) | _values(2, 2**8))
    def test_answer_membership(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = _open_screened_session(rsu, obu, _FUZZ_CONFIG)
        rsu.challenge_membership(key_id, obu.prove_membership())
        try:
            sealed = obu.answer_membership(obu.sym.seal(obu.session_key, plain, rsu.rng))
        except zkp.MalformedProof:
            return
        assert len(obu.sym.open(obu.session_key, sealed)) == 8
        with pytest.raises(StepOutOfOrder):  # each commitment answers once
            obu.answer_membership(obu.sym.seal(obu.session_key, plain, rsu.rng))

    @settings(max_examples=200, deadline=None)
    @given(_blobs(8) | _values(2, 2**32))
    def test_check_membership_proof(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = _open_screened_session(rsu, obu, _FUZZ_CONFIG)
        rsu.challenge_membership(key_id, obu.prove_membership())
        verdict = rsu.check_membership_proof(
            key_id, obu.sym.seal(obu.session_key, plain, obu.rng)
        )
        # answers written without the member's round states never pass, and
        # the failure decides the session
        assert verdict is False and key_id not in rsu.sessions

    @settings(max_examples=200, deadline=None)
    @given(_blobs(16) | _values(4, 2**32))
    def test_challenge_bundle(self, plain):
        rsu, obu = _fuzz_endpoints()
        assert _membership(rsu, obu, _open_screened_session(rsu, obu, _FUZZ_CONFIG))
        try:
            sealed = obu.challenge_bundle(obu.sym.seal(obu.session_key, plain, rsu.rng))
        except zkp.MalformedProof:
            assert obu.step is ObuStep.PROVEN
            with pytest.raises(StepOutOfOrder):  # nothing was challenged
                obu.verify_bundle(b"")
            return
        assert len(obu.sym.open(obu.session_key, sealed)) == 4

    @settings(max_examples=200, deadline=None)
    @given(_blobs(4) | _values(4, 2**8))
    def test_answer_bundle(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = _open_screened_session(rsu, obu, _FUZZ_CONFIG)
        assert _membership(rsu, obu, key_id)
        rsu.generate_proof_bundle(key_id)
        try:
            sealed = rsu.answer_bundle(key_id, obu.sym.seal(obu.session_key, plain, obu.rng))
        except zkp.MalformedProof:
            assert rsu.sessions[key_id].step is Step.BUNDLED
            assert rsu.sessions[key_id].rounds is not None
            return
        assert rsu.sessions[key_id].step is Step.ANSWERED
        assert len(obu.sym.open(obu.session_key, sealed)) == 16

    @settings(max_examples=200, deadline=None)
    @given(_blobs(16) | _values(4, 2**32))
    def test_verify_bundle(self, plain):
        rsu, obu = _fuzz_endpoints()
        key_id = _open_screened_session(rsu, obu, _FUZZ_CONFIG)
        assert _membership(rsu, obu, key_id)
        obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
        result = obu.verify_bundle(obu.sym.seal(obu.session_key, plain, rsu.rng))
        # answers written without the RSU's round states never pass
        assert result.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
        assert obu.credential.counter == 0
