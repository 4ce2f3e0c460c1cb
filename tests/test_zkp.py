import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from anonauth import zkp
from anonauth.numtheory import Rng, generate_blum_modulus, mod_inv, sample_unit
from anonauth.zkp import (
    BASIC,
    DEFAULT_COEFF_MODULUS,
    ChallengeLengthMismatch,
    DegenerateEvaluation,
    DegenerateParameters,
    Hardened,
    MalformedProof,
    Prover,
    SessionPolynomial,
    Variant,
    Verifier,
    ZkpProof,
    ZkpRound,
    decode_proof,
    derive_session_polynomial,
    encode_proof,
    hardened_verify,
    run_hardened_proof,
    run_proof,
    verify_interactive,
    verify_round,
)

M = 21


class TestRecords:
    def test_fields_cannot_be_assigned(self):
        rd = ZkpRound(1, 2, 2)
        with pytest.raises(AttributeError):
            rd.y = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            ZkpProof((1,), (rd,)).rounds = ()

    def test_equal_records_compare_and_hash_equal(self):
        by_position = ZkpProof((1, 2), (ZkpRound(1, 2, 2),))
        by_keyword = ZkpProof(secret_ids=(1, 2), rounds=(ZkpRound(w=1, challenge=2, y=2),))
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert by_position != dataclasses.replace(by_keyword, secret_ids=(1, 3))

    def test_replace_builds_a_new_record(self):
        rd = ZkpRound(1, 2, 2)
        assert rd._replace(y=3) == ZkpRound(1, 2, 3)
        assert rd == ZkpRound(1, 2, 2)


class TestCommit:
    def test_commitment_is_signed_square(self):
        rng = Rng(3)
        for _ in range(100):
            r, w = BASIC.commit(rng, M)
            sq = r * r % M
            assert w in (sq, (-sq) % M)
            assert math.gcd(w, M) == 1

    def test_both_signs_occur(self):
        rng = Rng(4)
        signs = set()
        for _ in range(200):
            r, w = BASIC.commit(rng, M)
            signs.add(w == r * r % M)
        assert signs == {True, False}

    def test_hardened_keeps_the_square_of_the_same_draws(self):
        basic_rng, hardened_rng = Rng(5), Rng(5)
        hardened = Hardened(_poly([3, 2]))
        for _ in range(100):
            r, w = BASIC.commit(basic_rng, M)
            assert hardened.commit(hardened_rng, M) == (r * r % M, w)
        assert basic_rng.randbits(64) == hardened_rng.randbits(64)

    def test_worked_values(self):
        # R = 5: positive commitment 25 mod 21 = 4, negative is 17
        assert 5 * 5 % M == 4
        assert (-5 * 5) % M == 17


class TestRespond:
    def test_zero_challenge_returns_r(self):
        assert BASIC.respond(5, [2, 8], 0, M) == 5

    def test_single_secret(self):
        assert BASIC.respond(5, [2], 1, M) == 10

    def test_two_secrets(self):
        assert BASIC.respond(5, [2, 8], 0b11, M) == 80 % M == 17

    def test_length_mismatch(self):
        for challenge in (0b100, -1):  # a bit at index k = 2, or negative
            with pytest.raises(ChallengeLengthMismatch):
                BASIC.respond(5, [2, 8], challenge, M)


class TestVerifyRound:
    def test_accept_challenged(self):
        assert verify_round(4, 1, 10, [4], M)

    def test_accept_unchallenged(self):
        assert verify_round(4, 0, 5, [99], M)

    def test_reject_wrong_response(self):
        assert not verify_round(4, 1, 7, [4], M)

    def test_negative_witness_sign_accepted(self):
        # I = -S^2 must verify too: S=2, I=17, R=5, b=1, Y=10
        assert verify_round(4, 1, 10, [(-4) % M], M)

    def test_length_mismatch(self):
        for challenge in (0b10, -1):  # a bit at index k = 1, or negative
            with pytest.raises(ChallengeLengthMismatch):
                verify_round(4, challenge, 10, [4], M)


class TestRunProof:
    def test_honest_completeness(self):
        rng = Rng(11)
        for trial in range(50):
            k = 1 + trial % 4
            h = 1 + trial % 5
            secrets = [sample_unit(rng, M) for _ in range(k)]
            witnesses = [s * s % M for s in secrets]
            proof, ok = run_proof(secrets, witnesses, h, M, rng.split(), rng.split())
            assert ok and len(proof.rounds) == h
            assert _rejudge(BASIC, *_moves(proof), witnesses, M)

    def test_wrong_secret_soundness(self):
        rng = Rng(12)
        h, trials = 8, 10_000
        accepted = 0
        for _ in range(trials):
            secret = sample_unit(rng, M)
            wrong = sample_unit(rng, M)
            witness = secret * secret % M
            if wrong * wrong % M == witness:
                continue  # same witness class would be a correct secret
            _, ok = run_proof([wrong], [witness], h, M, rng.split(), rng.split())
            accepted += ok
        p = 2.0**-8
        sigma = math.sqrt(p * (1 - p) / trials)
        assert accepted / trials <= p + 3 * sigma

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            run_proof([], [], 1, M, Rng(1), Rng(2))
        with pytest.raises(DegenerateParameters):
            run_proof([2], [4], 0, M, Rng(1), Rng(2))

    def test_party_disagreement_on_k(self):
        with pytest.raises(ChallengeLengthMismatch):
            run_proof([2, 8], [4], 2, M, Rng(1), Rng(2))

    def test_empty_transcript_never_verifies(self):
        with pytest.raises(DegenerateParameters):
            Verifier((BASIC,), ([4],), 0, M, b"")
        # nor do moves of another round count, whose surplus zip would drop
        with pytest.raises(MalformedProof):
            Verifier((BASIC,), ([4],), 1, M, encode_proof([4, 4], M))
        verifier = Verifier((BASIC,), ([4],), 1, M, encode_proof([4], M))
        verifier.challenge(Rng(1))
        for ys in ((), (2, 2)):
            with pytest.raises(MalformedProof):
                verifier.judge(encode_proof(ys, M))


class TestSessionPolynomial:
    def test_both_sides_agree(self):
        a = derive_session_polynomial(b"shared", 3)
        b = derive_session_polynomial(b"shared", 3)
        assert a.coefficients == b.coefficients

    def test_seed_sensitivity(self):
        rng = Rng(7)
        collisions = 0
        for _ in range(1000):
            s = rng.randbytes(16)
            s2 = bytearray(s)
            s2[rng.randrange(0, 16)] ^= 1 + rng.randbits(7)
            a = derive_session_polynomial(s, 2)
            b = derive_session_polynomial(bytes(s2), 2)
            collisions += a.coefficients == b.coefficients
        assert collisions == 0

    def test_range_contract(self, monkeypatch):
        monkeypatch.setattr(zkp, "DEFAULT_COEFF_MODULUS", 7)
        poly = derive_session_polynomial(b"x", 2)
        assert len(poly.coefficients) == 2
        assert all(0 <= c <= 6 for c in poly.coefficients)
        assert any(poly.coefficients)

    def test_k1_rejected(self):
        with pytest.raises(DegenerateParameters):
            derive_session_polynomial(b"x", 1)


def _poly(coeffs):
    return SessionPolynomial(coefficients=tuple(coeffs))


def _moves(proof):
    """A proof's rounds as the exchange's three moves: (W, challenges, Y)."""
    return tuple(zip(*((rd.w, rd.challenge, rd.y) for rd in proof.rounds)))


class _Replay:
    """Recorded moves played to ``verify_interactive``: its prover's W and Y
    and its verifier rng's challenges, so that it judges them as recorded."""

    def __init__(self, ws, challenges, ys):
        self.commit = iter(ws).__next__
        self._challenges, self._ys = iter(challenges), iter(ys)

    def respond(self, _challenge) -> int:
        return next(self._ys)

    def randbits(self, _k) -> int:
        return next(self._challenges)


def _rejudge(system, ws, challenges, ys, witnesses, m) -> bool:
    """``system``'s verdict on recorded rounds, each of which must pass."""
    replay = _Replay(ws, challenges, ys)
    return verify_interactive(system, replay, witnesses, len(ws), m, replay)


def _challenge_move(k: int, count: int, rng: Rng) -> bytes:
    """``count`` challenges drawn as a verifier draws them, encoded as its move."""
    return encode_proof([rng.randbits(k) for _ in range(count)], 1 << k)


class TestHardened:
    def test_worked_example_respond(self):
        # R = 2, so the state is R^2 = 4; inner sums: 3 + 2*2^2 = 11 and
        # 3 + 2*8^2 = 3 + 2 (8^2 = 1 mod 21) = 5
        y = Hardened(_poly([3, 2])).respond(4, [2, 8], 0b10, M)
        assert y == 10

    def test_respond_scales_the_state_by_g(self):
        # g = 11 * 5 = 55 = 13 (mod 21) on the worked example; Y = R^2 * g
        hardened = Hardened(_poly([3, 2]))
        for r in range(1, M):
            if math.gcd(r, M) == 1:
                r2 = r * r % M
                assert hardened.respond(r2, [2, 8], 0b10, M) == r2 * 13 % M

    def test_worked_example_verify(self):
        w = 2 * 2 % M
        witnesses = [2 * 2 % M, 8 * 8 % M]
        assert mod_inv(13, M) == 13
        assert hardened_verify(w, 0b10, 10, witnesses, _poly([3, 2]), M)

    def test_zero_challenge_collapses(self):
        # every exponent is 0, so Y = R^2 * (sum a)^k
        poly = _poly([3, 2])
        y = Hardened(poly).respond(4, [2, 8], 0, M)
        assert y == 4 * pow(5, 2, M) % M

    def test_unit_polynomial(self):
        y = Hardened(_poly([1, 0])).respond(4, [2, 8], 0b10, M)
        assert y == 4

    def test_tampered_y_rejected(self):
        # y = 11 would collide with the -W branch on this tiny modulus,
        # so tamper to 12: 12 * 13 = 156 = 9 (mod 21), neither 4 nor 17
        witnesses = [4, 1]
        assert not hardened_verify(4, 0b10, 12, witnesses, _poly([3, 2]), M)

    def test_degenerate_inner_sum(self):
        # a = [3, 9], S = 2, b = 1: 3 + 9*16 = 147 = 0 mod 21
        with pytest.raises(DegenerateEvaluation):
            Hardened(_poly([3, 9])).respond(4, [2, 2], 0b11, M)

    def test_honest_hardened_completeness(self):
        # m = 21 leaves too few non-degenerate challenges at k = 2, so the
        # completeness runs use a slightly larger small modulus
        m = generate_blum_modulus(12, 5).m
        rng = Rng(21)
        completed, failed = 0, 0
        for _ in range(60):
            secrets = [sample_unit(rng, m) for _ in range(2)]
            witnesses = [s * s % m for s in secrets]
            poly = derive_session_polynomial(rng.randbytes(8), 2)
            proof, ok = run_hardened_proof(
                secrets, witnesses, poly, 3, m, rng.split(), rng.split()
            )
            assert len(proof.rounds) == 3
            # a degenerate round answers 0 and fails the proof; the session
            # runs again with a fresh seed
            assert ok == all(rd.y for rd in proof.rounds)
            completed += ok
            failed += not ok
        assert completed > failed

    def test_replay_under_fresh_polynomial_is_chance_level(self):
        m = generate_blum_modulus(12, 5).m
        rng = Rng(22)
        trials, accepted = 1000, 0
        for _ in range(trials):
            secrets = [sample_unit(rng, m) for _ in range(2)]
            witnesses = [s * s % m for s in secrets]
            poly1 = derive_session_polynomial(rng.randbytes(8), 2)
            proof, ok = run_hardened_proof(
                secrets, witnesses, poly1, 1, m, rng.split(), rng.split()
            )
            if not ok:
                continue  # a degenerate round
            poly2 = derive_session_polynomial(rng.randbytes(8), 2)
            rd = proof.rounds[0]
            accepted += hardened_verify(rd.w, rd.challenge, rd.y, witnesses, poly2, m)
        # a systematic replay would score ~1; chance here is a few per mille
        assert accepted / trials < 0.05

    def test_requires_k_at_least_2(self):
        with pytest.raises(DegenerateParameters):
            run_hardened_proof([2], [4], _poly([3]), 1, M, Rng(1), Rng(2))

    def test_non_unit_witness_product_fails_without_raising(self):
        # each factor is 3 + 9*4 = 39 = 18 (mod 21) and P = 18^2 = 9 shares
        # the factor 3 with m; Y = W * P would match the cross-multiplied
        # equation, so only the unit check rejects it
        assert not hardened_verify(1, 0b11, 9, [4, 4], _poly([3, 9]), M)
        assert not Hardened(_poly([3, 9])).check(1, 0b11, 9, [4, 4], M)


def _witness_product(poly, witnesses, challenge, m):
    prod = 1
    for i_x in witnesses:
        prod = prod * _inner_sum(poly, i_x, challenge, 1, m) % m
    return prod


def _inverse_form_verify(w, challenge, y, witnesses, poly, m):
    """Reference: W != 0 and Y * P^-1 = +-W, with a non-unit P meaning reject."""
    try:
        lhs = y * pow(_witness_product(poly, witnesses, challenge, m), -1, m) % m
    except ValueError:
        return False
    return w % m != 0 and lhs in (w % m, -w % m)


_BLUM_12 = generate_blum_modulus(12, 5)


class TestHardenedVerifyReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_inverse_form(self, data):
        m, p, q = data.draw(st.sampled_from([(21, 3, 7), (_BLUM_12.m, _BLUM_12.p, _BLUM_12.q)]))
        k = data.draw(st.integers(2, 4))
        # multiples of a factor make non-unit products likely on either modulus
        residues = st.one_of(
            st.integers(0, m - 1),
            st.builds(lambda f, j: f * j % m, st.sampled_from([p, q]), st.integers(0, m)),
        )
        coefficient = st.one_of(st.integers(0, 30), st.integers(0, DEFAULT_COEFF_MODULUS - 1))
        poly = _poly(data.draw(st.lists(coefficient, min_size=k, max_size=k)))
        witnesses = data.draw(st.lists(residues, min_size=k, max_size=k))
        challenge = data.draw(st.integers(0, 2**k - 1))
        w = data.draw(residues)
        honest = w * _witness_product(poly, witnesses, challenge, m) % m
        y = data.draw(
            st.one_of(
                st.sampled_from([honest, -honest % m, honest + m]),
                st.integers(1, m - 1).map(lambda d: (honest + d) % m),  # tampered
                residues,
            )
        )
        expected = _inverse_form_verify(w, challenge, y, witnesses, poly, m)
        assert hardened_verify(w, challenge, y, witnesses, poly, m) is expected


def _inner_sum(poly, base, challenge, scale, m):
    """The definition the term table must reproduce, b_t = bit t of the challenge."""
    terms = enumerate(poly.coefficients)
    return sum(a * pow(base, scale * t * (challenge >> t & 1), m) for t, a in terms) % m


_M64 = generate_blum_modulus(64, 21).m
# the inner sum needs no factors, so an odd 2048-bit number stands in
_TERM_MODULI = [generate_blum_modulus(16, 9).m, _M64, (1 << 2047) + 9]


class TestTermTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_inner_sum_matches_definition(self, data):
        k = data.draw(st.integers(2, 9))
        coefficient = st.one_of(st.integers(0, 30), st.integers(0, DEFAULT_COEFF_MODULUS - 1))
        poly = _poly(data.draw(st.lists(coefficient, min_size=k, max_size=k)))
        moduli = data.draw(st.permutations(_TERM_MODULI))[:2]
        bits = st.integers(0, 2**k - 1)
        # one polynomial, several bases, two moduli, both scales; a second
        # challenge per base reads the table the first one built
        for m in moduli:
            for base in data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4)):
                for scale in (1, 2):
                    for challenge in (data.draw(bits), data.draw(bits)):
                        got = zkp._poly_product(poly, [base], challenge, scale, m)
                        assert got == _inner_sum(poly, base, challenge, scale, m)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_respond_is_degenerate_iff_a_factor_is_not_a_unit(self, data):
        m, p, q = data.draw(st.sampled_from([(21, 3, 7), (_BLUM_12.m, _BLUM_12.p, _BLUM_12.q)]))
        k = data.draw(st.integers(2, 4))
        residues = st.one_of(
            st.integers(0, m - 1),
            st.builds(lambda f, j: f * j % m, st.sampled_from([p, q]), st.integers(0, m)),
        )
        poly = _poly(data.draw(st.lists(st.integers(0, 30), min_size=k, max_size=k)))
        secrets = data.draw(st.lists(residues, min_size=k, max_size=k))
        challenge = data.draw(st.integers(0, 2**k - 1))
        r2 = data.draw(st.integers(1, m - 1)) ** 2 % m
        factors = [_inner_sum(poly, s, challenge, 2, m) for s in secrets]
        if any(math.gcd(f, m) != 1 for f in factors):
            with pytest.raises(DegenerateEvaluation):
                Hardened(poly).respond(r2, secrets, challenge, m)
        else:
            expected = r2 * math.prod(factors) % m
            assert Hardened(poly).respond(r2, secrets, challenge, m) == expected

    def test_prove_checks_for_a_unit_once_per_round(self, monkeypatch):
        calls = []

        def counting_gcd(a, b):
            calls.append(a)
            return math.gcd(a, b)

        monkeypatch.setattr(zkp, "gcd", counting_gcd)
        rng = Rng(5)
        secrets = [sample_unit(rng, _M64) for _ in range(5)]
        poly = derive_session_polynomial(b"count", 5)
        prover = Prover((Hardened(poly),), (secrets,), 4, _M64, rng.split())
        answers = prover.answer(_challenge_move(5, 4, rng.split()))
        assert len(decode_proof(answers, 4, _M64)) == 4 and len(calls) == 4
        # one table per secret, held by the proof's polynomial only
        assert sorted(poly.term_tables) == sorted((s, 2, _M64) for s in secrets)
        assert poly == derive_session_polynomial(b"count", 5)


class TestPowerCache:
    """``_powers`` keeps x^0..x^(k-1) mod m of public witnesses across proofs."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_powers_match_pow(self, data):
        m = data.draw(st.sampled_from(_TERM_MODULI))
        x = data.draw(st.integers(0, m - 1))
        k = data.draw(st.integers(1, 9))
        assert zkp._powers(x, k, m) == tuple(pow(x, t, m) for t in range(k))
        assert zkp._powers.cache_info().maxsize == zkp.POWER_CACHE_SIZE

    def test_each_modulus_and_length_has_its_own_powers(self):
        m_small, m_large = _TERM_MODULI[1], _TERM_MODULI[2]
        x = m_small - 2
        small, large = zkp._powers(x, 5, m_small), zkp._powers(x, 5, m_large)
        assert small == tuple(pow(x, t, m_small) for t in range(5))
        assert large == tuple(pow(x, t, m_large) for t in range(5))
        assert small != large
        assert zkp._powers(x, 3, m_large) == large[:3]
        assert zkp._powers(x, 7, m_large) == tuple(pow(x, t, m_large) for t in range(7))

    def test_cache_sees_only_public_witnesses(self, monkeypatch):
        keys = []
        cached = zkp._powers

        def recording_powers(x, k, m):
            keys.append(x)
            return cached(x, k, m)

        monkeypatch.setattr(zkp, "_powers", recording_powers)
        rng = Rng(17)
        secrets = [sample_unit(rng, _M64) for _ in range(4)]
        witnesses = [s * s % _M64 for s in secrets]
        prover_system = Hardened(derive_session_polynomial(b"witnesses", 4))
        prover = Prover((prover_system,), (secrets,), 3, _M64, rng.split())
        verifier_system = Hardened(derive_session_polynomial(b"witnesses", 4))
        verifier = Verifier((verifier_system,), (witnesses,), 3, _M64, prover.commitments)
        (ok,) = verifier.judge(prover.answer(verifier.challenge(rng.split())))
        assert ok
        assert keys and set(keys) <= set(witnesses)
        assert not set(keys) & set(secrets)


def _parent_commit(rng, m):
    """The commitment as it was: R, then W = (sign * R * R) % m."""
    r = sample_unit(rng, m)
    sign = 1 if rng.randbits(1) else -1
    return r, (sign * r * r) % m


def _parent_respond(system, r, secrets, challenge, m):
    """The response as it was, from R: R * prod(S_i), or R^2 * g squaring R again."""
    if system is BASIC:
        return math.prod(s for i, s in enumerate(secrets) if challenge >> i & 1) * r % m
    g = math.prod(_inner_sum(system.poly, s, challenge, 2, m) for s in secrets) % m
    if math.gcd(g, m) != 1:
        raise DegenerateEvaluation("re-run the round")
    return (r * r % m) * g % m


def _reference_exchange(system, secrets, h, m, prover_rng, verifier_rng):
    """The exchange from the rounds as they were: h commitments from the
    prover's rng, h ``randbits(k)`` from the verifier's, and an answer from R
    per round, 0 for a degenerate one; returns (rounds, degenerate count)."""
    committed = [_parent_commit(prover_rng, m) for _ in range(h)]
    challenges = [verifier_rng.randbits(len(secrets)) for _ in range(h)]
    rounds, degenerate = [], 0
    for (r, w), challenge in zip(committed, challenges):
        try:
            y = _parent_respond(system, r, secrets, challenge, m)
        except DegenerateEvaluation:
            y, degenerate = 0, degenerate + 1
        rounds.append(ZkpRound(w, challenge, y))
    return tuple(rounds), degenerate


# the 16-bit modulus of the pinned sessions, where hardened rounds degenerate
_M16 = generate_blum_modulus(16, 916).m
_M512 = generate_blum_modulus(512, 22).m


class TestProverIdentity:
    """The two halves of an exchange give the rounds and the draws of the
    rounds as they were: commit, ``randbits(k)``, respond from R, with no
    round re-run. Two proofs of one system and secrets draw as one proof of
    twice the rounds."""

    @pytest.mark.parametrize("variant", [Variant.BASIC, Variant.HARDENED])
    @pytest.mark.parametrize("m", [M, _M16, _M64, _M512], ids=["m21", "16", "64", "512"])
    def test_prove_matches_the_reference_round(self, m, variant):
        h, degenerate = 4, 0
        for seed in range(40):
            rng = Rng(seed)
            k = 2 + seed % 3
            secrets = [sample_unit(rng, m) for _ in range(k)]
            if variant is Variant.BASIC:
                system = BASIC
            else:
                system = Hardened(derive_session_polynomial(rng.randbytes(8), k))
            prover_rng, verifier_rng = Rng(100 + seed), Rng(200 + seed)
            ref_prover_rng, ref_verifier_rng = Rng(100 + seed), Rng(200 + seed)
            proofs = 1 + seed % 2
            want, bad = _reference_exchange(
                system, secrets, proofs * h, m, ref_prover_rng, ref_verifier_rng
            )
            witnesses = [s * s % m for s in secrets]
            prover = Prover((system,) * proofs, (secrets,) * proofs, h, m, prover_rng)
            verifier = Verifier(
                (system,) * proofs, (witnesses,) * proofs, h, m, prover.commitments
            )
            verifier.judge(prover.answer(verifier.challenge(verifier_rng)))
            assert tuple(rd for rounds in verifier.rounds() for rd in rounds) == want
            degenerate += bad
            assert prover_rng.randbits(64) == ref_prover_rng.randbits(64)
            assert verifier_rng.randbits(64) == ref_verifier_rng.randbits(64)
        if variant is Variant.BASIC or m > _M16:
            assert degenerate == 0
        else:
            assert degenerate > 0  # the degenerate path ran


class TestTranscriptIndistinguishability:
    def test_honest_vs_simulated_chi_square(self):
        """Accepted basic transcripts carry no secret information: a
        simulator sampling Y first and solving for W produces the same
        (W, challenge, Y) distribution. This is what enables the replay
        attack against the basic variant."""
        rng = Rng(33)
        secret = 2
        witness = secret * secret % M
        n_samples = 20_000
        honest: dict = {}
        for _ in range(n_samples):
            r, w = BASIC.commit(rng, M)
            ch = rng.randbits(1)
            y = BASIC.respond(r, [secret], ch, M)
            assert verify_round(w, ch, y, [witness], M)
            key = (w, ch, y)
            honest[key] = honest.get(key, 0) + 1
        simulated: dict = {}
        for _ in range(n_samples):
            ch = rng.randbits(1)
            y = sample_unit(rng, M)
            w = y * y % M
            if ch:
                w = w * mod_inv(witness, M) % M
            if not rng.randbits(1):
                w = (-w) % M
            key = (w, ch, y)
            simulated[key] = simulated.get(key, 0) + 1
        keys = sorted(set(honest) | set(simulated))
        table = [
            [honest.get(k, 0) for k in keys],
            [simulated.get(k, 0) for k in keys],
        ]
        _stat, p_value, _df, _exp = chi2_contingency(table)
        assert p_value > 0.01


class TestSerialization:
    @given(
        st.integers(0, M - 1),
        st.integers(1, 16).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 2**k - 1))),
        st.integers(0, M - 1),
    )
    def test_round_codec(self, w, k_ch, y):
        k, ch = k_ch
        assert decode_proof(encode_proof([w, y], M), 2, M) == (w, y)
        assert decode_proof(encode_proof([ch], 1 << k), 1, 1 << k) == (ch,)

    def test_proof_codec(self):
        rng = Rng(5)
        secrets = [sample_unit(rng, M) for _ in range(2)]
        witnesses = [s * s % M for s in secrets]
        proof, _ = run_proof(secrets, witnesses, 3, M, rng.split(), rng.split())
        ws, challenges, ys = _moves(proof)
        assert decode_proof(encode_proof(ws, M), 3, M) == ws
        assert decode_proof(encode_proof(challenges, 4), 3, 4) == challenges
        assert decode_proof(encode_proof(ys, M), 3, M) == ys

    def test_hardened_proof_codec(self):
        m = generate_blum_modulus(12, 5).m
        rng = Rng(6)
        secrets = [sample_unit(rng, m) for _ in range(2)]
        witnesses = [s * s % m for s in secrets]
        poly = derive_session_polynomial(b"seed77", 2)
        proof, _ = run_hardened_proof(secrets, witnesses, poly, 2, m, rng.split(), rng.split())
        for values, bound in zip(_moves(proof), (m, 4, m)):
            assert decode_proof(encode_proof(values, bound), 2, bound) == values

    def test_big_integers_survive(self):
        m = (1 << 512) - 19
        assert decode_proof(encode_proof([m - 1, m - 5], m), 2, m) == (m - 1, m - 5)

    # any odd 2048-bit number serves: the codec and the prover need no factors
    @pytest.mark.parametrize(
        "m",
        [generate_blum_modulus(16, 3).m, generate_blum_modulus(32, 3).m, (1 << 2047) + 9],
        ids=["16", "32", "2048"],
    )
    # k = 8 and 9 sit either side of a one-byte challenge field
    @pytest.mark.parametrize("k", [2, 8, 9, 16])
    def test_round_trip_and_exact_length(self, m, k):
        rng = Rng(m % 1000 + k)
        secrets = [sample_unit(rng, m) for _ in range(k)]
        # widths of at most 8 bytes are struct widths, 1, 2, 4 or 8
        width = {16: 2, 32: 4, 2048: 256}[m.bit_length()]
        ch_width = {2: 1, 8: 1, 9: 2, 16: 2}[k]
        witnesses = [s * s % m for s in secrets]
        poly = derive_session_polynomial(b"s", k)
        for proof, _ in (
            run_proof(secrets, witnesses, 4, m, rng.split(), rng.split()),
            run_hardened_proof(secrets, witnesses, poly, 4, m, rng.split(), rng.split()),
        ):
            for values, bound, size in zip(_moves(proof), (m, 1 << k, m),
                                           (width, ch_width, width)):
                blob = encode_proof(values, bound)
                assert decode_proof(blob, 4, bound) == values
                assert len(blob) == 4 * size

    def test_mixed_challenge_lengths_do_not_encode(self):
        _, challenges, _, _ = _basic_proof()
        for bad in (challenges[1] | 0b100, -1):  # a bit at index k = 2, or negative
            with pytest.raises(ValueError):
                encode_proof([challenges[0], bad], 4)


def _basic_proof():
    """(W, challenges, Y, witnesses) of an honest two-round basic proof at k = 2."""
    rng = Rng(8)
    secrets = [sample_unit(rng, M) for _ in range(2)]
    witnesses = [s * s % M for s in secrets]
    proof, ok = run_proof(secrets, witnesses, 2, M, rng.split(), rng.split())
    assert ok
    return *_moves(proof), witnesses


_WS, _CHALLENGES, _YS, _ = _basic_proof()
# a commitment move, and an answer move, of two one-byte values under m = 21
_BLOB, _ANSWERS = encode_proof(_WS, M), encode_proof(_YS, M)
_HARDENED = Hardened(_poly([3, 2]))


class TestStrictDecoding:
    def test_every_truncation_is_malformed(self):
        for cut in range(len(_BLOB)):  # cut = 0 is the empty blob
            with pytest.raises(MalformedProof):
                decode_proof(_BLOB[:cut], 2, M)

    def test_trailing_bytes_are_malformed(self):
        with pytest.raises(MalformedProof):
            decode_proof(_BLOB + b"\0", 2, M)

    @pytest.mark.parametrize("code", [2, 7, 255])
    def test_unknown_variant_byte_is_malformed(self, code):
        # a move has no variant byte: values behind one are refused
        with pytest.raises(MalformedProof):
            decode_proof(bytes([code]) + _BLOB, 2, M)

    @pytest.mark.parametrize("header_k", [1, 3, 0xFFFF])
    def test_header_k_other_than_the_callers_is_malformed(self, header_k):
        # nor a header: values behind (variant, id count, round count, k) are refused
        header = struct.pack(">BHHH", 0, 2, 2, header_k)
        with pytest.raises(MalformedProof):
            decode_proof(header + _BLOB, 2, M)

    # () is the move alone; a membership move carries no secret ids at all
    @pytest.mark.parametrize("ids", [(), (1,), (1, 2), (3, 1), (1, 3, 4)])
    def test_other_secret_ids_are_malformed(self, ids):
        blob = struct.pack(f">{len(ids)}I", *ids) + _BLOB
        if not ids:
            assert decode_proof(blob, 2, M) == _WS
            return
        with pytest.raises(MalformedProof):
            decode_proof(blob, 2, M)

    @pytest.mark.parametrize("field", [0, 1], ids=["w", "y"])
    @pytest.mark.parametrize("value", [M, 255])
    def test_round_value_not_below_m_is_malformed(self, field, value):
        blob = bytearray((_BLOB, _ANSWERS)[field])
        blob[1] = value
        with pytest.raises(MalformedProof):
            decode_proof(bytes(blob), 2, M)
        blob[1] = M - 1  # the same byte below m decodes
        decode_proof(bytes(blob), 2, M)

    def test_challenge_bits_above_k_are_malformed(self):
        blob = bytearray(encode_proof(_CHALLENGES, 4))
        assert decode_proof(bytes(blob), 2, 4) == _CHALLENGES
        blob[1] |= 0b100  # k = 2
        with pytest.raises(MalformedProof):
            decode_proof(bytes(blob), 2, 4)

    def test_k_without_rounds_is_malformed(self):
        empty = encode_proof((), M)
        assert empty == b"" and decode_proof(empty, 0, M) == ()
        with pytest.raises(MalformedProof):
            decode_proof(empty, 2, M)

    @pytest.mark.parametrize("h", [1, 3])
    def test_round_count_other_than_h_is_malformed(self, h):
        with pytest.raises(MalformedProof):
            decode_proof(_BLOB, h, M)


class TestVerify:
    """``Verifier.judge`` judges the rounds a verifier holds."""

    def test_variant_comes_from_the_verifier(self):
        rng = Rng(8)
        secrets = [sample_unit(rng, M) for _ in range(2)]
        witnesses = [s * s % M for s in secrets]
        prover = Prover((BASIC,), (secrets,), 2, M, rng.split())
        for system, want in ((BASIC, True), (_HARDENED, False)):
            verifier = Verifier((system,), (witnesses,), 2, M, prover.commitments)
            (ok,) = verifier.judge(prover.answer(verifier.challenge(rng.split())))
            assert ok is want
        assert _rejudge(BASIC, *_basic_proof(), M)
        assert not _rejudge(_HARDENED, *_basic_proof(), M)

    def test_rounds_are_built_only_when_asked_for(self, monkeypatch):
        built = []
        monkeypatch.setattr(zkp, "ZkpRound", lambda *move: built.append(move) or move)
        rng = Rng(9)
        secrets = [sample_unit(rng, M) for _ in range(2)]
        witnesses = [s * s % M for s in secrets]
        prover = Prover((BASIC,) * 2, (secrets,) * 2, 2, M, rng.split())
        verifier = Verifier((BASIC,) * 2, (witnesses,) * 2, 2, M, prover.commitments)
        assert verifier.judge(prover.answer(verifier.challenge(rng.split()))) == [True, True]
        assert built == []
        rounds = verifier.rounds()
        moves = list(zip(verifier.ws, verifier.challenges, verifier.answers))
        assert rounds == [tuple(moves[:2]), tuple(moves[2:])] and built == moves

    def test_round_count_must_equal_h(self):
        ws, challenges, ys, witnesses = _basic_proof()
        verifier = Verifier((BASIC,), (witnesses,), 2, M, encode_proof(ws, M))
        verifier.challenge(Rng(1))
        for answers in (ys[:1], ys + ys[:1]):
            with pytest.raises(MalformedProof):
                verifier.judge(encode_proof(answers, M))
        with pytest.raises(MalformedProof):
            Verifier((BASIC,), (witnesses,), 2, M, encode_proof(ws + ws[:1], M))

    def test_wrong_challenge_length_is_a_typed_error(self):
        # every verifier draws randbits(k) against k witnesses, so only an rng
        # that draws otherwise hands a check such a challenge
        ws, challenges, ys, witnesses = _basic_proof()
        for challenge in (challenges[0] | 0b100, -1):  # a bit at index k = 2, or negative
            forged = (challenge,) + challenges[1:]
            for system in (BASIC, _HARDENED):
                with pytest.raises(ChallengeLengthMismatch):
                    _rejudge(system, ws, forged, ys, witnesses, M)

    def test_k_is_the_witness_count_every_proof_shares(self):
        ws, _, _, witnesses = _basic_proof()
        verifier = Verifier((BASIC,), (witnesses,), 2, M, encode_proof(ws, M))
        assert verifier.k == 2
        with pytest.raises(ChallengeLengthMismatch):
            Verifier((BASIC,) * 2, (witnesses, witnesses[:1]), 1, M, encode_proof(ws, M))
        with pytest.raises(DegenerateParameters):  # no proof: no k
            Verifier((), (), 1, M, b"")

    def test_prover_never_runs_a_verifier(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the prover ran a verifier")

        monkeypatch.setattr(zkp, "verify_round", refuse)
        monkeypatch.setattr(zkp, "hardened_verify", refuse)
        m = generate_blum_modulus(16, 9).m
        rng = Rng(10)
        secrets = [sample_unit(rng, m) for _ in range(3)]
        for system in (BASIC, Hardened(derive_session_polynomial(b"s", 3))):
            prover = Prover((system,), (secrets,), 4, m, rng.split())
            answers = prover.answer(_challenge_move(3, 4, rng.split()))
            assert len(prover.commitments) == len(answers) == 4 * 2


class _ZeroProver:
    """Knows no secret: commits W = 0 or m and answers Y = 0 to every challenge."""

    def __init__(self, w: int):
        self.w = w

    def commit(self) -> int:
        return self.w

    def respond(self, challenge) -> int:
        return 0




class TestZeroCommitment:
    """0^2 = +-0 * prod(I) and 0 = +-0 * P hold for any witnesses, so a zero
    commitment must fail the round in both variants."""

    def _setup(self):
        rng = Rng(22)
        witnesses = [pow(sample_unit(rng, _M64), 2, _M64) for _ in range(2)]
        systems = (BASIC, Hardened(derive_session_polynomial(b"zero", 2)))
        return rng, witnesses, systems

    @pytest.mark.parametrize("w", [0, _M64], ids=["0", "m"])
    def test_checks_refuse_it_for_every_challenge(self, w):
        _, witnesses, (_, hardened) = self._setup()
        for challenge in range(1 << len(witnesses)):
            assert not verify_round(w, challenge, 0, witnesses, _M64)
            assert not hardened_verify(w, challenge, 0, witnesses, hardened.poly, _M64)

    @pytest.mark.parametrize("w", [0, _M64], ids=["0", "m"])
    def test_interactive_zero_prover_fails(self, w):
        rng, witnesses, systems = self._setup()
        for system in systems:
            assert not verify_interactive(system, _ZeroProver(w), witnesses, 8, _M64, rng)

    @pytest.mark.parametrize("w", [0, _M64], ids=["0", "m"])
    def test_recorded_zero_transcript_fails(self, w):
        rng, witnesses, systems = self._setup()
        zeros = w.to_bytes(8, "big") * 8
        for system in systems:
            if w:  # m is not below the modulus: the commitments do not decode
                with pytest.raises(MalformedProof):
                    Verifier((system,), (witnesses,), 8, _M64, zeros)
                continue
            verifier = Verifier((system,), (witnesses,), 8, _M64, zeros)
            verifier.challenge(rng)
            (ok,) = verifier.judge(zeros)
            assert not ok


def _decodes_or_fails_typed(blob: bytes) -> None:
    for count in (1, 2):
        for bound in (M, 4):
            try:
                values = decode_proof(blob, count, bound)
            except MalformedProof:
                continue
            assert len(values) == count and all(0 <= v < bound for v in values)
            if bound == M:  # the values as commitments, and as the answers to them
                for system in (BASIC, _HARDENED):
                    verifier = Verifier((system,), ([4, 1],), count, M, blob)
                    verifier.challenge(Rng(count))
                    (verdict,) = verifier.judge(blob)
                    assert verdict in (True, False)


# any bytes, and bytes of each length a decoder above accepts: 1 or 2 values
# of one byte
_HOSTILE_BLOBS = st.binary(max_size=64) | st.sampled_from([1, 2]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


class TestHostileBytes:
    @settings(max_examples=300, deadline=None)
    @given(_HOSTILE_BLOBS)
    def test_arbitrary_bytes(self, blob):
        _decodes_or_fails_typed(blob)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4),
        st.integers(0, 2),
    )
    def test_mutated_valid_proof(self, edits, drop):
        blob = bytearray(_BLOB)
        for pos, value in edits:
            blob[pos] = value
        _decodes_or_fails_typed(bytes(blob[: len(blob) - drop]))
