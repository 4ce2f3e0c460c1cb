import dataclasses
import math

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
    SessionPolynomial,
    Variant,
    ZkpProof,
    ZkpRound,
    challenge_bits,
    decode_proof,
    derive_session_polynomial,
    draw_challenge,
    encode_proof,
    hardened_respond,
    hardened_verify,
    prove,
    prover_commit,
    prover_respond,
    run_hardened_proof,
    run_proof,
    verify,
    verify_interactive,
    verify_round,
)

M = 21


class TestCommit:
    def test_commitment_is_signed_square(self):
        rng = Rng(3)
        for _ in range(100):
            r, w = prover_commit(rng, M)
            sq = r * r % M
            assert w in (sq, (-sq) % M)
            assert math.gcd(w, M) == 1

    def test_both_signs_occur(self):
        rng = Rng(4)
        signs = set()
        for _ in range(200):
            r, w = prover_commit(rng, M)
            signs.add(w == r * r % M)
        assert signs == {True, False}

    def test_worked_values(self):
        # R = 5: positive commitment 25 mod 21 = 4, negative is 17
        assert 5 * 5 % M == 4
        assert (-5 * 5) % M == 17


class TestRespond:
    def test_zero_challenge_returns_r(self):
        assert prover_respond(5, [2, 8], [0, 0], M) == 5

    def test_single_secret(self):
        assert prover_respond(5, [2], [1], M) == 10

    def test_two_secrets(self):
        assert prover_respond(5, [2, 8], [1, 1], M) == 80 % M == 17

    def test_length_mismatch(self):
        with pytest.raises(ChallengeLengthMismatch):
            prover_respond(5, [2, 8], [1], M)


class TestVerifyRound:
    def test_accept_challenged(self):
        assert verify_round(4, [1], 10, [4], M)

    def test_accept_unchallenged(self):
        assert verify_round(4, [0], 5, [99], M)

    def test_reject_wrong_response(self):
        assert not verify_round(4, [1], 7, [4], M)

    def test_negative_witness_sign_accepted(self):
        # I = -S^2 must verify too: S=2, I=17, R=5, b=1, Y=10
        assert verify_round(4, [1], 10, [(-4) % M], M)

    def test_length_mismatch(self):
        with pytest.raises(ChallengeLengthMismatch):
            verify_round(4, [1, 0], 10, [4], M)


class TestChallenge:
    @given(st.integers(0, 2**32), st.integers(1, 16))
    def test_length_and_bits(self, seed, k):
        ch = draw_challenge(Rng(seed), k)
        assert len(ch) == k and set(ch) <= {0, 1}

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=40))
    def test_pack_round_trip(self, bits):
        assert challenge_bits(bits) == sum(b << i for i, b in enumerate(bits))
        proof = ZkpProof(secret_ids=(), rounds=(ZkpRound(w=1, challenge=tuple(bits), y=1),))
        assert decode_proof(encode_proof(proof, M), M) == proof


class TestRunProof:
    def test_honest_completeness(self):
        rng = Rng(11)
        for trial in range(50):
            k = 1 + trial % 4
            h = 1 + trial % 5
            secrets = [sample_unit(rng, M) for _ in range(k)]
            witnesses = [s * s % M for s in secrets]
            proof, ok = run_proof(secrets, witnesses, k, h, M, rng.split(), rng.split())
            assert ok and len(proof.rounds) == h
            assert verify(BASIC, proof, witnesses, M, h)

    def test_wrong_secret_soundness(self):
        rng = Rng(12)
        k, h, trials = 1, 8, 10_000
        accepted = 0
        for _ in range(trials):
            secret = sample_unit(rng, M)
            wrong = sample_unit(rng, M)
            witness = secret * secret % M
            if wrong * wrong % M == witness:
                continue  # same witness class would be a correct secret
            _, ok = run_proof([wrong], [witness], k, h, M, rng.split(), rng.split())
            accepted += ok
        p = 2.0**-8
        sigma = math.sqrt(p * (1 - p) / trials)
        assert accepted / trials <= p + 3 * sigma

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            run_proof([], [], 0, 1, M, Rng(1), Rng(2))
        with pytest.raises(DegenerateParameters):
            run_proof([2], [4], 1, 0, M, Rng(1), Rng(2))

    def test_party_disagreement_on_k(self):
        with pytest.raises(ChallengeLengthMismatch):
            run_proof([2, 8], [4], 1, 2, M, Rng(1), Rng(2))

    def test_empty_transcript_never_verifies(self):
        for h in (0, 1):
            assert not verify(BASIC, ZkpProof(secret_ids=(), rounds=()), [4], M, h)


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

    def test_range_contract(self):
        poly = derive_session_polynomial(b"x", 2, coeff_modulus=7)
        assert len(poly.coefficients) == 2
        assert all(0 <= c <= 6 for c in poly.coefficients)
        assert any(poly.coefficients)

    def test_k1_rejected(self):
        with pytest.raises(DegenerateParameters):
            derive_session_polynomial(b"x", 1)


def _poly(coeffs):
    return SessionPolynomial(
        coefficients=tuple(coeffs), modulus=DEFAULT_COEFF_MODULUS, seed=b"fixed"
    )


class TestHardened:
    def test_worked_example_respond(self):
        # inner sums: 3 + 2*2^2 = 11 and 3 + 2*8^2 = 3 + 2 (8^2 = 1 mod 21) = 5
        y = hardened_respond(2, [2, 8], [0, 1], _poly([3, 2]), M)
        assert y == 10

    def test_worked_example_verify(self):
        w = 2 * 2 % M
        witnesses = [2 * 2 % M, 8 * 8 % M]
        assert mod_inv(13, M) == 13
        assert hardened_verify(w, [0, 1], 10, witnesses, _poly([3, 2]), M)

    def test_zero_challenge_collapses(self):
        # every exponent is 0, so Y = R^2 * (sum a)^k
        poly = _poly([3, 2])
        y = hardened_respond(2, [2, 8], [0, 0], poly, M)
        assert y == 4 * pow(5, 2, M) % M

    def test_unit_polynomial(self):
        y = hardened_respond(2, [2, 8], [0, 1], _poly([1, 0]), M)
        assert y == 4

    def test_tampered_y_rejected(self):
        # y = 11 would collide with the -W branch on this tiny modulus,
        # so tamper to 12: 12 * 13 = 156 = 9 (mod 21), neither 4 nor 17
        witnesses = [4, 1]
        assert not hardened_verify(4, [0, 1], 12, witnesses, _poly([3, 2]), M)

    def test_degenerate_inner_sum(self):
        # a = [3, 9], S = 2, b = 1: 3 + 9*16 = 147 = 0 mod 21
        with pytest.raises(DegenerateEvaluation):
            hardened_respond(2, [2, 2], [1, 1], _poly([3, 9]), M)

    def test_honest_hardened_completeness(self):
        # m = 21 leaves too few non-degenerate challenges at k = 2, so the
        # completeness runs use a slightly larger small modulus
        m = generate_blum_modulus(12, 5).m
        rng = Rng(21)
        completed, exhausted = 0, 0
        for _ in range(60):
            secrets = [sample_unit(rng, m) for _ in range(2)]
            witnesses = [s * s % m for s in secrets]
            poly = derive_session_polynomial(rng.randbytes(8), 2)
            try:
                proof, ok = run_hardened_proof(
                    secrets, witnesses, poly, 3, m, rng.split(), rng.split()
                )
            except DegenerateEvaluation:
                # some (secret, polynomial) pairs are degenerate for every
                # challenge value; the session re-runs with a fresh seed
                exhausted += 1
                continue
            assert ok and proof.variant is Variant.HARDENED and len(proof.rounds) == 3
            completed += 1
        assert completed > exhausted

    def test_replay_under_fresh_polynomial_is_chance_level(self):
        m = generate_blum_modulus(12, 5).m
        rng = Rng(22)
        trials, accepted = 1000, 0
        for _ in range(trials):
            secrets = [sample_unit(rng, m) for _ in range(2)]
            witnesses = [s * s % m for s in secrets]
            poly1 = derive_session_polynomial(rng.randbytes(8), 2)
            try:
                proof, ok = run_hardened_proof(
                    secrets, witnesses, poly1, 1, m, rng.split(), rng.split()
                )
            except DegenerateEvaluation:
                continue
            assert ok
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
        assert not hardened_verify(1, (1, 1), 9, [4, 4], _poly([3, 9]), M)
        assert not Hardened(_poly([3, 9])).check(1, (1, 1), 9, [4, 4], M)


def _witness_product(poly, witnesses, challenge, m):
    prod = 1
    for i_x in witnesses:
        terms = enumerate(zip(poly.coefficients, challenge))
        prod = prod * sum(a * pow(i_x, t * b, m) for t, (a, b) in terms) % m
    return prod


def _inverse_form_verify(w, challenge, y, witnesses, poly, m):
    """Reference: Y * P^-1 = +-W, with a non-unit P meaning reject."""
    try:
        lhs = y * pow(_witness_product(poly, witnesses, challenge, m), -1, m) % m
    except ValueError:
        return False
    return lhs in (w % m, -w % m)


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
        challenge = tuple(data.draw(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k)))
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
    """The definition the term table must reproduce."""
    terms = enumerate(zip(poly.coefficients, challenge))
    return sum(a * pow(base, scale * t * b, m) for t, (a, b) in terms) % m


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
        bits = st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k).map(tuple)
        # one polynomial, several bases, two moduli, both scales; a second
        # challenge per base reads the table the first one built
        for m in moduli:
            for base in data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4)):
                for scale in (1, 2):
                    for challenge in (data.draw(bits), data.draw(bits)):
                        got = zkp._poly_factor(poly, base, challenge, scale, m)
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
        challenge = tuple(data.draw(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k)))
        r = data.draw(st.integers(1, m - 1))
        factors = [_inner_sum(poly, s, challenge, 2, m) for s in secrets]
        if any(math.gcd(f, m) != 1 for f in factors):
            with pytest.raises(DegenerateEvaluation):
                hardened_respond(r, secrets, challenge, poly, m)
        else:
            expected = r * r * math.prod(factors) % m
            assert hardened_respond(r, secrets, challenge, poly, m) == expected

    def test_prove_checks_for_a_unit_once_per_round(self, monkeypatch):
        calls = []

        def counting_gcd(a, b):
            calls.append(a)
            return math.gcd(a, b)

        monkeypatch.setattr(zkp, "gcd", counting_gcd)
        rng = Rng(5)
        secrets = [sample_unit(rng, _M64) for _ in range(5)]
        poly = derive_session_polynomial(b"count", 5)
        proof = prove(Hardened(poly), secrets, 4, _M64, rng.split(), rng.split())
        assert len(proof.rounds) == 4 and len(calls) == 4
        # one table per secret, held by the proof's polynomial only
        assert sorted(poly.term_tables) == sorted((s, 2, _M64) for s in secrets)
        assert poly == derive_session_polynomial(b"count", 5)


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
            r, w = prover_commit(rng, M)
            ch = draw_challenge(rng, 1)
            y = prover_respond(r, [secret], ch, M)
            assert verify_round(w, ch, y, [witness], M)
            key = (w, ch[0], y)
            honest[key] = honest.get(key, 0) + 1
        simulated: dict = {}
        for _ in range(n_samples):
            ch = draw_challenge(rng, 1)
            y = sample_unit(rng, M)
            w = y * y % M
            if ch[0]:
                w = w * mod_inv(witness, M) % M
            if rng.choice_sign() < 0:
                w = (-w) % M
            key = (w, ch[0], y)
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
        st.integers(1, M - 1),
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8),
        st.integers(1, M - 1),
    )
    def test_round_codec(self, w, ch, y):
        proof = ZkpProof(secret_ids=(7,), rounds=(ZkpRound(w=w, challenge=tuple(ch), y=y),))
        assert decode_proof(encode_proof(proof, M), M) == proof

    def test_proof_codec(self):
        rng = Rng(5)
        secrets = [sample_unit(rng, M) for _ in range(2)]
        witnesses = [s * s % M for s in secrets]
        proof, _ = run_proof(secrets, witnesses, 2, 3, M, rng.split(), rng.split(), secret_ids=(1, 4))
        out = decode_proof(encode_proof(proof, M), M)
        assert out == proof

    def test_hardened_proof_codec_keeps_seed_and_variant(self):
        m = generate_blum_modulus(12, 5).m
        rng = Rng(6)
        secrets = [sample_unit(rng, m) for _ in range(2)]
        witnesses = [s * s % m for s in secrets]
        poly = derive_session_polynomial(b"seed77", 2)
        proof, _ = run_hardened_proof(
            secrets, witnesses, poly, 2, m, rng.split(), rng.split(), secret_ids=(2, 3)
        )
        out = decode_proof(encode_proof(proof, m), m)
        assert out == proof and out.variant is Variant.HARDENED

    def test_big_integers_survive(self):
        m = (1 << 512) - 19
        rd = ZkpRound(w=m - 1, challenge=(1, 0), y=m - 5)
        proof = ZkpProof(secret_ids=(1, 2), rounds=(rd,))
        assert decode_proof(encode_proof(proof, m), m) == proof

    # any odd 2048-bit number serves: the codec and the prover need no factors
    @pytest.mark.parametrize(
        "m",
        [generate_blum_modulus(16, 3).m, generate_blum_modulus(32, 3).m, (1 << 2047) + 9],
        ids=["16", "32", "2048"],
    )
    @pytest.mark.parametrize("k", [2, 9])
    def test_round_trip_and_exact_length(self, m, k):
        rng = Rng(m % 1000 + k)
        secrets = [sample_unit(rng, m) for _ in range(k)]
        ids = tuple(range(1, k + 1))
        width = (m.bit_length() + 7) // 8
        for system in (BASIC, Hardened(derive_session_polynomial(b"s", k))):
            proof = prove(system, secrets, 4, m, rng.split(), rng.split(), secret_ids=ids)
            blob = encode_proof(proof, m)
            assert decode_proof(blob, m) == proof
            assert len(blob) == 7 + 4 * k + 4 * (2 * width + (k + 7) // 8)

    def test_mixed_challenge_lengths_do_not_encode(self):
        proof, _ = _basic_proof()
        rd = proof.rounds[1]
        mixed = dataclasses.replace(
            proof, rounds=(proof.rounds[0], dataclasses.replace(rd, challenge=rd.challenge + (1,)))
        )
        with pytest.raises(ChallengeLengthMismatch):
            encode_proof(mixed, M)


def _basic_proof():
    rng = Rng(8)
    secrets = [sample_unit(rng, M) for _ in range(2)]
    proof = prove(BASIC, secrets, 2, M, rng.split(), rng.split(), secret_ids=(1, 3))
    return proof, [s * s % M for s in secrets]


_BLOB = encode_proof(_basic_proof()[0], M)
_HARDENED = Hardened(_poly([3, 2]))
_HEADER = 7  # variant, id count, round count, k


class TestStrictDecoding:
    def test_every_truncation_is_malformed(self):
        for cut in range(len(_BLOB)):  # cut = 0 is the empty blob
            with pytest.raises(MalformedProof):
                decode_proof(_BLOB[:cut], M)

    def test_trailing_bytes_are_malformed(self):
        with pytest.raises(MalformedProof):
            decode_proof(_BLOB + b"\0", M)

    @pytest.mark.parametrize("code", [2, 7, 255])
    def test_unknown_variant_byte_is_malformed(self, code):
        with pytest.raises(MalformedProof):
            decode_proof(bytes([code]) + _BLOB[1:], M)

    @pytest.mark.parametrize("field", [0, 2], ids=["w", "y"])
    @pytest.mark.parametrize("value", [M, 255])
    def test_round_value_not_below_m_is_malformed(self, field, value):
        blob = bytearray(_BLOB)
        blob[_HEADER + 8 + field] = value
        with pytest.raises(MalformedProof):
            decode_proof(bytes(blob), M)
        blob[_HEADER + 8 + field] = M - 1  # the same byte below m decodes
        decode_proof(bytes(blob), M)

    def test_challenge_bits_above_k_are_malformed(self):
        blob = bytearray(_BLOB)
        blob[_HEADER + 8 + 1] |= 0b100  # k = 2
        with pytest.raises(MalformedProof):
            decode_proof(bytes(blob), M)

    def test_k_without_rounds_is_malformed(self):
        empty = encode_proof(ZkpProof(secret_ids=(), rounds=()), M)
        assert decode_proof(empty, M) == ZkpProof(secret_ids=(), rounds=())
        with pytest.raises(MalformedProof):
            decode_proof(empty[:-1] + b"\2", M)


class TestVerify:
    def test_variant_comes_from_the_verifier(self):
        proof, witnesses = _basic_proof()
        assert verify(BASIC, proof, witnesses, M, 2)
        assert not verify(_HARDENED, proof, witnesses, M, 2)
        relabeled = dataclasses.replace(proof, variant=Variant.HARDENED)
        assert not verify(BASIC, relabeled, witnesses, M, 2)

    def test_round_count_must_equal_h(self):
        proof, witnesses = _basic_proof()
        assert not verify(BASIC, proof, witnesses, M, 1)
        assert not verify(BASIC, proof, witnesses, M, 3)

    def test_wrong_challenge_length_fails_instead_of_raising(self):
        proof, witnesses = _basic_proof()
        rd = proof.rounds[0]
        for challenge in (rd.challenge[:1], rd.challenge + (1,)):
            forged = dataclasses.replace(
                proof, rounds=(dataclasses.replace(rd, challenge=challenge),) + proof.rounds[1:]
            )
            assert not verify(BASIC, forged, witnesses, M, 2)
            assert not verify(_HARDENED, dataclasses.replace(forged, variant=Variant.HARDENED),
                              witnesses, M, 2)

    def test_prover_never_runs_a_verifier(self, monkeypatch):
        from anonauth import zkp

        def refuse(*_args):
            raise AssertionError("the prover ran a verifier")

        monkeypatch.setattr(zkp, "verify_round", refuse)
        monkeypatch.setattr(zkp, "hardened_verify", refuse)
        m = generate_blum_modulus(16, 9).m
        rng = Rng(10)
        secrets = [sample_unit(rng, m) for _ in range(3)]
        for system in (BASIC, Hardened(derive_session_polynomial(b"s", 3))):
            proof = prove(system, secrets, 4, m, rng.split(), rng.split())
            assert len(proof.rounds) == 4 and proof.variant is system.variant


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
    def test_interactive_zero_prover_fails(self, w):
        rng, witnesses, systems = self._setup()
        for system in systems:
            assert not verify_interactive(system, _ZeroProver(w), witnesses, 8, _M64, rng)

    @pytest.mark.parametrize("w", [0, _M64], ids=["0", "m"])
    def test_recorded_zero_transcript_fails(self, w):
        rng, witnesses, systems = self._setup()
        for system in systems:
            rounds = tuple(ZkpRound(w=w, challenge=draw_challenge(rng, 2), y=0) for _ in range(8))
            proof = ZkpProof(secret_ids=(1, 2), rounds=rounds, variant=system.variant)
            assert not verify(system, proof, witnesses, _M64, 8)


def _decodes_or_fails_typed(blob: bytes) -> None:
    try:
        proof = decode_proof(blob, M)
    except MalformedProof:
        return
    for system in (BASIC, _HARDENED):
        for h in (1, 2):
            assert verify(system, proof, [4, 1], M, h) in (True, False)


class TestHostileBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, blob):
        _decodes_or_fails_typed(blob)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4),
        st.integers(0, 3),
    )
    def test_mutated_valid_proof(self, edits, drop):
        blob = bytearray(_BLOB)
        for pos, value in edits:
            blob[pos] = value
        _decodes_or_fails_typed(bytes(blob[: len(blob) - drop]))
