import copy
import dataclasses
import functools
import math
import random
import struct
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonauth import adversary, analysis, protocol, zkp
from anonauth.adversary import (
    BundleCheater,
    CheaterProver,
    MissingSimulator,
    SimulatorMatrix,
    SimulatorProver,
    TapLevel,
    build_simulators,
    bundle_cheater_attempt,
    cheater_attempt,
    observe_sessions,
    random_response_control,
    simulator_attack,
    simulator_memory_cost,
)
from anonauth.numtheory import Rng, generate_blum_modulus, sample_unit
from anonauth.protocol import Obu, Outcome, SessionConfig, StepOutOfOrder, run_full_session
from anonauth.revocation import broadcast_revocation
from anonauth.zkp import Variant
from anonauth.zkp import ZkpProof, ZkpRound, verify_round
from conftest import M21, build_deployment, mask_ids


def _pool(seed, n, bits=24):
    mod = generate_blum_modulus(bits, seed)
    rng = Rng(seed)
    secrets = [sample_unit(rng, mod.m) for _ in range(n)]
    witnesses = [s * s % mod.m for s in secrets]
    return mod.m, secrets, witnesses


def _honest_row(secrets, m, rng, k):
    """One fully answered commitment: W = R^2 with the honest response for
    every challenge value, exactly what a lucky tap would accumulate."""
    r = sample_unit(rng, m)
    w = r * r % m
    rounds = []
    for value in range(1 << k):
        y = r
        for i, s in enumerate(secrets):
            if value >> i & 1:
                y = y * s % m
        rounds.append(ZkpRound(w=w, challenge=value, y=y))
    return rounds


class _Recorder:
    """Pass-through prover that keeps each round it plays as a ``ZkpRound``."""

    def __init__(self, prover):
        self.prover, self.rounds = prover, []

    def commit(self):
        self.w = self.prover.commit()
        return self.w

    def respond(self, challenge):
        y = self.prover.respond(challenge)
        self.rounds.append(ZkpRound(self.w, challenge, y))
        return y


class TestCheater:
    def test_single_round_success_near_half(self):
        m, _, witnesses = _pool(1, 1)
        prover, vrng = CheaterProver(witnesses[:1], m, Rng(10)), Rng(11)
        hits = sum(cheater_attempt(prover, 1, vrng) for _ in range(10_000))
        p = hits / 10_000
        sigma = math.sqrt(0.5 * 0.5 / 10_000)
        assert abs(p - 0.5) <= 4 * sigma

    def test_rounds_compound(self):
        m, _, witnesses = _pool(2, 2)
        prover, vrng = CheaterProver(witnesses[:2], m, Rng(20)), Rng(21)
        trials = 20_000
        hits = sum(cheater_attempt(prover, 2, vrng) for _ in range(trials))
        p_expected = 2.0 ** (-4)
        sigma = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(hits / trials - p_expected) <= 4 * sigma

    def test_successful_transcript_reverifies(self):
        m, _, witnesses = _pool(3, 2)
        prover, vrng = CheaterProver(witnesses[:2], m, Rng(30)), Rng(31)
        seen_success = False
        for _ in range(2_000):
            recorder = _Recorder(prover)
            if zkp.verify_interactive(zkp.BASIC, recorder, witnesses[:2], 1, m, vrng):
                seen_success = True
                for rd in recorder.rounds:
                    assert verify_round(rd.w, rd.challenge, rd.y, witnesses[:2], m)
        assert seen_success

    def test_stop_on_failure_truncates(self):
        m, _, witnesses = _pool(4, 2)
        prover, vrng = CheaterProver(witnesses[:2], m, Rng(40)), Rng(41)
        saw_truncated = False
        for _ in range(200):
            recorder = _Recorder(prover)
            ok = zkp.verify_interactive(zkp.BASIC, recorder, witnesses[:2], 8, m, vrng)
            if not ok and len(recorder.rounds) < 8:
                saw_truncated = True
        assert saw_truncated


class _FreshCheater:
    """The cheater as it was: one prover per attempt, every inverse
    recomputed, the sign drawn as a separate +-1."""

    def __init__(self, witnesses, m, rng):
        self.witnesses, self.m, self.rng = witnesses, m, rng

    def commit(self):
        m = self.m
        self.r = sample_unit(self.rng, m)
        mask = self.rng.randbits(len(self.witnesses))
        sign = 1 if self.rng.randbits(1) else -1
        prod = 1
        for i, g in enumerate(self.witnesses):
            if (mask >> i) & 1:
                prod = prod * g % m
        return sign * self.r * self.r * pow(prod, -1, m) % m

    def respond(self, challenge):
        return self.r


def _fresh_attempt(witnesses, h, m, rng, verifier_rng):
    """One attempt as it was: a new prover, up to h rounds, stop at the first failure."""
    prover = _FreshCheater(witnesses, m, rng)
    for _ in range(h):
        w = prover.commit()
        challenge = verifier_rng.randbits(len(witnesses))
        if not verify_round(w, challenge, prover.respond(challenge), witnesses, m):
            return False
    return True


class TestReusedCheater:
    @pytest.mark.parametrize("k,h", [(1, 1), (2, 1), (2, 2), (3, 2)])  # criterion 1
    def test_one_prover_matches_a_fresh_prover_per_trial(self, k, h):
        seed, trials = 11, 2_000
        m, _, witnesses = analysis._mc_witnesses(k, seed)
        rng, vrng = Rng(seed), Rng(seed ^ 0xA5A5A5)
        prover = CheaterProver(witnesses, m, rng)
        got = [cheater_attempt(prover, h, vrng) for _ in range(trials)]
        ref_rng, ref_vrng = Rng(seed), Rng(seed ^ 0xA5A5A5)
        want = [_fresh_attempt(witnesses, h, m, ref_rng, ref_vrng) for _ in range(trials)]
        assert got == want
        assert rng._r.getstate() == ref_rng._r.getstate()
        assert vrng._r.getstate() == ref_vrng._r.getstate()
        assert analysis.mc_cheater(k, h, trials, seed).successes == sum(want)

    def test_respond_needs_a_fresh_commit(self):
        m, _, witnesses = _pool(8, 2)
        prover = CheaterProver(witnesses, m, Rng(80))
        with pytest.raises(StepOutOfOrder):
            prover.respond(0b10)
        prover.commit()
        prover.respond(0b10)
        with pytest.raises(StepOutOfOrder):
            prover.respond(0b10)


def _fresh_bundle_attempt(pool_witnesses, requested_sets, h, alpha, m, rng, verifier_rng):
    """One bundle attempt as it was: a new prover for every proof whose set guess lands."""
    verified = 0
    for mask in requested_sets:
        if adversary._sample_subset(rng, len(pool_witnesses), mask.bit_count()) != mask:
            continue
        witnesses = [w for i, w in enumerate(pool_witnesses) if (mask >> i) & 1]
        verified += _fresh_attempt(witnesses, h, m, rng, verifier_rng)
    return verified >= alpha


class TestBundleCheater:
    def test_set_guess_binding(self):
        # sets are bitmasks, bit i - 1 for id i: 0b011 is {1, 2}
        # with mu=1 the attempt succeeds only if both the set guess and
        # every challenge guess land: p = 1/(C(3,2) * 2^2) = 1/12
        m, _, witnesses = _pool(5, 3)
        cheater, vrng = BundleCheater(witnesses, m, Rng(50)), Rng(51)
        trials = 60_000
        hits = sum(
            bundle_cheater_attempt(cheater, [0b011], 1, 1, vrng)
            for _ in range(trials)
        )
        p_expected = 1 / 12
        sigma = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(hits / trials - p_expected) <= 4 * sigma

    def test_alpha_above_achievable_never_succeeds_cheaply(self):
        m, _, witnesses = _pool(6, 3)
        cheater, vrng = BundleCheater(witnesses, m, Rng(60)), Rng(61)
        hits = sum(
            bundle_cheater_attempt(cheater, [0b011, 0b101, 0b110], 4, 3, vrng)
            for _ in range(2_000)
        )
        # needs three simultaneous (1/3)*(1/16) events: p ~ 9.6e-6
        assert hits == 0

    # (k, h, n, mu, alpha): the mc-oracle and pinned call, and six sets drawn three at a time
    @pytest.mark.parametrize("k,h,n,mu,alpha", [(2, 1, 3, 1, 1), (2, 2, 4, 3, 1)])
    def test_kept_provers_match_a_fresh_prover_per_proof(self, monkeypatch, k, h, n, mu, alpha):
        seed, trials = 3, 2_000
        m, _, witnesses = analysis._mc_witnesses(n, seed)
        inverses = []
        monkeypatch.setattr(adversary, "mod_inv", lambda a, m: inverses.append(a) or pow(a, -1, m))
        rng, vrng, set_rng = Rng(seed), Rng(seed ^ 0xA5A5A5), Rng(seed ^ 0xC0FFEE)
        cheater = BundleCheater(witnesses, m, rng)
        got = []
        for _ in range(trials):
            requested = analysis._distinct_sets(set_rng, n, k, mu)
            got.append(bundle_cheater_attempt(cheater, requested, h, alpha, vrng))
        ref_rng, ref_vrng, ref_set_rng = Rng(seed), Rng(seed ^ 0xA5A5A5), Rng(seed ^ 0xC0FFEE)
        want = [
            _fresh_bundle_attempt(
                witnesses, analysis._distinct_sets(ref_set_rng, n, k, mu), h, alpha, m,
                ref_rng, ref_vrng,
            )
            for _ in range(trials)
        ]
        assert got == want and any(want)
        for ours, ref in ((rng, ref_rng), (vrng, ref_vrng), (set_rng, ref_set_rng)):
            assert ours._r.getstate() == ref._r.getstate()
        # one prover per set, each inverting a mask at most once
        assert len(inverses) <= math.comb(n, k) << k
        assert analysis.mc_bundle_cheater(k, h, n, mu, alpha, trials, seed).successes == sum(want)


class TestObserver:
    def _transcripts(self, sessions=4, mu=3, h=2):
        dep = build_deployment(70, n=6, k=2, stub=True)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=mu, k=2, h=h, n=6, serv_id="INFO")
        logs = []
        for _ in range(sessions):
            result, log = run_full_session(obu, rsu, cfg)
            assert result.outcome is Outcome.ACCEPTED
            logs.append(log)
        return logs

    def test_round_tap_counts(self):
        logs = self._transcripts(sessions=4, mu=3, h=2)
        corpus = observe_sessions(logs)
        assert len(corpus) == 4 * 3
        assert all(len(obs.rounds) == 2 for obs in corpus)

    def test_observed_rounds_reverify(self):
        dep = build_deployment(71, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=2, k=2, h=2, n=6, serv_id="INFO")
        _, log = run_full_session(obu, rsu, cfg)
        m = obu.credential.modulus
        for obs in observe_sessions([log]):
            witnesses = [obu.credential.pool_witnesses[i - 1] for i in obs.secret_ids]
            for rd in obs.rounds:
                assert verify_round(rd.w, rd.challenge, rd.y, witnesses, m)

    def test_ciphertext_tap_yields_nothing(self):
        logs = self._transcripts(sessions=2)
        assert observe_sessions(logs, TapLevel.CIPHERTEXT_ONLY) == []


class TestSimulatorMatrix:
    def test_coverage_counts_filled_cells(self):
        mat = SimulatorMatrix(secret_ids=(1, 2))
        mat.add_round(ZkpRound(w=4, challenge=0b00, y=2))
        mat.add_round(ZkpRound(w=4, challenge=0b01, y=5))
        assert mat.coverage() == 2 / 4
        mat.add_round(ZkpRound(w=4, challenge=0b11, y=8))
        mat.add_round(ZkpRound(w=4, challenge=0b10, y=9))
        assert mat.coverage() == 1.0

    def test_first_recording_wins(self):
        mat = SimulatorMatrix(secret_ids=(1,))
        mat.add_round(ZkpRound(w=4, challenge=1, y=2))
        mat.add_round(ZkpRound(w=4, challenge=1, y=9))
        assert mat.rows[4][1] == 2

    def test_row_cap(self):
        mat = SimulatorMatrix(secret_ids=(1,))
        for w in range(10):
            mat.add_round(ZkpRound(w=w + 2, challenge=0, y=1))
        assert len(mat.rows) == 2  # capped at 2^k

    def test_best_row_requires_data(self):
        with pytest.raises(MissingSimulator):
            SimulatorMatrix(secret_ids=(1,)).best_row()

    def test_one_matrix_per_observed_set(self):
        # synthetic corpus touching every C(10,5) set once
        corpus = [
            ZkpProof(secret_ids=ids, rounds=(ZkpRound(w=4, challenge=0, y=2),))
            for ids in combinations(range(1, 11), 5)
        ]
        matrices = build_simulators(corpus)
        assert len(matrices) == math.comb(10, 5) == 252


class TestSimulatorAttack:
    def _full_matrices(self, m, witnesses, n, k):
        """Fully populated replay matrices built from honest round data."""
        rng = Rng(99)
        matrices = {}
        for ids in combinations(range(1, n + 1), k):
            mat = SimulatorMatrix(secret_ids=ids)
            subset = [self.secrets[i - 1] for i in ids]
            for rd in _honest_row(subset, m, rng, k):
                mat.add_round(rd)
            assert mat.coverage() == 1.0
            matrices[ids] = mat
        return matrices

    def setup_method(self):
        self.m, self.secrets, self.witnesses = _pool(80, 4, bits=24)

    def test_full_coverage_always_succeeds(self):
        matrices = self._full_matrices(self.m, self.witnesses, 4, 2)
        sessions = [[(1, 2), (3, 4)] for _ in range(50)]
        report = simulator_attack(
            matrices, self.witnesses, sessions, 2, 3, 2, self.m, Rng(7)
        )
        assert report.frequency == 1.0
        assert report.memory_bytes_modeled == simulator_memory_cost(4, 2)
        assert report.memory_bytes_measured > 0

    def test_missing_set_fails_that_proof(self):
        matrices = self._full_matrices(self.m, self.witnesses, 4, 2)
        del matrices[(1, 2)]
        report = simulator_attack(
            matrices, self.witnesses, [[(1, 2)]] * 20, 2, 3, 1, self.m, Rng(7)
        )
        assert report.successes == 0

    def test_partial_coverage_matches_binomial_tail(self):
        # one matrix whose only row holds 2 of 4 cells; each round then
        # succeeds with probability 1/2, so h=2 rounds pass 1/4 of the time
        ids = (1, 2)
        subset = [self.secrets[0], self.secrets[1]]
        mat = SimulatorMatrix(secret_ids=ids)
        target = {0, 3}
        for rd in _honest_row(subset, self.m, Rng(5), 2):
            if rd.challenge in target:
                mat.add_round(rd)
        assert mat.coverage() == 0.5
        trials = 8_000
        report = simulator_attack(
            {ids: mat}, self.witnesses, [[ids]] * trials, 2, 2, 1, self.m, Rng(8)
        )
        p_expected = 0.25
        sigma = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(report.frequency - p_expected) <= 4 * sigma

    def test_replayed_rounds_fail_against_other_witnesses(self):
        matrices = self._full_matrices(self.m, self.witnesses, 4, 2)
        prover = SimulatorProver(matrices[(1, 2)])
        wrong = [self.witnesses[2], self.witnesses[3]]
        hits = 0
        vrng = Rng(9)
        for _ in range(500):
            w = prover.commit()
            ch = vrng.randbits(2)
            if verify_round(w, ch, prover.respond(ch), wrong, self.m):
                hits += 1
        # zero-challenge rounds (1/4 of draws) verify regardless of the
        # witnesses; nonzero ones need an arithmetic coincidence
        assert hits / 500 < 0.35


class TestRandomControl:
    def test_basic_verifier_accepts_at_chance_rate(self):
        m, _, witnesses = _pool(90, 3)
        trials = 20_000
        report = random_response_control(
            witnesses, [[(1, 2)]] * trials, 1, 1, m, Rng(1), Rng(2)
        )
        # a random Y verifies a given (W, challenge) with chance ~2/m
        assert report.frequency < 0.01


class WitnessOnlyProver:
    """Holds the witnesses I_i = S_i^2 mod m and no secret. The hardened
    response R^2 * prod_i( sum_t a_t * S_i^(2t*b_t) ) reads each S_i only
    through S_i^2, so W = R^2 and Y = W * prod_i( sum_t a_t * I_i^(t*b_t) )."""

    def __init__(self, witnesses, poly, m, rng):
        self.witnesses, self.coefficients, self.m, self.rng = witnesses, poly.coefficients, m, rng
        self._w = None

    def commit(self):
        r = sample_unit(self.rng, self.m)
        self._w = r * r % self.m
        return self._w

    def respond(self, challenge):
        m, y = self.m, self._w
        for i_x in self.witnesses:
            y = y * sum(
                a_t * pow(i_x, t * (challenge >> t & 1), m)
                for t, a_t in enumerate(self.coefficients)
            ) % m
        return y


class TestWitnessOnlyProver:
    K, H, ATTEMPTS = 5, 8, 20

    def _accepted(self, system_for):
        m, _, witnesses = _pool(81, self.K, bits=64)
        rng, vrng = Rng(82), Rng(83)
        accepted = 0
        for i in range(self.ATTEMPTS):
            poly = zkp.derive_session_polynomial(i.to_bytes(4, "big"), self.K)
            prover = WitnessOnlyProver(witnesses, poly, m, rng)
            accepted += zkp.verify_interactive(
                system_for(poly), prover, witnesses, self.H, m, vrng
            )
        return accepted

    @pytest.mark.xfail(
        strict=True,
        reason="the hardened response depends on each secret only through its "
        "witness, so any holder of the witnesses (every RSU for the master set, "
        "every member for its pool) answers every verifier-drawn challenge",
    )
    def test_hardened_verifier_rejects_witness_only_prover(self):
        assert self._accepted(zkp.Hardened) == 0

    def test_basic_verifier_rejects_witness_only_prover(self):
        assert self._accepted(lambda _poly: zkp.BASIC) == 0


def _screened_session(rsu, obu, config):
    """The key id of a session ``obu`` opened and announced its sets in."""
    key_id = rsu.register_session(obu.start(rsu.beacon(), config), config)
    obu.key_id = key_id
    assert rsu.negotiate_privacy(key_id) == config.alpha
    assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets()) is None
    return key_id


def _forged_membership(rsu, obu, config, forger):
    """The RSU's verdict on a membership proof the forger writes in a session
    ``obu`` opened, so the forger holds its session key."""
    key_id = _screened_session(rsu, obu, config)
    m, seal = rsu.credential.modulus, functools.partial(obu.sym.seal, obu.session_key, rng=obu.rng)
    ws = [forger(key_id, 0).commit() for _ in range(config.h)]
    commitments = struct.pack(">d", 0.0) + zkp.encode_proof(ws, m)
    sealed = rsu.challenge_membership(key_id, seal(commitments))
    challenges = zkp.decode_proof(obu.sym.open(obu.session_key, sealed), config.h, 1 << config.k)
    ys = [forger(key_id, 0).respond(c) for c in challenges]
    return rsu.check_membership_proof(key_id, seal(zkp.encode_proof(ys, m)))


def _forged_bundle(rsu, obu, config, forger):
    """The member's verdict on a bundle the forger writes for the sets the
    member announced, holding the member's session key, once the member has
    proved its membership."""
    key_id = _screened_session(rsu, obu, config)
    challenges = rsu.challenge_membership(key_id, obu.prove_membership())
    assert rsu.check_membership_proof(key_id, obu.answer_membership(challenges))
    m, h = rsu.credential.modulus, config.h
    seal = functools.partial(obu.sym.seal, obu.session_key, rng=obu.rng)
    ws = [forger(obu.key_id, idx).commit() for idx in range(config.mu) for _ in range(h)]
    sealed = obu.challenge_bundle(seal(zkp.encode_proof(ws, m)))
    count = config.mu * h
    challenges = zkp.decode_proof(obu.sym.open(obu.session_key, sealed), count, 1 << config.k)
    ys = [forger(obu.key_id, i // h).respond(c) for i, c in enumerate(challenges)]
    return obu.verify_bundle(seal(zkp.encode_proof(ys, m)))


class TestTranscriptForger:
    """A secretless prover that writes W = R^2 and Y = R, the rounds a
    prover-chosen challenge of 0 lets through. Each endpoint draws its own
    challenges, so a basic forgery passes a proof only when every challenge
    is 0, at criterion 1's rate 2^-kh."""

    K, H, SESSIONS = 2, 2, 300
    P = 2.0 ** -(K * H)

    def _deployment(self, seed):
        dep = build_deployment(seed, n=6, k=self.K, stub=True)
        return dep, dep.make_rsu(1), dep.make_obu(2)

    def _bound(self, trials):
        return self.P + 3 * math.sqrt(self.P * (1 - self.P) / trials)

    def test_basic_membership_forgery_passes_at_chance_rate(self):
        dep, rsu, obu = self._deployment(90)
        config = SessionConfig(alpha=1, mu=2, k=self.K, h=self.H, n=6, serv_id="INFO")
        forger = adversary.TranscriptForger(dep.modulus.m, Rng(91))
        accepted = sum(
            _forged_membership(rsu, obu, config, lambda *_: forger)
            for _ in range(self.SESSIONS)
        )
        assert accepted / self.SESSIONS <= self._bound(self.SESSIONS)

    def test_basic_bundle_forgery_passes_at_chance_rate(self):
        dep, rsu, obu = self._deployment(92)
        config = SessionConfig(alpha=1, mu=2, k=self.K, h=self.H, n=6, serv_id="INFO")
        forger = adversary.TranscriptForger(dep.modulus.m, Rng(93))
        verified = sum(
            _forged_bundle(rsu, obu, config, lambda *_: forger).verified_count
            for _ in range(self.SESSIONS)
        )
        proofs = self.SESSIONS * config.mu
        assert verified / proofs <= self._bound(proofs)

    def test_hardened_answer_is_the_witness_only_provers(self):
        m, _, witnesses = _pool(94, 3, bits=64)
        poly = zkp.derive_session_polynomial(b"forger", 3)
        forger = adversary.TranscriptForger(m, Rng(95), witnesses, poly)
        reference = WitnessOnlyProver(witnesses, poly, m, Rng(95))
        for challenge in range(8):
            assert forger.commit() == reference.commit()
            assert forger.respond(challenge) == reference.respond(challenge)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the hardened response depends on each secret only "
        "through its witness, so any holder of the witnesses (every RSU for the "
        "master set, every member for its pool) forges both proofs",
    )
    def test_hardened_forgery_is_refused(self):
        dep, rsu, obu = self._deployment(96)
        config = SessionConfig(alpha=1, mu=2, k=self.K, h=self.H, n=6, serv_id="INFO",
                               variant=Variant.HARDENED)
        m, rng = dep.modulus.m, Rng(97)
        master = rsu.credential.master_witnesses[obu.credential.group_id]
        pool = obu.credential.pool_witnesses
        forgers = {}

        def forger(key_id, idx, purpose, witnesses_of):
            key = (obu.session_key, purpose, idx)
            if key not in forgers:
                poly = protocol._session_poly(obu.session_key, key_id, purpose, idx, self.K)
                forgers[key] = adversary.TranscriptForger(m, rng, witnesses_of(idx), poly)
            return forgers[key]

        membership = functools.partial(forger, purpose=b"membership", witnesses_of=lambda _: master)
        bundle = functools.partial(
            forger, purpose=b"bundle", witnesses_of=lambda idx: [pool[i - 1] for i in obu.sets[idx]]
        )
        accepted = sum(_forged_membership(rsu, obu, config, membership) for _ in range(20))
        verified = sum(
            _forged_bundle(rsu, obu, config, bundle).verified_count for _ in range(20)
        )
        assert (accepted, verified) == (0, 0)


def evader(obu: Obu) -> Obu:
    """The member of ``obu`` on software that derives its sets from an iv the
    KDC never issued (the issued iv with its low bit flipped). Its group id,
    master key and pool are the member's own, so it proves membership as the
    member does, while screening reconstructs the issued iv's sequences."""
    software = copy.copy(obu)
    software.credential = dataclasses.replace(obu.credential, iv=obu.credential.iv ^ 1)
    return software


class TestEvader:
    """A revoked member whose software announces other sets. Screening binds
    honest software only: nothing in either proof names the member."""

    ATTEMPTS = 20

    def _outcomes(self, software):
        dep = build_deployment(61, n=6, k=2)
        rsu = dep.make_rsu(1)
        member = software(dep.make_obu(2))
        config = SessionConfig(alpha=1, mu=3, k=2, h=2, n=6, serv_id="INFO")
        broadcast_revocation(dep.obu_creds[0].iv, 0, [rsu.table])
        return [run_full_session(member, rsu, config)[0].outcome for _ in range(self.ATTEMPTS)]

    def test_honest_software_is_refused_after_its_revocation(self):
        assert self._outcomes(lambda obu: obu) == [Outcome.REJECTED_REVOKED] * self.ATTEMPTS

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: screening recognises only the sequences of the "
        "issued iv, and every member of a group proves membership with the same "
        "master key, so an evader's sets derived from another iv pass",
    )
    def test_evader_is_refused_after_its_revocation(self):
        assert self._outcomes(evader) == [Outcome.REJECTED_REVOKED] * self.ATTEMPTS


class TestMemoryCost:
    def test_reference_examples(self):
        assert simulator_memory_cost(10, 5) == 16_515_072
        assert simulator_memory_cost(1, 0) == 64
        assert math.comb(50, 5) == 2_118_760
        assert simulator_memory_cost(50, 5) == 65536 * 2_118_760 == 138_855_055_360

    def test_rejects_n_below_k(self):
        with pytest.raises(ValueError):
            simulator_memory_cost(3, 5)

    def test_formula_shape(self):
        rng = Rng(3)
        for _ in range(50):
            n = rng.randrange(1, 40)
            k = rng.randrange(0, n + 1)
            assert simulator_memory_cost(n, k) == 2 ** (2 * k + 6) * math.comb(n, k)


def _old_sample_subset(rng, ids, k):
    """The subset sampler as it was: one ``randrange`` per id over an id list."""
    picked = set()
    while len(picked) < k:
        picked.add(ids[rng.randrange(0, len(ids))])
    return sorted(picked)


class TestSampleSubsetReference:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 70),
        k=st.integers(1, 12),
        draws=st.integers(1, 6),
    )
    def test_matches_randrange_sampler(self, seed, n, k, draws):
        k = min(k, n)
        ours, ref = Rng(seed), random.Random(seed)
        ids = list(range(1, n + 1))
        for _ in range(draws):
            got = adversary._sample_subset(ours, n, k)
            assert got >> n == 0 and got.bit_count() == k
            assert mask_ids(got) == tuple(_old_sample_subset(ref, ids, k))
        assert ours.randbits(64) == ref.getrandbits(64)
