import dataclasses
import math

import pytest

from anonauth import protocol, zkp
from anonauth.revocation import MAX_POOL_SIZE
from anonauth.simulation import (
    ALPHA_PACKET_BYTES,
    InvalidConfig,
    SimConfig,
    run_sim,
    sweep,
    sweep_csv,
)


SMALL = SimConfig(
    rsu_count=4,
    obus_per_rsu=4,
    duration_s=24.0,
    mu=5,
    modulus_bits=24,
)


def _run_logged(monkeypatch, cfg, seed):
    """run_sim's metrics and (obu, result, transcript) of every session it
    completes, collected by wrapping ``protocol.run_full_session``."""
    sessions = []
    original = protocol.run_full_session

    def logged(obu, rsu, config):
        result, transcript = original(obu, rsu, config)
        sessions.append((obu, result, transcript))
        return result, transcript

    monkeypatch.setattr(protocol, "run_full_session", logged)
    return run_sim(cfg, seed), sessions


class TestConfigValidation:
    def test_unmapped_alpha_rejected(self):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, alpha=3)

    def test_alpha_above_mu_rejected(self):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, alpha=5, mu=4)

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, rsu_spacing_m=0.0)
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, comm_range_m=-1.0)

    @pytest.mark.parametrize(
        "change",
        [
            {"rsu_count": 0},
            {"obus_per_rsu": -1},
            {"h": 0},
            {"n": 4, "k": 2, "mu": 7},  # C(4, 2) = 6 sets
            {"n": 4, "k": 4},
            {"n": MAX_POOL_SIZE + 1},
            # each used to run with 0 sessions and 0 packets
            {"duration_s": -5.0},
            {"duration_s": 0.0},
            {"duration_s": math.nan},
            {"speed_mps": math.nan},
            {"rsu_spacing_m": math.nan},
            {"comm_range_m": math.inf},
            # used to raise a plain ValueError from generate_blum_modulus in run_sim
            {"modulus_bits": 5},
        ],
    )
    def test_parameters_that_admit_no_session_rejected(self, change):
        # each used to fail only in run_sim: a division by zero, an empty
        # run, or an error at the first completed session
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, **change)

    def test_session_config_is_built_once(self):
        assert SMALL.session is SMALL.session
        assert (SMALL.session.k, SMALL.session.mu, SMALL.session.alpha) == (2, 5, 2)

    def test_packet_size_grows_with_alpha(self):
        assert ALPHA_PACKET_BYTES[2] < ALPHA_PACKET_BYTES[4] < ALPHA_PACKET_BYTES[5]


class TestRun:
    def test_deterministic(self):
        a = run_sim(SMALL, seed=5)
        b = run_sim(SMALL, seed=5)
        assert a == b

    def test_seed_changes_outcome(self):
        a = run_sim(SMALL, seed=5)
        b = run_sim(SMALL, seed=6)
        assert (a.packets_sent, a.avg_delay_s) != (b.packets_sent, b.avg_delay_s)

    def test_session_conservation(self):
        for seed in range(3):
            metrics = run_sim(SMALL, seed=seed)
            assert metrics.conservation_holds()
            assert metrics.sessions_attempted > 0
            assert metrics.packets_lost <= metrics.packets_sent

    def test_zero_members_means_zero_traffic(self):
        cfg = dataclasses.replace(SMALL, obus_per_rsu=0)
        metrics = run_sim(cfg, seed=1)
        assert metrics.sessions_attempted == 0
        assert metrics.packets_sent == 0
        assert metrics.avg_delay_s == 0.0

    def test_completed_sessions_run_the_real_protocol(self, monkeypatch):
        metrics, sessions = _run_logged(monkeypatch, SMALL, seed=2)
        assert metrics.sessions_accepted > 0
        assert len(sessions) == metrics.sessions_accepted + metrics.sessions_rejected
        accepted = [r for _obu, r, _t in sessions if r.outcome.value == "Accepted"]
        assert len(accepted) == metrics.sessions_accepted

    def test_each_certificate_is_verified_once_per_cell(self, verify_calls):
        cfg = SimConfig(duration_s=8.0)
        metrics = run_sim(cfg, seed=1)
        assert metrics.sessions_attempted > cfg.rsu_count
        assert len(verify_calls) <= cfg.rsu_count

    def test_delays_live_in_plausible_band(self):
        metrics = run_sim(SMALL, seed=3)
        assert 1e-4 <= metrics.avg_delay_s <= 1e-1


class TestTrends:
    def test_loss_non_decreasing_in_load(self):
        # single runs are noisy at this scale; the trend contract is on
        # the mean across seeds
        losses = []
        for load in (2, 10, 30):
            cfg = dataclasses.replace(SMALL, obus_per_rsu=load)
            runs = [run_sim(cfg, seed=s).packet_loss_ratio for s in range(5)]
            losses.append(sum(runs) / len(runs))
        assert losses[0] <= losses[1] <= losses[2]

    def test_delay_orders_by_alpha(self):
        delays = {}
        for alpha in (2, 4, 5):
            cfg = dataclasses.replace(SMALL, alpha=alpha, mu=5)
            delays[alpha] = run_sim(cfg, seed=8).avg_delay_s
        assert delays[2] < delays[4] < delays[5]


class TestSweep:
    def test_rows_and_csv(self):
        rows = sweep(SMALL, "load", (2, 4), seed=9)
        assert [(r.alpha, r.load) for r in rows] == [
            (2, 2), (2, 4), (4, 2), (4, 4), (5, 2), (5, 4)
        ]
        csv = sweep_csv(rows, "load")
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,sweep_value,avg_delay_s,loss_ratio,attempted,accepted"
        assert len(lines) == 7
        assert lines[1].startswith("2,2,")

    def test_unknown_dimension(self):
        with pytest.raises(InvalidConfig):
            sweep(SMALL, "weather", (1,), seed=1)

    def test_speed_sweep_uses_speed_column(self):
        rows = sweep(SMALL, "speed", (14.0,), seed=9)
        lines = sweep_csv(rows, "speed").strip().split("\n")
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["2", "14.0"], ["4", "14.0"], ["5", "14.0"]
        ]


def _observations_verify(transcript, credential, h) -> bool:
    """Every logged verifier proof re-verifies, round by round, against the
    member's witnesses."""
    m = credential.modulus
    for obs in transcript.bundle_observations:
        witnesses = [credential.pool_witnesses[i - 1] for i in obs.secret_ids]
        if len(obs.rounds) != h or not all(
            rd.w % m and zkp.verify_round(rd.w, rd.challenge, rd.y, witnesses, m)
            for rd in obs.rounds
        ):
            return False
    return True


class TestReverify:
    def test_kept_transcripts_reverify(self, monkeypatch):
        metrics, sessions = _run_logged(monkeypatch, SMALL, seed=4)
        checked = 0
        for obu, result, transcript in sessions:
            if result.outcome.value != "Accepted":
                continue
            assert len(transcript.bundle_observations) == SMALL.mu
            assert _observations_verify(transcript, obu.credential, SMALL.h)
            checked += 1
        assert checked == metrics.sessions_accepted > 0

    def test_reverify_catches_wrong_witnesses(self, monkeypatch):
        cfg = dataclasses.replace(SMALL, obus_per_rsu=2)
        _metrics, sessions = _run_logged(monkeypatch, cfg, seed=10)
        accepted = [t for _obu, r, t in sessions if r.outcome.value == "Accepted"]
        assert accepted
        from conftest import build_deployment

        foreign = build_deployment(99, n=cfg.n, k=cfg.k).obu_creds[0]
        assert not _observations_verify(accepted[0], foreign, cfg.h)
