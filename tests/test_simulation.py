import dataclasses
import math

import pytest

from anonauth import protocol, zkp
from anonauth.simulation import (
    ALPHA_PACKET_BYTES,
    COMM_RANGE_M,
    DEFAULT_GRID_LOADS,
    DEFAULT_GRID_SPEEDS,
    RSU_COUNT,
    RSU_SPACING_M,
    SESSIONS,
    InvalidConfig,
    SimConfig,
    run_sim,
    sweep,
    sweep_csv,
)


SMALL = SimConfig(obus_per_rsu=4, duration_s=24.0)


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
    def test_only_the_swept_axes_are_settable(self):
        # a further field needs a caller outside the tests that sets it
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "obus_per_rsu", "speed_mps", "alpha", "duration_s"
        ]

    def test_unmapped_alpha_rejected(self):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, alpha=3)

    @pytest.mark.parametrize(
        "change",
        [
            {"obus_per_rsu": -1},
            # each used to run with 0 sessions and 0 packets
            {"duration_s": -5.0},
            {"duration_s": 0.0},
            {"duration_s": math.nan},
            {"speed_mps": math.nan},
        ],
    )
    def test_parameters_that_admit_no_session_rejected(self, change):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(SMALL, **change)

    def test_one_session_config_per_packet_size(self):
        assert list(SESSIONS) == list(ALPHA_PACKET_BYTES)
        assert all(
            (s.alpha, s.mu, s.k, s.h, s.n) == (alpha, 5, 2, 2, 8) for alpha, s in SESSIONS.items()
        )

    def test_every_point_of_the_ring_is_in_range(self):
        # the nearest verifier is at most half the spacing away
        assert RSU_SPACING_M / 2 < COMM_RANGE_M

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
        assert metrics.sessions_attempted > RSU_COUNT
        assert len(verify_calls) <= RSU_COUNT

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
            cfg = dataclasses.replace(SMALL, alpha=alpha)
            delays[alpha] = run_sim(cfg, seed=8).avg_delay_s
        assert delays[2] < delays[4] < delays[5]


class TestSweep:
    SHORT = dataclasses.replace(SMALL, duration_s=4.0)  # every sweep runs the full grid

    def test_rows_and_csv(self):
        rows = sweep(self.SHORT, "load", seed=9)
        assert [(r.alpha, r.load) for r in rows] == [
            (alpha, load) for alpha in (2, 4, 5) for load in DEFAULT_GRID_LOADS
        ]
        csv = sweep_csv(rows, "load")
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,sweep_value,avg_delay_s,loss_ratio,attempted,accepted"
        assert len(lines) == 1 + 3 * len(DEFAULT_GRID_LOADS)
        assert lines[1].startswith("2,5,")

    def test_unknown_dimension(self):
        with pytest.raises(InvalidConfig):
            sweep(self.SHORT, "weather", seed=1)

    def test_speed_sweep_uses_speed_column(self):
        rows = sweep(self.SHORT, "speed", seed=9)
        lines = sweep_csv(rows, "speed").strip().split("\n")
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [str(alpha), str(speed)] for alpha in (2, 4, 5) for speed in DEFAULT_GRID_SPEEDS
        ]


def _observations_verify(transcript, credential, h) -> bool:
    """Every logged verifier proof re-verifies, round by round, against the
    member's witnesses."""
    m = credential.modulus
    for obs in transcript.bundle_observations:
        witnesses = [credential.pool_witnesses[i - 1] for i in obs.secret_ids]
        if len(obs.rounds) != h or not all(
            zkp.verify_round(rd.w, rd.challenge, rd.y, witnesses, m) for rd in obs.rounds
        ):
            return False
    return True


class TestReverify:
    def test_kept_transcripts_reverify(self, monkeypatch):
        session = SESSIONS[SMALL.alpha]
        metrics, sessions = _run_logged(monkeypatch, SMALL, seed=4)
        checked = 0
        for obu, result, transcript in sessions:
            if result.outcome.value != "Accepted":
                continue
            assert len(transcript.bundle_observations) == session.mu
            assert _observations_verify(transcript, obu.credential, session.h)
            checked += 1
        assert checked == metrics.sessions_accepted > 0

    def test_reverify_catches_wrong_witnesses(self, monkeypatch):
        cfg = dataclasses.replace(SMALL, obus_per_rsu=2)
        _metrics, sessions = _run_logged(monkeypatch, cfg, seed=10)
        accepted = [t for _obu, r, t in sessions if r.outcome.value == "Accepted"]
        assert accepted
        from conftest import build_deployment

        session = SESSIONS[cfg.alpha]
        foreign = build_deployment(99, n=session.n, k=session.k).obu_creds[0]
        assert not _observations_verify(accepted[0], foreign, session.h)
