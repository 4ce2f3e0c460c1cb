import dataclasses

import pytest

from anonauth import zkp
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

    def test_completed_sessions_run_the_real_protocol(self):
        cfg = dataclasses.replace(SMALL, keep_transcripts=True)
        metrics = run_sim(cfg, seed=2)
        assert metrics.sessions_accepted > 0
        assert len(metrics.transcripts) == (
            metrics.sessions_accepted + metrics.sessions_rejected
        )

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
        rows = sweep(SMALL, "load", (2, 4), seed=9, alphas=(2, 4))
        assert len(rows) == 4
        csv = sweep_csv(rows, "load")
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,sweep_value,avg_delay_s,loss_ratio,attempted,accepted"
        assert len(lines) == 5
        assert lines[1].startswith("2,2,")

    def test_unknown_dimension(self):
        with pytest.raises(InvalidConfig):
            sweep(SMALL, "weather", (1,), seed=1)

    def test_speed_sweep_uses_speed_column(self):
        rows = sweep(SMALL, "speed", (14.0,), seed=9, alphas=(2,))
        csv = sweep_csv(rows, "speed")
        assert csv.strip().split("\n")[1].startswith("2,14.0,")


def _observations_verify(transcript, credential, h) -> bool:
    """Every logged verifier proof re-verifies against the member's witnesses."""
    for obs in transcript.bundle_observations:
        witnesses = [credential.pool_witnesses[i - 1] for i in obs.secret_ids]
        if not zkp.verify(zkp.BASIC, obs, witnesses, credential.modulus, h):
            return False
    return True


class TestReverify:
    def test_kept_transcripts_reverify(self):
        from anonauth.simulation import _Sim

        cfg = dataclasses.replace(SMALL, keep_transcripts=True)
        sim = _Sim(cfg, seed=4)
        metrics = sim.run()
        checked = 0
        for obu_index, transcript in metrics.transcripts:
            if transcript.result.outcome.value != "Accepted":
                continue
            cred = sim.obus[obu_index].endpoint.credential
            assert len(transcript.bundle_observations) == cfg.mu
            assert _observations_verify(transcript, cred, cfg.h)
            checked += 1
        assert checked == metrics.sessions_accepted > 0

    def test_reverify_catches_wrong_witnesses(self):
        cfg = dataclasses.replace(SMALL, keep_transcripts=True, obus_per_rsu=2)
        metrics = run_sim(cfg, seed=10)
        accepted = [
            t for _idx, t in metrics.transcripts if t.result.outcome.value == "Accepted"
        ]
        assert accepted
        from conftest import build_deployment

        foreign = build_deployment(99, n=cfg.n, k=cfg.k).obu_creds[0]
        assert not _observations_verify(accepted[0], foreign, cfg.h)
