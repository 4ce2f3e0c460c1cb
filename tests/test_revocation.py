import hashlib
import signal
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonauth import revocation
from anonauth.numtheory import Rng
from anonauth.protocol import Outcome, SessionConfig, run_full_session
from anonauth.revocation import (
    Match,
    ParameterOverflow,
    RevocationEntry,
    RevocationTable,
    advance_counter,
    broadcast_revocation,
    decode_broadcast,
    encode_broadcast,
    garble_witnesses,
    next_sequence,
    screen_session,
)
from conftest import build_deployment


class TestNextSequence:
    def test_deterministic(self):
        assert next_sequence(7, 0, 4, 2, 2) == next_sequence(7, 0, 4, 2, 2)

    def test_structure(self):
        seq = next_sequence(7, 0, 6, 3, 5)
        assert len(seq) == 5
        assert len(set(seq)) == 5
        for block in seq:
            assert len(block) == 3 == len(set(block))
            assert block == tuple(sorted(block))
            assert all(1 <= i <= 6 for i in block)

    def test_counter_avalanche(self):
        # with n=6, k=3, mu=3 there are 20*19*18 = 6840 possible sequences,
        # so two independent counters coincide with probability ~1.5e-4
        rng = Rng(5)
        differing = 0
        for _ in range(1000):
            iv = rng.randbits(64)
            if next_sequence(iv, 0, 6, 3, 3) != next_sequence(iv, 1, 6, 3, 3):
                differing += 1
        assert differing >= 997

    def test_overflow(self):
        with pytest.raises(ParameterOverflow):
            next_sequence(7, 0, 2, 2, 2)

    def test_max_mu_enumerates_all_subsets(self):
        seq = next_sequence(7, 0, 4, 2, comb(4, 2))
        assert len(set(seq)) == 6

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            next_sequence(7, 0, 2, 3, 1)
        with pytest.raises(ValueError):
            next_sequence(7, 0, 4, 2, 0)


@pytest.fixture
def alarm():
    """Turns a draw that never ends into a failure after 5 s."""

    def _timeout(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestPoolSizeBound:
    """Above 2^16 ids no 16-bit value lies below the rejection span."""

    def test_next_sequence_rejects_n_above_bound(self, alarm):
        with pytest.raises(ValueError):
            next_sequence(1, 0, 70_000, 1, 1)
        assert len(set(next_sequence(1, 0, 1 << 16, 2, 3))) == 3

    def test_session_config_rejects_n_above_bound(self, alarm):
        with pytest.raises(ValueError):
            config = SessionConfig(alpha=1, mu=1, k=1, h=1, n=70_000, serv_id="INFO")
            next_sequence(1, 0, config.n, config.k, config.mu)
        SessionConfig(alpha=1, mu=1, k=1, h=1, n=1 << 16, serv_id="INFO")


class _OldPrfStream:
    """The byte-at-a-time stream ``_draw_block`` used to read, kept as the
    reference its digest-at-a-time loop must match."""

    def __init__(self, iv, counter, block_index, redraw):
        self._prefix = (
            b"seq-prf"
            + iv.to_bytes(8, "big")
            + counter.to_bytes(8, "big")
            + block_index.to_bytes(4, "big")
            + redraw.to_bytes(4, "big")
        )
        self._chunk = 0
        self._buf = b""

    def next_byte(self):
        if not self._buf:
            self._buf = hashlib.sha256(self._prefix + self._chunk.to_bytes(4, "big")).digest()
            self._chunk += 1
        b, self._buf = self._buf[0], self._buf[1:]
        return b

    def next_id(self, n):
        span = 256 - (256 % n)
        while True:
            b = self.next_byte()
            if n <= 256:
                if b < span:
                    return 1 + (b % n)
            else:
                v = b << 8 | self.next_byte()
                if v < 65536 - (65536 % n):
                    return 1 + (v % n)


def _old_draw_block(iv, counter, block_index, redraw, n, k):
    stream = _OldPrfStream(iv, counter, block_index, redraw)
    ids = set()
    while len(ids) < k:
        ids.add(stream.next_id(n))
    return tuple(sorted(ids))


class TestDrawBlockReference:
    @settings(max_examples=400, deadline=None)
    @given(
        iv=st.integers(0, 2**64 - 1),
        counter=st.integers(0, 2**32),
        block_index=st.integers(0, 6),
        redraw=st.integers(0, 3),
        n=st.one_of(st.integers(1, 300), st.integers(257, 5000)),
        k=st.integers(1, 12),
    )
    def test_matches_byte_stream(self, iv, counter, block_index, redraw, n, k):
        k = min(k, n)
        assert revocation._draw_block(iv, counter, block_index, redraw, n, k) == _old_draw_block(
            iv, counter, block_index, redraw, n, k
        )


class TestCounter:
    def test_accepted_session_advances(self):
        dep = build_deployment(5, n=6, k=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=2, k=2, h=1, n=6, serv_id="INFO")
        assert obu.credential.counter == 0
        result, _ = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.ACCEPTED
        assert obu.credential.counter == 1

    def test_rejected_session_does_not_advance(self):
        dep = build_deployment(5, n=6, k=2)
        rsu = dep.make_rsu(1, policy={"INFO": 5})
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=2, k=2, h=1, n=6, serv_id="INFO")
        result, _ = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.REJECTED_POLICY
        assert obu.credential.counter == 0

    def test_many_sessions(self):
        dep = build_deployment(5, n=6, k=2, stub=True)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=2, k=2, h=1, n=6, serv_id="INFO")
        for _ in range(100):
            result, _ = run_full_session(obu, rsu, cfg)
            assert result.outcome is Outcome.ACCEPTED
        assert obu.credential.counter == 100

    def test_advance_is_exactly_one(self):
        dep = build_deployment(5, n=6, k=2)
        cred = dep.obu_creds[0]
        advance_counter(cred)
        assert cred.counter == 1


class TestBroadcast:
    def test_all_tables_updated(self):
        tables = [RevocationTable() for _ in range(10)]
        broadcast_revocation(42, 3, tables, reason="violation")
        for t in tables:
            assert t.entries[42].last_known_counter == 3
        assert len({tuple(t.entries) for t in tables}) == 1

    def test_idempotent_entry_versioned_writes(self):
        table = RevocationTable()
        broadcast_revocation(42, 3, [table])
        broadcast_revocation(42, 3, [table])
        assert len(table.entries) == 1
        assert table.version == 2

    def test_remove(self):
        table = RevocationTable()
        broadcast_revocation(42, 0, [table])
        table.remove(42)
        assert not table.entries and table.version == 2

    def test_record_round_trip(self):
        text = encode_broadcast(42, 3, "violation", 7)
        assert decode_broadcast(text) == (42, 3, "violation", 7)

    def test_bad_record_rejected(self):
        with pytest.raises(ValueError):
            decode_broadcast('{"kind": "something_else"}')


class TestScreening:
    def test_match_with_counter_drift(self):
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=99, last_known_counter=5))
        # violator authenticated 3 more times elsewhere
        observed = next_sequence(99, 8, 6, 2, 3)
        match = screen_session(table, observed, 6, 2, window=10)
        assert match == Match(iv=99, counter=8)

    def test_drift_beyond_window_missed(self):
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=99, last_known_counter=5))
        observed = next_sequence(99, 20, 6, 2, 3)
        assert screen_session(table, observed, 6, 2, window=10) is None

    def test_empty_table_is_no_match(self):
        assert screen_session(RevocationTable(), [(1, 2)], 6, 2) is None

    def test_never_matches_absent_iv(self):
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=99, last_known_counter=0))
        rng = Rng(3)
        for _ in range(200):
            iv = rng.randbits(63) | (1 << 62)  # never equal to 99
            observed = next_sequence(iv, rng.randrange(0, 50), 15, 5, 5)
            match = screen_session(table, observed, 15, 5, window=20)
            assert match is None or match.iv == 99

    def test_cache_invalidated_on_table_change(self):
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=99, last_known_counter=0))
        observed = next_sequence(7, 0, 6, 2, 3)
        assert screen_session(table, observed, 6, 2, window=5) is None
        table.upsert(RevocationEntry(iv=7, last_known_counter=0))
        assert screen_session(table, observed, 6, 2, window=5) == Match(iv=7, counter=0)


def _reference_screen(table, observed_sets, n, k, window):
    """The from-scratch build: every entry's window in table order, first
    (entry, counter) kept per sequence."""
    index = {}
    for entry in table.entries.values():
        for c in range(entry.last_known_counter, entry.last_known_counter + window + 1):
            seq = next_sequence(entry.iv, c, n, k, len(observed_sets))
            index.setdefault(seq, Match(iv=entry.iv, counter=c))
    return index.get(tuple(tuple(sorted(s)) for s in observed_sets))


# n=5, k=2 has 10 blocks, so windows repeat sequences and ivs share them
_N, _K = 5, 2
_ops = st.one_of(
    st.tuples(st.just("upsert"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.just("remove"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("screen"), st.integers(0, 4), st.integers(0, 9)),
)


class TestIncrementalIndex:
    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(0, 5), mu=st.integers(1, 2), ops=st.lists(_ops, max_size=30))
    # a window of 30 holds all ten mu=1 sequences; once the index is built,
    # iv 0's re-upsert keeps its place ahead of iv 1, so iv 0 still owns all
    @example(window=30, mu=1, ops=[("upsert", 0, 0), ("upsert", 1, 0), ("screen", 2, 0),
                                   ("upsert", 0, 1), ("screen", 2, 0), ("screen", 3, 0)])
    def test_matches_from_scratch_build(self, window, mu, ops):
        table = RevocationTable()
        for op, iv, value in ops:
            if op == "upsert":  # a re-upsert keeps the iv's place in the table
                table.upsert(RevocationEntry(iv=iv, last_known_counter=value))
            elif op == "remove":
                table.remove(iv)
            else:
                observed = next_sequence(iv, value, _N, _K, mu)
                expected = _reference_screen(table, observed, _N, _K, window)
                assert screen_session(table, observed, _N, _K, window=window) == expected

    def test_remove_iv_whose_window_repeats_a_sequence(self):
        window = 5
        iv = next(
            iv for iv in range(100)
            if len({next_sequence(iv, c, _N, _K, 1) for c in range(window + 1)}) <= window
        )
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=iv, last_known_counter=0))
        probe = next_sequence(iv, 0, _N, _K, 1)
        assert screen_session(table, probe, _N, _K, window=window) == Match(iv=iv, counter=0)
        table.remove(iv)
        table.upsert(RevocationEntry(iv=iv + 1, last_known_counter=0))
        expected = _reference_screen(table, probe, _N, _K, window)
        assert screen_session(table, probe, _N, _K, window=window) == expected

    def test_sequence_cost_per_change(self, monkeypatch):
        calls = []
        original = revocation.next_sequence

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(revocation, "next_sequence", counted)
        n, k, window = 15, 3, 10
        table = RevocationTable()
        for iv in range(8):
            table.upsert(RevocationEntry(iv=iv, last_known_counter=iv))
        assert not calls  # nothing is built before the first screen
        hit = original(3, 5, n, k, 3)
        assert screen_session(table, hit, n, k, window=window) == Match(iv=3, counter=5)
        assert len(calls) == 8 * (window + 1)

        def cost(change):
            calls.clear()
            change()
            return len(calls)

        assert cost(lambda: table.upsert(RevocationEntry(iv=99, last_known_counter=0))) == window + 1
        assert cost(lambda: table.upsert(RevocationEntry(iv=3, last_known_counter=40))) == window + 1
        assert cost(lambda: table.remove(5)) == 0
        assert cost(lambda: screen_session(table, hit, n, k, window=window)) == 0
        miss = original(1234, 0, n, k, 3)
        assert cost(lambda: screen_session(table, miss, n, k, window=window)) == 0

    def test_broadcast_computes_each_window_once(self, monkeypatch):
        calls = []
        original = revocation.next_sequence

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(revocation, "next_sequence", counted)
        n, k, window = 15, 3, 10
        miss = original(1234, 0, n, k, 3)
        tables = [RevocationTable() for _ in range(10)]
        for table in tables:
            table.upsert(RevocationEntry(iv=1, last_known_counter=0))
            screen_session(table, miss, n, k, window=window)  # warm: index built
        calls.clear()
        broadcast_revocation(7, 2, tables)
        assert len(calls) == window + 1
        hit = original(7, 4, n, k, 3)
        for table in tables:
            assert screen_session(table, hit, n, k, window=window) == Match(iv=7, counter=4)
        # a table screening with other parameters gets its own window; a
        # cold table computes none until its first screen
        other, cold = RevocationTable(), RevocationTable()
        other.upsert(RevocationEntry(iv=1, last_known_counter=0))
        screen_session(other, miss, n, k, window=window + 1)
        calls.clear()
        broadcast_revocation(8, 0, tables + [other, cold])
        assert len(calls) == (window + 1) + (window + 2)


class TestEndToEndRevocation:
    def _setup(self, seed=11):
        dep = build_deployment(seed, n=6, k=2, obus=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2, index=0)
        cfg = SessionConfig(alpha=1, mu=3, k=2, h=2, n=6, serv_id="INFO")
        return dep, rsu, obu, cfg

    def test_revoked_obu_denied_before_any_proof(self):
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        result, transcript = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.REJECTED_REVOKED
        assert transcript.membership_proof is None
        assert not transcript.bundle_observations

    def test_unflagged_co_member_still_authenticates(self):
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        run_full_session(obu, rsu, cfg)
        peer = dep.make_obu(3, index=1)
        result, _ = run_full_session(peer, rsu, cfg)
        assert result.outcome is Outcome.ACCEPTED

    def test_garble_applies_to_flagged_track(self):
        dep, rsu, obu, cfg = self._setup()
        gid, iv = obu.credential.group_id, obu.credential.iv
        broadcast_revocation(iv, 0, [rsu.table])
        run_full_session(obu, rsu, cfg)
        assert (gid, iv) in rsu.garbled_tracks
        assert rsu.master_witnesses_for(gid, iv) != rsu.master_witnesses_for(gid)

    def test_denial_survives_rsu_restart(self):
        # the table is the durable state; a fresh verifier instance holding
        # it re-screens and re-garbles on the next session
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        run_full_session(obu, rsu, cfg)
        restarted = dep.make_rsu(9, table=rsu.table)
        result, _ = run_full_session(obu, restarted, cfg)
        assert result.outcome is Outcome.REJECTED_REVOKED

    def test_broadcast_during_in_flight_session(self):
        dep, rsu, obu, cfg = self._setup()
        beacon = rsu.beacon()
        request = obu.start(beacon, cfg)
        key_id = rsu.register_session(request, cfg)
        obu.bind(key_id)
        assert rsu.negotiate_privacy(key_id, cfg.alpha) == cfg.alpha
        # revocation lands after registration but before the screening point
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        sets = obu.choose_proof_sets(cfg)
        match = rsu.receive_proof_sets(key_id, sets)
        assert match is not None and match.iv == obu.credential.iv


class TestGarbleWitnesses:
    def test_units_of_requested_size(self, m21):
        out = garble_witnesses(4, m21.m, Rng(2))
        assert len(out) == 4
        from math import gcd

        assert all(gcd(v, 21) == 1 for v in out)


def test_sequences_feed_bundle_distinctness():
    # coherence between the generator and the proof-set chooser
    dep = build_deployment(13, n=6, k=2)
    obu = dep.make_obu(1)
    cfg = SessionConfig(alpha=1, mu=4, k=2, h=1, n=6, serv_id="INFO")
    sets = obu.choose_proof_sets(cfg)
    assert sets == revocation.next_sequence(
        obu.credential.iv, obu.credential.counter, 6, 2, 4
    )
