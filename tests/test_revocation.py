import copy
import hashlib
import json
from math import comb, perm, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonauth import revocation
from anonauth.analysis import p_missed_mu_factors
from anonauth.numtheory import Rng
from anonauth.protocol import Outcome, SessionConfig, run_full_session
from anonauth.revocation import (
    DEFAULT_SEARCH_WINDOW,
    Match,
    ParameterOverflow,
    RevocationEntry,
    RevocationTable,
    broadcast_revocation,
    encode_broadcast,
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


class TestSixtyFourBitInputs:
    @pytest.mark.parametrize(
        "iv,counter", [(1 << 64, 0), (-1, 0), (7, 1 << 64), (7, -1)],
        ids=["iv-past", "iv-negative", "counter-past", "counter-negative"],
    )
    def test_next_sequence_rejects_values_past_64_bits(self, iv, counter):
        with pytest.raises(revocation.CounterOverflow):
            next_sequence(iv, counter, 6, 2, 3)

    def test_the_last_values_still_draw(self):
        last = revocation.COUNTER_LIMIT - 1
        assert len(set(next_sequence(last, last, 6, 2, 3))) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        iv=st.integers(0, 2**64 - 1),
        counter=st.integers(0, 2**64 - 1),
        block=st.integers(0, 2**32 - 1),
        redraw=st.integers(0, 2**32 - 1),
    )
    def test_packed_prefix_is_the_joined_bytes(self, iv, counter, block, redraw):
        joined = (
            b"seq-prf"
            + iv.to_bytes(8, "big")
            + counter.to_bytes(8, "big")
            + block.to_bytes(4, "big")
            + redraw.to_bytes(4, "big")
        )
        assert revocation._PRF_PREFIX.pack(b"seq-prf", iv, counter, block, redraw) == joined


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


class TestHead:
    @settings(max_examples=300, deadline=None)
    @given(
        iv=st.integers(0, 2**64 - 1),
        counter=st.integers(0, 2**64 - 1),
        n=st.one_of(st.integers(1, 256), st.integers(257, 5000)),
        k=st.integers(1, 8),
        mu=st.integers(1, 8),
    )
    @example(iv=0, counter=2**64 - 1, n=2**16, k=3, mu=2)
    def test_is_the_first_block_for_every_mu(self, iv, counter, n, k, mu):
        k = min(k, n)
        mu = min(mu, comb(n, k))
        assert revocation._head(iv, counter, n, k) == next_sequence(iv, counter, n, k, mu)[0]


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
        # the member moves its own counter when it accepts a bundle
        dep = build_deployment(5, n=6, k=2, stub=True)
        rsu, obu = dep.make_rsu(1), dep.make_obu(2)
        cfg = SessionConfig(alpha=1, mu=2, k=2, h=1, n=6, serv_id="INFO")
        key_id = rsu.register_session(obu.start(rsu.beacon(), cfg), cfg)
        obu.key_id = key_id
        assert rsu.negotiate_privacy(key_id) == 1
        assert rsu.receive_proof_sets(key_id, obu.choose_proof_sets()) is None
        challenges = rsu.challenge_membership(key_id, obu.prove_membership())
        assert rsu.check_membership_proof(key_id, obu.answer_membership(challenges))
        challenges = obu.challenge_bundle(rsu.generate_proof_bundle(key_id))
        answers = rsu.answer_bundle(key_id, challenges)
        # a copy of the member judges an empty answer, and the member the real one
        empty = obu.sym.seal(obu.session_key, b"", rsu.rng)
        rejected = copy.copy(obu).verify_bundle(empty)
        assert rejected.outcome is Outcome.REJECTED_INSUFFICIENT_PROOFS
        assert obu.credential.counter == 0
        assert obu.verify_bundle(answers).outcome is Outcome.ACCEPTED
        assert obu.credential.counter == 1


class TestBroadcast:
    def test_all_tables_updated(self):
        tables = [RevocationTable() for _ in range(10)]
        broadcast_revocation(42, 3, tables)
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

    @pytest.mark.parametrize(
        "iv, counter", [(-1, 0), (1 << 64, 0), (42, -1), (42, 1 << 64)],
        ids=["negative-iv", "wide-iv", "negative-counter", "wide-counter"],
    )
    def test_out_of_range_entry_changes_no_table(self, iv, counter):
        table = RevocationTable()
        broadcast_revocation(7, 0, [table])
        screen_session(table, next_sequence(8, 0, 6, 2, 3), 6, 2)  # builds the index
        with pytest.raises(ValueError, match="64-bit"):
            broadcast_revocation(iv, counter, [table])
        assert table.version == 1 and list(table.entries) == [7]

    def test_last_counter_window_stops_at_the_64_bit_bound(self):
        table = RevocationTable()
        top = (1 << 64) - 1
        broadcast_revocation(42, top - 2, [table])
        observed = next_sequence(42, top, 6, 2, 3)
        assert screen_session(table, observed, 6, 2, window=10) == Match(iv=42, counter=top)

    def test_record_round_trip(self):
        assert json.loads(encode_broadcast(42, 3, "violation", 7)) == {
            "format_version": 1,
            "kind": "revocation_broadcast",
            "iv": "42",
            "counter_hint": 3,
            "reason": "violation",
            "version": 7,
        }


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

    def test_honest_members_share_a_revoked_windows_sequences(self):
        # a limit of screening, not a target: it refuses every member whose
        # sequence is one of a revoked entry's window + 1, so at the protocol
        # tests' n = 6, k = 2, mu = 2 one entry refuses d of every 210 honest
        # members, d the distinct sequences in its window
        n, k, mu, trials = 6, 2, 2, 2000
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=1001, last_known_counter=0))
        window = DEFAULT_SEARCH_WINDOW + 1
        d = len({next_sequence(1001, c, n, k, mu) for c in range(window)})
        p = d / perm(comb(n, k), mu)
        refused = sum(
            screen_session(table, next_sequence(iv, 0, n, k, mu), n, k) is not None
            for iv in range(2000, 2000 + trials)
        )
        assert abs(refused / trials - p) <= 3 * sqrt(p * (1 - p) / trials)
        assert p <= window * p_missed_mu_factors(n, k, mu)

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
    @given(window=st.integers(0, 5), mu=st.integers(1, 3), ops=st.lists(_ops, max_size=30))
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

    def test_sequence_cost_per_change(self, cost):
        n, k, window = 15, 3, 10
        table = RevocationTable()
        for iv in range(8):
            table.upsert(RevocationEntry(iv=iv, last_known_counter=iv))
        assert cost.draws == cost.sequences == 0  # nothing is built before the first screen
        hit = next_sequence(3, 5, n, k, 3)
        assert cost(lambda: screen_session(table, hit, n, k, window=window)) == (
            8 * (window + 1), _confirmations(table, hit, n, k, window, Match(iv=3, counter=5)))

        assert cost(lambda: table.upsert(RevocationEntry(iv=99, last_known_counter=0))) == (
            window + 1, 0)
        assert cost(lambda: table.upsert(RevocationEntry(iv=3, last_known_counter=40))) == (
            window + 1, 0)
        assert cost(lambda: table.remove(5)) == (0, 0)
        hit = next_sequence(3, 45, n, k, 3)
        assert screen_session(table, hit, n, k, window=window) == Match(iv=3, counter=45)
        assert cost(lambda: screen_session(table, hit, n, k, window=window)) == (
            0, _confirmations(table, hit, n, k, window, Match(iv=3, counter=45)))
        miss = next_sequence(1234, 0, n, k, 3)
        assert not _head_candidates(table, miss, n, k, window)  # its head starts no window
        assert cost(lambda: screen_session(table, miss, n, k, window=window)) == (0, 0)

    def test_broadcast_draws_each_warm_tables_window(self, cost):
        n, k, window = 15, 3, 10
        miss = next_sequence(1234, 0, n, k, 3)
        tables = [RevocationTable() for _ in range(10)]
        for table in tables:
            table.upsert(RevocationEntry(iv=1, last_known_counter=0))
            screen_session(table, miss, n, k, window=window)  # warm: index built
        assert cost(lambda: broadcast_revocation(7, 2, tables)) == (10 * (window + 1), 0)
        hit = next_sequence(7, 4, n, k, 3)
        confirmations = _confirmations(tables[0], hit, n, k, window, Match(iv=7, counter=4))
        for table in tables:
            assert cost(lambda: screen_session(table, hit, n, k, window=window)) == (
                0, confirmations)
            assert screen_session(table, hit, n, k, window=window) == Match(iv=7, counter=4)
        # a table screening with other parameters draws its own window; a
        # cold table draws none until its first screen
        other, cold = RevocationTable(), RevocationTable()
        other.upsert(RevocationEntry(iv=1, last_known_counter=0))
        screen_session(other, miss, n, k, window=window + 1)
        assert cost(lambda: broadcast_revocation(8, 0, tables + [other, cold])) == (
            10 * (window + 1) + (window + 2), 0)
        assert cost(lambda: broadcast_revocation(9, 0, [cold])) == (0, 0)

    def test_one_index_serves_every_mu(self, cost):
        # a head is block 0, which mu does not change: members announcing
        # 5 and 6 sets in turn share one build of 8 entries' 65 heads
        n, k = 50, 5
        table = RevocationTable()
        for iv in range(8):
            table.upsert(RevocationEntry(iv=iv, last_known_counter=0))
        screens = [next_sequence(1000 + i, 0, n, k, mu) for i, mu in enumerate((5, 6, 5, 6))]
        draws = [cost(lambda: screen_session(table, seen, n, k))[0] for seen in screens]
        assert draws == [8 * (revocation.DEFAULT_SEARCH_WINDOW + 1), 0, 0, 0]
        for mu, counter in ((5, 3), (6, 9), (5, 9)):
            hit = next_sequence(4, counter, n, k, mu)
            assert cost(lambda: screen_session(table, hit, n, k))[0] == 0
            assert screen_session(table, hit, n, k) == Match(iv=4, counter=counter)

    def test_shared_head_with_another_sequence_is_no_match(self, cost):
        n, k, mu = _N, _K, 2
        iv = next(
            iv for iv in range(1, 100)
            if _head(iv, 0, n, k) == _head(0, 0, n, k)
            and next_sequence(iv, 0, n, k, mu) != next_sequence(0, 0, n, k, mu)
        )
        table = RevocationTable()
        table.upsert(RevocationEntry(iv=0, last_known_counter=0))
        observed = next_sequence(iv, 0, n, k, mu)
        assert cost(lambda: screen_session(table, observed, n, k, window=0)) == (1, 1)
        assert screen_session(table, observed, n, k, window=0) is None


class _Cost:
    """Counts the screening index's own block draws and the full sequences
    drawn, separately: a sequence's draws count as that one sequence.
    ``cost(change)`` is the (draws, sequences) that ``change`` makes."""

    def __init__(self, monkeypatch):
        self.draws = self.sequences = 0
        draw, sequence = revocation._draw_block, revocation.next_sequence

        def counted_draw(*args):
            self.draws += 1
            return draw(*args)

        def counted_sequence(*args):
            self.sequences += 1
            draws = self.draws
            result = sequence(*args)
            self.draws = draws
            return result

        monkeypatch.setattr(revocation, "_draw_block", counted_draw)
        monkeypatch.setattr(revocation, "next_sequence", counted_sequence)

    def __call__(self, change):
        draws, sequences = self.draws, self.sequences
        change()
        return self.draws - draws, self.sequences - sequences


@pytest.fixture
def cost(monkeypatch):
    return _Cost(monkeypatch)


def _head(iv, counter, n, k):
    return next_sequence(iv, counter, n, k, 1)[0]


def _head_candidates(table, observed, n, k, window):
    """Every (iv, counter) in table order, counters ascending, whose
    sequence starts with ``observed``'s first block."""
    return [
        Match(iv=entry.iv, counter=c)
        for entry in table.entries.values()
        for c in range(entry.last_known_counter, entry.last_known_counter + window + 1)
        if _head(entry.iv, c, n, k) == observed[0]
    ]


def _confirmations(table, observed, n, k, window, match):
    """The full sequences a lookup draws to find ``match``: one per head
    candidate up to and including it."""
    return _head_candidates(table, observed, n, k, window).index(match) + 1


class TestEndToEndRevocation:
    def _setup(self, seed=11):
        dep = build_deployment(seed, n=6, k=2, obus_per_group=2)
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2, index=0)
        cfg = SessionConfig(alpha=1, mu=3, k=2, h=2, n=6, serv_id="INFO")
        return dep, rsu, obu, cfg

    def test_revoked_obu_denied_before_any_proof(self, transcript_builds):
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        result, transcript = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.REJECTED_REVOKED
        assert not transcript_builds  # nothing is built until the transcript is read
        assert len(transcript.frames) == 3  # beacon, request, sets: no proof sent
        assert not transcript.bundle_observations
        assert transcript_builds == {"frames": 3}

    def test_unflagged_co_member_still_authenticates(self):
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        run_full_session(obu, rsu, cfg)
        peer = dep.make_obu(3, index=1)
        result, _ = run_full_session(peer, rsu, cfg)
        assert result.outcome is Outcome.ACCEPTED

    def test_flagged_track_leaves_no_session(self):
        # a screening match decides the session: nothing of it stays, while
        # a co-member's session in flight keeps its place
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        peer = dep.make_obu(3, index=1)
        peer_key = rsu.register_session(peer.start(rsu.beacon(), cfg), cfg)
        result, flagged = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.REJECTED_REVOKED
        assert flagged.key_id not in rsu.sessions
        assert list(rsu.sessions) == [peer_key]

    def test_denial_survives_rsu_restart(self):
        # the table is the durable state; a fresh verifier instance holding
        # it re-screens on the next session
        dep, rsu, obu, cfg = self._setup()
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        run_full_session(obu, rsu, cfg)
        restarted = dep.make_rsu(9)
        restarted.table = rsu.table
        result, _ = run_full_session(obu, restarted, cfg)
        assert result.outcome is Outcome.REJECTED_REVOKED

    def test_honest_session_whose_head_collides_is_accepted(self, cost):
        dep, rsu, obu, cfg = self._setup()
        cred, counters = obu.credential, range(revocation.DEFAULT_SEARCH_WINDOW + 1)
        observed = next_sequence(cred.iv, cred.counter, cfg.n, cfg.k, cfg.mu)
        # a revoked iv whose window starts sequences with the member's first
        # block, though no sequence in it is the member's
        iv = next(
            iv for iv in range(1, 100)
            if any(_head(iv, c, cfg.n, cfg.k) == observed[0] for c in counters)
            and all(next_sequence(iv, c, cfg.n, cfg.k, cfg.mu) != observed for c in counters)
        )
        broadcast_revocation(iv, 0, [rsu.table])
        candidates = sum(_head(iv, c, cfg.n, cfg.k) == observed[0] for c in counters)
        draws, sequences = cost.draws, cost.sequences
        result, _ = run_full_session(obu, rsu, cfg)
        assert result.outcome is Outcome.ACCEPTED
        # the member draws its own sequence once; screening draws the index's
        # heads and confirms each candidate with its full sequence
        assert (cost.draws - draws, cost.sequences - sequences) == (len(counters), 1 + candidates)

    def test_broadcast_during_in_flight_session(self):
        dep, rsu, obu, cfg = self._setup()
        beacon = rsu.beacon()
        request = obu.start(beacon, cfg)
        key_id = rsu.register_session(request, cfg)
        obu.key_id = key_id
        assert rsu.negotiate_privacy(key_id) == cfg.alpha
        # revocation lands after registration but before the screening point
        broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        match = rsu.receive_proof_sets(key_id, obu.choose_proof_sets())
        assert match is not None and match.iv == obu.credential.iv
        assert key_id not in rsu.sessions


def test_sequences_feed_bundle_distinctness():
    # coherence between the generator and the proof-set chooser
    dep = build_deployment(13, n=6, k=2)
    rsu, obu = dep.make_rsu(2), dep.make_obu(1)
    cfg = SessionConfig(alpha=1, mu=4, k=2, h=1, n=6, serv_id="INFO")
    obu.start(rsu.beacon(), cfg)
    obu.choose_proof_sets()
    assert obu.sets == revocation.next_sequence(
        obu.credential.iv, obu.credential.counter, 6, 2, 4
    )
