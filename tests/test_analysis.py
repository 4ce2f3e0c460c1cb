import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonauth import adversary, analysis, revocation
from anonauth.analysis import (
    CSV_HEADER,
    ParameterOverflow,
    ProbabilityReport,
    UnknownFigure,
    figure_csv,
    figure_series,
    log10_fraction,
    mc_bundle_cheater,
    mc_cheater,
    mc_leak,
    mc_sequence_collision,
    p_alpha,
    p_cheater,
    p_leak,
    p_missed,
    p_missed_mu_factors,
    p_mu,
    q_false,
    q_x,
)
from anonauth.numtheory import Rng
from conftest import mask_ids


class TestClosedForms:
    def test_p_cheater_examples(self):
        assert p_cheater(1, 1) == Fraction(1, 2)
        assert p_cheater(2, 2) == Fraction(1, 16)
        assert p_cheater(5, 4) == Fraction(1, 2**20)

    def test_p_cheater_domain(self):
        with pytest.raises(ValueError):
            p_cheater(0, 1)
        with pytest.raises(ValueError):
            p_cheater(1, 0)

    def test_p_mu_reduces_at_mu_one(self):
        assert p_mu(2, 1, 3, 1) == Fraction(1, 4 * 3) == Fraction(1, 12)

    def test_p_mu_compound(self):
        assert p_mu(2, 1, 3, 2) == Fraction(1, 12) ** 2

    def test_p_mu_headline_value(self):
        # k=5, h=4, n=50, mu=5 is the headline resilience operating point
        l10 = log10_fraction(p_mu(5, 4, 50, 5))
        assert l10 == pytest.approx(-61.73341, abs=1e-4)
        assert 10 ** (l10 + 62) == pytest.approx(1.85, abs=0.01)

    def test_p_mu_domain(self):
        with pytest.raises(ValueError):
            p_mu(5, 4, 3, 1)

    def test_p_alpha_is_p_mu_at_alpha_mu(self):
        for k, h, n, mu in [(1, 1, 3, 1), (2, 1, 3, 2), (2, 2, 4, 3), (3, 1, 5, 4), (1, 3, 2, 2)]:
            assert p_alpha(k, h, n, mu, mu) == p_mu(k, h, n, mu)

    def test_p_alpha_is_the_binomial_tail(self):
        # q = 1/24: at least one of two proofs passes
        assert p_alpha(2, 1, 4, 2, 1) == 1 - Fraction(23, 24) ** 2 == Fraction(47, 576)
        # q = 1/6: at least two of three
        q = Fraction(1, 6)
        assert p_alpha(1, 1, 3, 3, 2) == 3 * q**2 * (1 - q) + q**3

    def test_p_leak_examples(self):
        assert p_leak(6, 3, 1) == Fraction(1, 20)
        assert p_leak(6, 3, 5) == Fraction(5, 20)
        assert p_leak(6, 3, 20) == 1  # boundary: every subset requested

    def test_p_leak_overflow(self):
        with pytest.raises(ParameterOverflow):
            p_leak(4, 2, 7)

    def test_q_false_is_p_mu(self):
        assert q_false(3, 2, 10, 4) == p_mu(3, 2, 10, 4)

    def test_q_x_literal_example(self):
        # x=2, k=3, n=5, mu=1: 1 / (2^(2*2) * C(5,3)^1) = 1/160
        assert q_x(2, 3, 5, 1) == Fraction(1, 160)

    def test_q_x_discrepancy_with_q_false_is_preserved(self):
        # the printed x-member exponent structure does not reduce to the
        # two-member formula at x=2; both forms are kept as-is
        assert q_x(2, 3, 5, 1) != q_false(3, 1, 5, 1)

    def test_q_x_domain(self):
        with pytest.raises(ValueError):
            q_x(1, 3, 5, 1)

    def test_p_missed_literal_product(self):
        # n=3, k=2, mu=2: C=3, product 3*2*1
        assert p_missed(3, 2, 2) == Fraction(1, 6)
        # n=4, k=2, mu=2: C=6, product 6*5*4
        assert p_missed(4, 2, 2) == Fraction(1, 120)
        # mu = C - 1, the largest mu before a zero factor: 6!
        assert p_missed(4, 2, 5) == Fraction(1, 720)

    def test_p_missed_companion_reading(self):
        # mu factors only: 6*5
        assert p_missed_mu_factors(4, 2, 2) == Fraction(1, 30)
        # mu = C: every one of the 6 sets, in order
        assert p_missed_mu_factors(4, 2, 6) == Fraction(1, 720)

    def test_p_missed_overflow(self):
        with pytest.raises(ParameterOverflow):
            p_missed(3, 2, 3)
        with pytest.raises(ParameterOverflow):
            p_missed_mu_factors(3, 2, 4)


class TestMonotonicity:
    def test_p_mu_decreasing_in_every_parameter(self):
        base = (3, 2, 10, 2)
        k, h, n, mu = base
        assert p_mu(k + 1, h, n, mu) < p_mu(*base)
        assert p_mu(k, h + 1, n, mu) < p_mu(*base)
        assert p_mu(k, h, n + 1, mu) < p_mu(*base)
        assert p_mu(k, h, n, mu + 1) < p_mu(*base)

    def test_p_leak_monotone(self):
        assert p_leak(10, 3, 2) < p_leak(10, 3, 3)
        assert p_leak(11, 3, 2) < p_leak(10, 3, 2)

    def test_p_missed_decreasing_in_mu_and_pool(self):
        assert p_missed(10, 3, 3) < p_missed(10, 3, 2)
        assert p_missed(11, 3, 2) < p_missed(10, 3, 2)


class TestLog10Fraction:
    def test_moderate_values_match_float(self):
        assert log10_fraction(Fraction(1, 8)) == pytest.approx(math.log10(1 / 8))
        assert log10_fraction(Fraction(3, 7)) == pytest.approx(math.log10(3 / 7))

    def test_values_below_float_underflow(self):
        tiny = Fraction(1, 2 ** (5 * 20) * math.comb(50, 5) ** 5) ** 20
        l10 = log10_fraction(tiny)
        assert l10 == pytest.approx(-61.73340839294705 * 20, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            log10_fraction(Fraction(0))
        with pytest.raises(ValueError):
            log10_fraction(Fraction(-1, 2))


class TestMonteCarlo:
    def test_cheater_estimator_agrees(self):
        rep = mc_cheater(2, 1, trials=20_000, seed=3)
        assert rep.passed
        assert rep.formula == "p_cheater"
        assert rep.trials == 20_000

    def test_bundle_cheater_estimator_agrees(self):
        rep = mc_bundle_cheater(2, 1, 3, 1, 1, trials=40_000, seed=4)
        assert rep.passed
        assert rep.formula == "p_mu"
        assert float(rep.closed_form) == pytest.approx(1 / 12)

    @pytest.mark.parametrize(
        "args", [(2, 1, 4, 2, 1, 2_000, 8), (1, 1, 3, 3, 2, 20_000, 3), (2, 1, 4, 2, 1, 20_000, 3)]
    )
    def test_bundle_cheater_below_mu_agrees_with_the_tail(self, args):
        # the first is the pinned call, which read 167 of 2000 against p_mu
        rep = mc_bundle_cheater(*args)
        assert (rep.formula, rep.closed_form) == ("p_alpha", p_alpha(*args[:5]))
        assert rep.passed

    def test_leak_estimator_agrees(self):
        rep = mc_leak(6, 3, 5, trials=20_000, seed=5)
        assert rep.passed
        assert float(rep.closed_form) == pytest.approx(0.25)

    def test_sequence_collision_both_readings(self):
        distinct = mc_sequence_collision(4, 2, 2, trials=60_000, seed=6)
        assert distinct.formula == "p_missed_mu_factors"
        assert float(distinct.closed_form) == pytest.approx(1 / 30)
        assert distinct.passed
        independent = mc_sequence_collision(
            4, 2, 2, trials=60_000, seed=7, distinct_blocks=False
        )
        assert float(independent.closed_form) == pytest.approx(1 / 36)
        assert independent.passed

    def test_zero_successes_at_a_tiny_closed_form_passes(self):
        # 0 of 2000 is what p = 2^-20 gives 99.8 % of the time
        rep = mc_cheater(5, 4, trials=2_000, seed=1)
        assert rep.successes == 0 and rep.closed_form == Fraction(1, 2**20)
        assert rep.passed

    def test_stderr_at_zero_successes_is_the_closed_form_spread(self):
        rep = mc_cheater(5, 4, trials=2_000, seed=1)
        p0 = 2.0**-20
        assert rep.successes == 0
        assert rep.mc_stderr == pytest.approx(math.sqrt(p0 * (1 - p0) / 2_000), rel=1e-12)
        assert rep.csv_row().split(",")[5] == "2.184e-05"
        assert rep.passed is (abs(rep.mc_estimate - p0) <= 3 * rep.mc_stderr)

    def test_passed_is_within_three_stderr(self):
        for successes in range(0, 2_001, 50):
            rep = ProbabilityReport("p_cheater", {}, Fraction(1, 4), successes, 2_000, 0)
            assert rep.passed is (abs(rep.mc_estimate - 0.25) <= 3 * rep.mc_stderr)
            assert rep.mc_stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 2_000))

    def test_one_success_at_a_tiny_closed_form_fails(self):
        rep = ProbabilityReport("p_cheater", {}, Fraction(1, 2**20), 1, 2_000, 0)
        assert not rep.passed

    def test_reports_are_reproducible(self):
        a = mc_cheater(1, 1, trials=2_000, seed=9)
        b = mc_cheater(1, 1, trials=2_000, seed=9)
        assert a.mc_estimate == b.mc_estimate

    def test_csv_row_shape(self):
        rep = mc_cheater(1, 1, trials=1_000, seed=1)
        assert len(CSV_HEADER.split(",")) == 9
        assert len(rep.csv_row().split(",")) == 9
        assert rep.csv_row().split(",")[0] == "p_cheater"

    @pytest.mark.parametrize(
        "oracle, args, error",
        [
            (mc_leak, (4, 2, 7, 10, 1), ParameterOverflow),
            (mc_bundle_cheater, (1, 1, 3, 4, 1, 10, 1), ParameterOverflow),
            (mc_sequence_collision, (4, 2, 7, 10, 1), ParameterOverflow),
            # independent reading, k > n: not even one k-set can be drawn
            (mc_sequence_collision, (3, 4, 1, 10, 1, False), ValueError),
        ],
        ids=[
            "mc_leak-args0",
            "mc_bundle_cheater-args1",
            "mc_sequence_collision-args2",
            "mc_sequence_collision-independent-k-above-n",
        ],
    )
    def test_mu_above_subset_count_overflows(self, alarm, oracle, args, error):
        # mu distinct k-sets cannot be drawn when mu > C(n, k); the alarm
        # turns a search that never ends into a failure
        with pytest.raises(error):
            oracle(*args)

    @pytest.mark.parametrize(
        "formula, args",
        [
            (p_mu, (2, 1, 3, -1)),
            (p_mu, (2, 1, 3, 0)),
            (q_false, (2, 1, 3, -1)),
            (q_x, (2, 3, 5, -1)),
            (p_leak, (6, 3, -1)),
            (p_leak, (6, 3, 0)),
            (p_missed, (4, 2, -1)),
            (p_missed_mu_factors, (4, 2, 0)),
            (mc_bundle_cheater, (2, 1, 3, 0, 0, 10, 1)),
            (mc_bundle_cheater, (2, 1, 3, -1, 1, 10, 1)),
            (p_alpha, (2, 1, 3, 0, 1)),
            (mc_leak, (6, 3, 0, 10, 1)),
            (mc_sequence_collision, (4, 2, 0, 10, 1)),
            (mc_sequence_collision, (4, 2, -1, 10, 1, False)),
            (mc_sequence_collision, (4, 2, 0, 10, 1, False)),
        ],
    )
    def test_mu_below_one_is_refused_before_any_draw(self, formula, args):
        # an estimator's rngs may not draw: it refuses before its first trial
        with mock.patch.object(analysis, "Rng", _drawless_rng):
            with pytest.raises(ValueError, match="mu >= 1"):
                formula(*args)

    @pytest.mark.parametrize(
        "formula, args",
        [
            (p_mu, (2, -1, 3, 1)),
            (p_mu, (2, 0, 3, 1)),
            (p_mu, (0, 1, 3, 1)),
            (p_mu, (5, 4, 3, 1)),
            (q_false, (2, 0, 3, 1)),
            (q_x, (2, 0, 5, 1)),
            (q_x, (2, 5, 3, 1)),
            (p_leak, (6, 0, 1)),
            (p_leak, (3, 4, 1)),
            (p_missed, (4, 0, 1)),
            (p_missed_mu_factors, (4, 0, 1)),
            (p_missed_mu_factors, (3, 4, 1)),
            (mc_cheater, (0, 1, 10, 1)),
            (mc_leak, (6, 0, 1, 10, 1)),
            (mc_leak, (3, 4, 1, 10, 1)),
            (mc_bundle_cheater, (2, -1, 3, 1, 1, 10, 1)),
            (mc_bundle_cheater, (0, 1, 3, 1, 1, 10, 1)),
            (mc_bundle_cheater, (4, 1, 3, 1, 1, 10, 1)),
            # a tail over alpha of mu proofs needs 1 <= alpha <= mu
            (mc_bundle_cheater, (2, 1, 3, 1, 0, 10, 1)),
            (mc_bundle_cheater, (2, 1, 3, 1, -5, 10, 1)),
            (mc_bundle_cheater, (2, 1, 3, 1, 2, 10, 1)),
            (p_alpha, (2, 1, 3, 2, 0)),
            (p_alpha, (2, 1, 3, 2, 3)),
            (p_alpha, (2, 0, 3, 2, 1)),
        ],
    )
    def test_k_h_and_alpha_outside_their_range_are_refused_before_any_draw(self, formula, args):
        with mock.patch.object(analysis, "Rng", _drawless_rng):
            with pytest.raises(ValueError, match="require") as raised:
                formula(*args)
        assert raised.type is ValueError

    @pytest.mark.parametrize("seed", range(20))
    def test_collision_parameters_are_checked_before_any_block(self, seed):
        # a trial whose heads differ never reaches next_sequence's check, and
        # a head drawn at k > n, k = 0 or n > 2^16 would never return
        def draw(*args):
            raise AssertionError("drew a block before the parameters were checked")

        with mock.patch.object(revocation, "_draw_block", draw):
            for n, k, mu, error in [
                (4, 2, 7, ParameterOverflow),
                (3, 4, 1, ValueError),
                (4, 0, 1, ValueError),
                (revocation.MAX_POOL_SIZE + 1, 2, 1, ValueError),
            ]:
                with pytest.raises(ValueError) as raised:
                    mc_sequence_collision(n, k, mu, 1, seed)
                assert raised.type is error


def _drawless_rng(seed):
    """An ``Rng`` that fails the test on its first draw."""

    def draw(*args):
        raise AssertionError(f"Rng({seed}) drew before the parameters were refused")

    rng = Rng(seed)
    rng.randbits = rng.random = draw
    return rng


def _ref_collisions(n, k, mu, trials, rng):
    """``mc_sequence_collision``'s distinct-blocks loop as it was: both full
    sequences on every trial."""
    successes = 0
    for t in range(trials):
        iv_a, iv_b = rng.randbits(64), rng.randbits(64)
        seq_a = revocation.next_sequence(iv_a, t, n, k, mu)
        seq_b = revocation.next_sequence(iv_b, t, n, k, mu)
        successes += seq_a == seq_b
    return successes


class TestSequenceCollisionHeads:
    @pytest.mark.parametrize("n, k, mu", [(3, 1, 2), (4, 2, 2), (5, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 17, 1062])
    def test_matches_full_sequence_reference(self, n, k, mu, seed):
        made = []

        def recording_rng(rng_seed):
            made.append(Rng(rng_seed))
            return made[-1]

        with mock.patch.object(analysis, "Rng", recording_rng):
            rep = mc_sequence_collision(n, k, mu, 3_000, seed)
        ref = Rng(seed)
        assert rep.successes == _ref_collisions(n, k, mu, 3_000, ref) > 0
        assert made[0].randbits(64) == ref.randbits(64)

    def test_a_trial_whose_heads_differ_draws_two_blocks(self):
        n, k, mu = 4, 2, 2
        seen = set()
        for seed in range(40):
            rng = Rng(seed)
            iv_a, iv_b = rng.randbits(64), rng.randbits(64)
            heads_differ = revocation._head(iv_a, 0, n, k) != revocation._head(iv_b, 0, n, k)
            draws = mock.Mock(wraps=revocation._draw_block)
            with mock.patch.object(revocation, "_draw_block", draws):
                mc_sequence_collision(n, k, mu, 1, seed)
            if heads_differ:
                assert draws.call_count == 2
            else:  # both heads, then both full sequences of mu blocks
                assert draws.call_count >= 2 + 2 * mu
            seen.add(heads_differ)
        assert seen == {True, False}


class TestFigureSeries:
    @pytest.mark.parametrize(
        "figure,series,points",
        [("10a", 4, 6), ("10b", 5, 6), ("11", 4, 9), ("12", 4, 10), ("13", 4, 11)],
    )
    def test_shapes(self, figure, series, points):
        rows = figure_series(figure)
        labels = {label for label, _, _ in rows}
        assert len(labels) == series
        assert len(rows) == series * points
        csv = figure_csv(figure)
        lines = csv.strip().split("\n")
        assert lines[0] == "series,x,log10_value"
        assert len(lines) == 1 + series * points

    def test_each_series_is_decreasing(self):
        # more proofs, bigger pools, more secrets, more rounds: the modeled
        # probabilities on every figure curve fall monotonically
        for figure in ("10a", "10b", "11", "12", "13"):
            by_label: dict[str, list[float]] = {}
            for label, _x, val in figure_series(figure):
                by_label.setdefault(label, []).append(val)
            for vals in by_label.values():
                assert all(a > b for a, b in zip(vals, vals[1:])), figure

    def test_figure_10a_anchor_value(self):
        rows = figure_series("10a")
        anchor = [v for label, x, v in rows if label == "h=4" and x == 5]
        assert anchor[0] == pytest.approx(-61.73341, abs=1e-4)

    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_series("99")


def _ref_distinct_sets(rng, n, k, mu):
    """``_distinct_sets`` as it was: a seen set beside a list of sorted tuples
    (the sampler's own draws are checked by ``TestSampleSubsetReference``)."""
    sets = []
    seen = set()
    while len(sets) < mu:
        s = mask_ids(adversary._sample_subset(rng, n, k))
        if s not in seen:
            seen.add(s)
            sets.append(s)
    return sets


def _ref_leak_successes(rng, n, k, mu, trials):
    """``mc_leak``'s loop as it was: a scan of the list for the designated tuple."""
    designated = tuple(range(1, k + 1))
    successes = 0
    for _ in range(trials):
        sets = _ref_distinct_sets(rng, n, k, mu)
        if designated in sets:
            successes += 1
    return successes


class TestDistinctSetsReference:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 70),
        k=st.integers(1, 12),
        mu=st.integers(1, 10),
        trials=st.integers(1, 6),
    )
    @example(seed=3, n=70_000, k=40, mu=2, trials=3)
    @example(seed=4, n=2**16, k=3, mu=5, trials=3)
    def test_matches_sorted_tuple_reference(self, seed, n, k, mu, trials):
        k = min(k, n)
        mu = min(mu, math.comb(n, k))
        ours, ref = Rng(seed), Rng(seed)
        for _ in range(trials):
            got = [mask_ids(s) for s in analysis._distinct_sets(ours, n, k, mu)]
            assert got == _ref_distinct_sets(ref, n, k, mu)
        assert ours.randbits(64) == ref.randbits(64)

        made = []

        def recording_rng(rng_seed):
            made.append(Rng(rng_seed))
            return made[-1]

        with mock.patch.object(analysis, "Rng", recording_rng):
            rep = mc_leak(n, k, mu, trials, seed)
        ref = Rng(seed)
        assert rep.successes == _ref_leak_successes(ref, n, k, mu, trials)
        assert made[0].randbits(64) == ref.randbits(64)
