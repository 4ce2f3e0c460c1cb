import copy
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from anonauth import numtheory
from anonauth.numtheory import (
    NotInvertible,
    Rng,
    gcd,
    generate_blum_modulus,
    is_prime,
    mod_inv,
    sample_unit,
)

UNITS_21 = [a for a in range(1, 21) if math.gcd(a, 21) == 1]
# Carmichael numbers whose prime factors all exceed 37, e.g. 43 * 127 * 211
CARMICHAEL = [1152271, 1909001, 2508013, 3057601, 5148001, 279377281, 366652201]
# primes in (37, 2^14], the factors the primality test searches for
FACTOR_PRIMES = [41, 43, 97, 1021, 8191, 16381]
PSI_12 = 399165290221 * 798330580441
# primes on both sides of psi_12, the bound below which the twelve bases decide
PRIMES_AROUND_PSI_12 = [
    (1 << 31) - 1, (1 << 61) - 1, PSI_12 - 20, PSI_12 + 22, (1 << 89) - 1, (1 << 107) - 1,
]
# strong pseudoprimes to bases 2..7, to bases 2..23 and to every base 2..37
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, PSI_12]


def reference_is_prime(n: int, rng=None) -> bool:
    """``is_prime`` without its small-factor search: the verdicts and the
    witness draws it must keep."""
    if n < 2:
        return False
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 1 << 20:
        d = 41
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    witness_rng = rng if rng is not None else Rng(n & 0xFFFFFFFF)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(64):
        a = witness_rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _agree(n: int, seed: int, min_bits: int = numtheory._FACTOR_MIN_BITS) -> None:
    """``is_prime`` gives ``reference_is_prime``'s verdict and leaves the rng
    where the reference leaves it, with the small-factor search from
    ``min_bits`` up."""
    ours, ref = Rng(seed), Rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "_FACTOR_MIN_BITS", min_bits)
        assert is_prime(n, ours) == reference_is_prime(n, ref)
        assert is_prime(n) == reference_is_prime(n)
    assert ours.randbits(64) == ref.randbits(64)


def brute_force_is_residue(a: int, m: int) -> bool:
    return any(x * x % m == a % m for x in range(1, m) if math.gcd(x, m) == 1)


class TestPrimality:
    def test_small_primes(self):
        assert is_prime(3) and is_prime(7) and is_prime(2)
        assert not is_prime(1) and not is_prime(21) and not is_prime(25)

    def test_candidate_pair_3_7_yields_21(self):
        # oracle for the accept branch: both prime, both 3 (mod 4)
        assert is_prime(3) and 3 % 4 == 3
        assert is_prime(7) and 7 % 4 == 3
        assert 3 * 7 == 21

    def test_prime_1_mod_4_rejected_as_factor(self):
        assert is_prime(5) and 5 % 4 != 3

    def test_large_prime_probabilistic_path(self):
        assert is_prime((1 << 61) - 1)
        assert not is_prime((1 << 61) - 3)


class TestSmallFactorShortcut:
    """``is_prime`` tries each round of a wide candidate modulo its divisor
    g = gcd(n, product of the primes in (37, 2^14]) first; a round fails
    there only where the full round fails, so verdicts and rng draws stay
    the reference's."""

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.sampled_from(FACTOR_PRIMES),
        q=st.integers(2**250, 2**700),
        seed=st.integers(0, 2**32),
    )
    def test_multiples_of_small_primes(self, f, q, seed):
        _agree(f * (q | 1), seed)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(CARMICHAEL), seed=st.integers(0, 2**32))
    def test_carmichael_numbers_with_the_search_at_every_width(self, n, seed):
        # a narrow Carmichael number has many liars modulo its factors, so
        # the round modulo g often passes and the full round decides
        _agree(n, seed, min_bits=0)
        _agree(n * 43, seed, min_bits=0)

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.sampled_from([(1 << 61) - 1, (1 << 127) - 1, (1 << 255) - 19, (1 << 521) - 1]),
        seed=st.integers(0, 2**32),
    )
    def test_primes(self, n, seed):
        _agree(n, seed)
        _agree(n, seed, min_bits=0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2**20, 2**600), seed=st.integers(0, 2**32))
    def test_random_odd_numbers(self, n, seed):
        _agree(n | 1, seed)
        _agree(n | 1, seed, min_bits=0)

    @pytest.mark.parametrize(
        "bits, seeds", [(24, 20), (48, 20), (64, 10), (96, 10), (128, 10), (256, 6), (512, 3)]
    )
    def test_moduli_match_the_reference(self, monkeypatch, bits, seeds):
        ours = [generate_blum_modulus(bits, seed) for seed in range(seeds)]
        monkeypatch.setattr(numtheory, "is_prime", reference_is_prime)
        assert [generate_blum_modulus(bits, seed) for seed in range(seeds)] == ours


def _twelve_bases_pass(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(numtheory._round_passes(b, d, s, n) for b in numtheory._SMALL_PRIMES)


class TestTwelveBases:
    """Below psi_12 a candidate that passes the twelve bases of
    ``_SMALL_PRIMES`` is prime, so ``is_prime`` draws its 64 witnesses
    without trying them; verdicts and rng draws stay the reference's."""

    def test_psi_12_is_the_published_bound(self):
        assert numtheory._PSI_12 == PSI_12

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2**20, 2**80 - 1), seed=st.integers(0, 2**32))
    def test_random_odd_numbers(self, n, seed):
        _agree(n | 1, seed)

    @pytest.mark.parametrize("n", PRIMES_AROUND_PSI_12 + CARMICHAEL + STRONG_PSEUDOPRIMES)
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_primes_carmichael_numbers_and_strong_pseudoprimes(self, n, seed):
        _agree(n, seed)
        assert is_prime(n, Rng(seed)) == (n in PRIMES_AROUND_PSI_12)

    def test_psi_12_passes_every_base_and_is_refused_by_the_random_rounds(self):
        assert _twelve_bases_pass(PSI_12) and not is_prime(PSI_12, Rng(1))
        assert not any(_twelve_bases_pass(n) for n in STRONG_PSEUDOPRIMES[:2])

    @pytest.mark.parametrize(
        "n, base_checks, rounds",
        [((1 << 61) - 1, 12, 0), (PSI_12 - 20, 12, 0), (PSI_12 + 22, 0, 64), ((1 << 89) - 1, 0, 64)],
    )
    def test_a_proven_prime_tries_the_bases_and_draws_every_witness(
        self, monkeypatch, n, base_checks, rounds
    ):
        tried, rng, round_passes = [], Rng(3), numtheory._round_passes
        draws = mock.Mock(wraps=rng.randrange)
        rng.randrange = draws

        def counted(a, d, s, m):
            tried.append(a)
            return round_passes(a, d, s, m)

        monkeypatch.setattr(numtheory, "_round_passes", counted)
        assert is_prime(n, rng)
        assert tried[:base_checks] == numtheory._SMALL_PRIMES[:base_checks]
        assert len(tried) == base_checks + rounds and draws.call_count == 64


class TestBlumModulus:
    def test_determinism(self):
        a = generate_blum_modulus(16, 42)
        b = generate_blum_modulus(16, 42)
        assert (a.m, a.p, a.q) == (b.m, b.p, b.q)

    @pytest.mark.parametrize("bits", [6, 8, 10, 12, 16])
    def test_structure(self, bits):
        mod = generate_blum_modulus(bits, 7)
        assert mod.m == mod.p * mod.q
        assert mod.p % 4 == 3 and mod.q % 4 == 3
        assert mod.m.bit_length() == bits

    @pytest.mark.parametrize("bits", [6, 8, 10, 12, 14, 16])
    def test_minus_one_is_nonresidue_with_jacobi_plus_one(self, bits):
        mod = generate_blum_modulus(bits, 11)
        # Euler's criterion: m - 1 is a non-residue mod p and mod q, so its
        # Jacobi symbol mod m is (-1)(-1) = +1
        for f in (mod.p, mod.q):
            assert pow(mod.m - 1, (f - 1) // 2, f) == f - 1
        assert not brute_force_is_residue(mod.m - 1, mod.m)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_blum_modulus(5, 1)


class TestModArith:
    def test_mod_inv_examples(self):
        assert mod_inv(1, 21) == 1
        assert mod_inv(13, 21) == 13
        with pytest.raises(NotInvertible):
            mod_inv(7, 21)

    @given(st.integers(1, 10**6), st.integers(2, 10**6))
    def test_mod_inv_involution(self, a, m):
        if math.gcd(a, m) != 1 or a % m == 0:
            return
        assert mod_inv(mod_inv(a % m, m), m) == a % m


class TestSampleUnit:
    def test_m3_only_units(self):
        rng = Rng(1)
        assert all(sample_unit(rng, 3) in (1, 2) for _ in range(200))

    def test_reproducible(self):
        seq1 = [sample_unit(Rng(9), 21) for _ in range(1)]
        a, b = Rng(9), Rng(9)
        assert [sample_unit(a, 21) for _ in range(50)] == [
            sample_unit(b, 21) for _ in range(50)
        ]
        assert seq1[0] == sample_unit(Rng(9), 21)

    def test_uniform_over_units_mod_21(self):
        rng = Rng(5)
        draws = 100_000
        counts = {u: 0 for u in UNITS_21}
        for _ in range(draws):
            counts[sample_unit(rng, 21)] += 1
        expected = draws / len(UNITS_21)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        # df = 11; reject only below the 0.1% tail
        assert stat < chi2.ppf(0.999, df=len(UNITS_21) - 1)

    @settings(max_examples=200, deadline=None)
    @given(m=st.one_of(st.integers(3, 2**12), st.integers(3, 2**2048)), seed=st.integers(0, 2**64))
    def test_draws_as_randrange_does(self, m, seed):
        ours, ref = Rng(seed), Rng(seed)
        for _ in range(3):
            expected = ref.randrange(1, m)
            while math.gcd(expected, m) != 1:
                expected = ref.randrange(1, m)
            assert sample_unit(ours, m) == expected
        assert ours.randbits(64) == ref.randbits(64)

    def test_results_are_units(self):
        rng = Rng(2)
        for _ in range(500):
            v = sample_unit(rng, 21)
            assert 1 <= v < 21 and math.gcd(v, 21) == 1


class TestRng:
    def test_split_streams_are_independent_of_parent_consumption(self):
        a = Rng(7)
        child = a.split()
        seq = [child.randbits(16) for _ in range(4)]
        b = Rng(7)
        child2 = b.split()
        assert [child2.randbits(16) for _ in range(4)] == seq

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(-(2**64), 2**64),
        width=st.one_of(
            st.just(1),
            st.integers(1, 2048).flatmap(
                lambda e: st.sampled_from([2**e - 1, 2**e, 2**e + 1])
            ),
            st.integers(2**2047, 2**2048 - 1),
        ),
    )
    def test_randrange_draws_the_stream_of_random_randrange(self, seed, start, width):
        ours, ref = Rng(seed), random.Random(seed)
        for _ in range(4):
            assert ours.randrange(start, start + width) == ref.randrange(start, start + width)
            assert ours.randrange(width) == ref.randrange(width)
        assert ours.randbits(64) == ref.getrandbits(64)

    def test_a_deep_copy_draws_from_the_same_stream(self):
        original, reference = Rng(9), Rng(9)
        clone = copy.deepcopy(original)
        draws = [clone.randrange(0, 100), original.randbits(8), clone.randbytes(2),
                 original.randbits(1), clone.random(), clone.split().randbits(8)]
        assert draws == [reference.randrange(0, 100), reference.randbits(8),
                         reference.randbytes(2), reference.randbits(1),
                         reference.random(), reference.split().randbits(8)]

    @pytest.mark.parametrize("bounds", [(0,), (-3,), (5, 5), (5, 4), (2**2048, 1)])
    def test_randrange_rejects_an_empty_range(self, bounds):
        with pytest.raises(ValueError):
            Rng(1).randrange(*bounds)

    def test_gcd_agrees_with_math(self):
        # sample_unit looks gcd up on the module, where tracing wraps it
        assert gcd is math.gcd
