"""Closed-form security probabilities, independent Monte Carlo estimators,
and the data series behind the standard probability figures.

Exact rationals are the source of truth; log10 rendering exists because
several values (e.g. ~1e-62) live far below float underflow on the
figures' log-scale axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from . import adversary, revocation
from .numtheory import Rng, generate_blum_modulus, sample_unit
from .revocation import ParameterOverflow

MC_MODULUS_BITS = 48  # big enough that arithmetic coincidences are negligible

_LOG10_2 = math.log10(2)


class UnknownFigure(ValueError):
    pass


@dataclass
class ProbabilityReport:
    formula: str
    params: dict
    closed_form: Fraction
    log10_value: float
    mc_estimate: Optional[float] = None
    mc_stderr: Optional[float] = None
    trials: int = 0
    seed: Optional[int] = None
    passed: Optional[bool] = None

    def finish_mc(self, successes: int, trials: int, seed: int) -> "ProbabilityReport":
        self.trials = trials
        self.seed = seed
        self.mc_estimate = successes / trials
        p = self.mc_estimate
        self.mc_stderr = math.sqrt(max(p * (1 - p), 1e-300) / trials)
        self.passed = abs(float(self.closed_form) - p) <= 3 * max(self.mc_stderr, 1e-300)
        return self

    def csv_row(self) -> str:
        param_str = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        fields = [
            self.formula,
            param_str,
            # closed_form may underflow float; render via its log10
            _sci_from_log10(self.log10_value),
        ]
        fields += [
            f"{self.log10_value:.12f}",
            "" if self.mc_estimate is None else f"{self.mc_estimate:.10f}",
            "" if self.mc_stderr is None else f"{self.mc_stderr:.3e}",
            str(self.trials),
            "" if self.seed is None else str(self.seed),
            "" if self.passed is None else str(self.passed).lower(),
        ]
        return ",".join(fields)


CSV_HEADER = "formula,params,closed_form,log10,mc_estimate,mc_stderr,trials,seed,pass"


def log10_fraction(x: Fraction) -> float:
    """log10 of a positive rational without float under/overflow."""
    if x <= 0:
        raise ValueError("log10 needs a positive value")
    return _log10_int(x.numerator) - _log10_int(x.denominator)


def _log10_int(n: int) -> float:
    if n < 1:
        raise ValueError("positive integer required")
    bl = n.bit_length()
    if bl <= 900:
        return math.log10(n)
    shift = bl - 60
    return math.log10(n >> shift) + shift * _LOG10_2


def _sci_from_log10(l10: float) -> str:
    e = math.floor(l10)
    mant = 10 ** (l10 - e)
    return f"{mant:.6f}e{e:+d}"


# ------------------------------------------------------------ closed forms


def p_cheater(k: int, h: int) -> Fraction:
    """Probability a secretless prover passes a (k, h) basic proof: 2^-(kh)."""
    if k < 1 or h < 1:
        raise ValueError("require k, h >= 1")
    return Fraction(1, 2 ** (k * h))


def p_mu(k: int, h: int, n: int, mu: int) -> Fraction:
    """Probability a secretless verifier-side prover passes all mu proofs,
    guessing both the k-id set and every challenge: (1/(2^kh * C(n,k)))^mu."""
    if k > n:
        raise ValueError("require k <= n")
    return Fraction(1, (2 ** (k * h) * comb(n, k)) ** mu)


def p_mu_log10(k: int, h: int, n: int, mu: int) -> float:
    """Log-domain evaluation of p_mu, for values far below float range."""
    return -mu * (k * h * _LOG10_2 + math.log10(comb(n, k)))


def p_leak(n: int, k: int, mu: int) -> Fraction:
    """Probability one session's mu sets include a designated identifying
    set: mu / C(n, k)."""
    c = comb(n, k)
    if mu > c:
        raise ParameterOverflow(f"mu={mu} exceeds C({n},{k})={c}")
    return Fraction(mu, c)


def q_false(k: int, h: int, n: int, mu: int) -> Fraction:
    """Two-member false-authentication probability (identical in form
    to p_mu)."""
    return p_mu(k, h, n, mu)


def q_x(x: int, k: int, n: int, mu: int) -> Fraction:
    """x-member variant, implemented exactly as printed:
    (1/(2^(x(k-1)) * C(n,k)^(x-1)))^mu.

    Note the exponent structure does not reduce to q_false at x = 2; the
    discrepancy is surfaced here, not corrected.
    """
    if x < 2:
        raise ValueError("require x >= 2")
    return Fraction(1, (2 ** (x * (k - 1)) * comb(n, k) ** (x - 1)) ** mu)


def p_missed(n: int, k: int, mu: int) -> Fraction:
    """Missed-revocation probability, literal product form with mu+1
    factors: 1 / (C * (C-1) * ... * (C-mu))."""
    c = comb(n, k)
    if c <= mu:
        raise ParameterOverflow(f"C({n},{k})={c} <= mu={mu}: zero factor in product")
    denom = 1
    for i in range(mu + 1):
        denom *= c - i
    return Fraction(1, denom)


def p_missed_mu_factors(n: int, k: int, mu: int) -> Fraction:
    """Companion reading with mu factors: the exact collision probability of
    two independent ordered sequences of mu distinct sets."""
    c = comb(n, k)
    if c < mu:
        raise ParameterOverflow(f"C({n},{k})={c} < mu={mu}")
    denom = 1
    for i in range(mu):
        denom *= c - i
    return Fraction(1, denom)


# --------------------------------------------------------- Monte Carlo


def _mc_witnesses(n_values: int, seed: int, bits: int = MC_MODULUS_BITS):
    modulus = generate_blum_modulus(bits, seed ^ 0x5EED)
    rng = Rng(seed ^ 0xBEEF)
    m = modulus.m
    secrets = [sample_unit(rng, m) for _ in range(n_values)]
    witnesses = [s * s % m for s in secrets]
    return m, secrets, witnesses


def mc_cheater(k: int, h: int, trials: int, seed: int) -> ProbabilityReport:
    """Simulate the secretless prover and compare against p_cheater."""
    m, _, witnesses = _mc_witnesses(k, seed)
    attacker_rng = Rng(seed)
    verifier_rng = Rng(seed ^ 0xA5A5A5)
    inverses: dict[int, int] = {}  # one witness set, so one table for every trial
    successes = 0
    for _ in range(trials):
        _, ok = adversary.cheater_attempt(
            witnesses, k, h, m, attacker_rng, verifier_rng, inverses
        )
        if ok:
            successes += 1
    cf = p_cheater(k, h)
    report = ProbabilityReport(
        formula="p_cheater",
        params={"k": k, "h": h},
        closed_form=cf,
        log10_value=log10_fraction(cf),
    )
    return report.finish_mc(successes, trials, seed)


def mc_bundle_cheater(
    k: int, h: int, n: int, mu: int, alpha: int, trials: int, seed: int
) -> ProbabilityReport:
    """End-to-end cheating bundle prover (set guess + challenge guesses)
    against the alpha-threshold verification; oracle for p_mu at alpha=mu."""
    m, _, pool_witnesses = _mc_witnesses(n, seed)
    attacker_rng = Rng(seed)
    verifier_rng = Rng(seed ^ 0xA5A5A5)
    set_rng = Rng(seed ^ 0xC0FFEE)
    all_ids = list(range(1, n + 1))
    successes = 0
    for _ in range(trials):
        requested = _distinct_sets(set_rng, all_ids, k, mu)
        if adversary.bundle_cheater_attempt(
            pool_witnesses, requested, k, h, alpha, m, attacker_rng, verifier_rng
        ):
            successes += 1
    cf = p_mu(k, h, n, mu)
    report = ProbabilityReport(
        formula="p_mu",
        params={"k": k, "h": h, "n": n, "mu": mu, "alpha": alpha},
        closed_form=cf,
        log10_value=log10_fraction(cf),
    )
    return report.finish_mc(successes, trials, seed)


def _distinct_sets(rng: Rng, ids: list[int], k: int, mu: int) -> list[tuple[int, ...]]:
    if mu > comb(len(ids), k):
        raise ParameterOverflow(f"mu={mu} exceeds C({len(ids)},{k})")
    sets: list[tuple[int, ...]] = []
    seen = set()
    while len(sets) < mu:
        s = tuple(adversary._sample_subset(rng, ids, k))
        if s not in seen:
            seen.add(s)
            sets.append(s)
    return sets


def mc_leak(n: int, k: int, mu: int, trials: int, seed: int) -> ProbabilityReport:
    """Draw mu distinct k-subsets; count sessions containing one fixed
    designated subset."""
    rng = Rng(seed)
    all_ids = list(range(1, n + 1))
    designated = tuple(range(1, k + 1))
    successes = 0
    for _ in range(trials):
        sets = _distinct_sets(rng, all_ids, k, mu)
        if designated in sets:
            successes += 1
    cf = p_leak(n, k, mu)
    report = ProbabilityReport(
        formula="p_leak",
        params={"n": n, "k": k, "mu": mu},
        closed_form=cf,
        log10_value=log10_fraction(cf),
    )
    return report.finish_mc(successes, trials, seed)


def mc_sequence_collision(
    n: int, k: int, mu: int, trials: int, seed: int, distinct_blocks: bool = True
) -> ProbabilityReport:
    """Frequency of two independently keyed members producing identical
    session sequences.

    With ``distinct_blocks`` the real PRF sequence generator is used (mu
    pairwise-distinct sets) and the mu-factor reading of the
    missed-revocation formula is the matching closed form. Without it,
    each set is drawn independently, which isolates the C(n,k)-only
    factor of the false-authentication formula.
    """
    rng = Rng(seed)
    all_ids = list(range(1, n + 1))
    successes = 0
    if distinct_blocks:
        for t in range(trials):
            iv_a = rng.randbits(64)
            iv_b = rng.randbits(64)
            seq_a = revocation.next_sequence(iv_a, t, n, k, mu)
            seq_b = revocation.next_sequence(iv_b, t, n, k, mu)
            if seq_a == seq_b:
                successes += 1
        cf = p_missed_mu_factors(n, k, mu)
        formula = "p_missed_mu_factors"
    else:
        for _ in range(trials):
            seq_a = tuple(
                tuple(adversary._sample_subset(rng, all_ids, k)) for _ in range(mu)
            )
            seq_b = tuple(
                tuple(adversary._sample_subset(rng, all_ids, k)) for _ in range(mu)
            )
            if seq_a == seq_b:
                successes += 1
        cf = Fraction(1, comb(n, k) ** mu)
        formula = "q_false_set_factor"
    report = ProbabilityReport(
        formula=formula,
        params={"n": n, "k": k, "mu": mu, "distinct_blocks": distinct_blocks},
        closed_form=cf,
        log10_value=log10_fraction(cf),
    )
    return report.finish_mc(successes, trials, seed)


# ----------------------------------------------------------- figure series


def figure_series(figure: str) -> list[tuple[str, float, float]]:
    """(series label, x, log10 value) rows for one standard figure."""
    rows: list[tuple[str, float, float]] = []
    if figure == "10a":
        # resilience vs proof count for h in {4,5,6,8}, fixed k=5, n=50
        for h in (4, 5, 6, 8):
            for mu in range(5, 11):
                rows.append((f"h={h}", mu, p_mu_log10(5, h, 50, mu)))
    elif figure == "10b":
        # resilience vs proof count for k in {1..5}, fixed h=4, n=50
        for k in range(1, 6):
            for mu in range(5, 11):
                rows.append((f"k={k}", mu, p_mu_log10(k, 4, 50, mu)))
    elif figure == "11":
        # resilience vs pool size at (k=5, h=4) for mu in {5,6,8,10}
        for mu in (5, 6, 8, 10):
            for n in range(10, 51, 5):
                rows.append((f"mu={mu}", n, p_mu_log10(5, 4, n, mu)))
    elif figure == "12":
        # leakage vs secrets-per-proof at n=50 for mu in {5,6,8,10}
        for mu in (5, 6, 8, 10):
            for k in range(1, 11):
                rows.append((f"mu={mu}", k, log10_fraction(p_leak(50, k, mu))))
    elif figure == "13":
        # false authentication vs k at (n=15, mu=5) for h in {4,5,6,7}
        for h in (4, 5, 6, 7):
            for k in range(5, 16):
                rows.append((f"h={h}", k, log10_fraction(q_false(k, h, 15, 5))))
    else:
        raise UnknownFigure(figure)
    return rows


def figure_csv(figure: str) -> str:
    lines = ["series,x,log10_value"]
    for label, x, val in figure_series(figure):
        lines.append(f"{label},{x},{val:.10f}")
    return "\n".join(lines) + "\n"
