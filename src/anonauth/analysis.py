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

from . import adversary, revocation
from .numtheory import Rng, generate_blum_modulus, sample_unit
from .revocation import ParameterOverflow

MC_MODULUS_BITS = 48  # big enough that arithmetic coincidences are negligible


class UnknownFigure(ValueError):
    pass


@dataclass
class ProbabilityReport:
    formula: str
    params: dict
    closed_form: Fraction
    successes: int
    trials: int
    seed: int
    mc_estimate: float = field(init=False)
    # the spread of an estimate of p0 = closed_form, sqrt(p0(1 - p0)/trials):
    # an estimate of 0 or 1 has no spread of its own to measure against
    mc_stderr: float = field(init=False)
    # |estimate - p0| <= 3 * mc_stderr
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        p = self.mc_estimate = self.successes / self.trials
        p0 = float(self.closed_form)
        self.mc_stderr = math.sqrt(p0 * (1 - p0) / self.trials)
        self.passed = abs(p0 - p) <= 3 * self.mc_stderr

    def csv_row(self) -> str:
        param_str = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        log10_value = log10_fraction(self.closed_form)
        fields = [
            self.formula,
            param_str,
            # closed_form may underflow float; render via its log10
            _sci_from_log10(log10_value),
            f"{log10_value:.12f}",
            f"{self.mc_estimate:.10f}",
            f"{self.mc_stderr:.3e}",
            str(self.trials),
            str(self.seed),
            str(self.passed).lower(),
        ]
        return ",".join(fields)


CSV_HEADER = "formula,params,closed_form,log10,mc_estimate,mc_stderr,trials,seed,pass"


def log10_fraction(x: Fraction) -> float:
    """log10 of a positive rational without float under/overflow."""
    if x <= 0:
        raise ValueError("log10 needs a positive value")
    return math.log10(x.numerator) - math.log10(x.denominator)


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


def _require(k: int, n: int, mu: int, h: int = 1) -> None:
    """The domain of the set-based closed forms: 1 <= k <= n, h >= 1, mu >= 1."""
    if not 1 <= k <= n or h < 1 or mu < 1:
        raise ValueError(f"require 1 <= k <= n and h, mu >= 1, got k={k}, n={n}, h={h}, mu={mu}")


def p_mu(k: int, h: int, n: int, mu: int) -> Fraction:
    """Probability a secretless verifier-side prover passes all mu proofs,
    guessing both the k-id set and every challenge: (1/(2^kh * C(n,k)))^mu."""
    _require(k, n, mu, h)
    return Fraction(1, (2 ** (k * h) * comb(n, k)) ** mu)


def p_alpha(k: int, h: int, n: int, mu: int, alpha: int) -> Fraction:
    """Probability a secretless verifier-side prover passes at least alpha of
    its mu proofs, each alone with q = 1/(2^kh * C(n,k)): the binomial tail
    P(X >= alpha) for X ~ Bin(mu, q), which is p_mu at alpha = mu."""
    _require(k, n, mu, h)
    if not 1 <= alpha <= mu:
        raise ValueError(f"require 1 <= alpha <= mu, got alpha={alpha}, mu={mu}")
    q = Fraction(1, 2 ** (k * h) * comb(n, k))
    return sum(comb(mu, i) * q**i * (1 - q) ** (mu - i) for i in range(alpha, mu + 1))


def p_leak(n: int, k: int, mu: int) -> Fraction:
    """Probability one session's mu sets include a designated identifying
    set: mu / C(n, k)."""
    _require(k, n, mu)
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
    _require(k, n, mu)
    return Fraction(1, (2 ** (x * (k - 1)) * comb(n, k) ** (x - 1)) ** mu)


def p_missed(n: int, k: int, mu: int) -> Fraction:
    """Missed-revocation probability, literal product form with mu+1
    factors: 1 / (C * (C-1) * ... * (C-mu))."""
    _require(k, n, mu)
    c = comb(n, k)
    if c <= mu:
        raise ParameterOverflow(f"C({n},{k})={c} <= mu={mu}: zero factor in product")
    return Fraction(1, math.perm(c, mu + 1))


def p_missed_mu_factors(n: int, k: int, mu: int) -> Fraction:
    """Companion reading with mu factors: the exact collision probability of
    two independent ordered sequences of mu distinct sets."""
    _require(k, n, mu)
    c = comb(n, k)
    if c < mu:
        raise ParameterOverflow(f"C({n},{k})={c} < mu={mu}")
    return Fraction(1, math.perm(c, mu))


# --------------------------------------------------------- Monte Carlo


def _mc_witnesses(n_values: int, seed: int):
    modulus = generate_blum_modulus(MC_MODULUS_BITS, seed ^ 0x5EED)
    rng = Rng(seed ^ 0xBEEF)
    m = modulus.m
    secrets = [sample_unit(rng, m) for _ in range(n_values)]
    witnesses = [s * s % m for s in secrets]
    return m, secrets, witnesses


def mc_cheater(k: int, h: int, trials: int, seed: int) -> ProbabilityReport:
    """Simulate the secretless prover and compare against p_cheater."""
    closed_form = p_cheater(k, h)
    m, _, witnesses = _mc_witnesses(k, seed)
    prover = adversary.CheaterProver(witnesses, m, Rng(seed))
    verifier_rng = Rng(seed ^ 0xA5A5A5)
    attempt = adversary.cheater_attempt
    successes = 0
    for _ in range(trials):
        if attempt(prover, h, verifier_rng):
            successes += 1
    params = {"k": k, "h": h}
    return ProbabilityReport("p_cheater", params, closed_form, successes, trials, seed)


def mc_bundle_cheater(
    k: int, h: int, n: int, mu: int, alpha: int, trials: int, seed: int
) -> ProbabilityReport:
    """End-to-end cheating bundle prover (set guess + challenge guesses)
    against the alpha-threshold verification, 1 <= alpha <= mu, compared
    against p_alpha, which the report names p_mu at alpha = mu."""
    closed_form = p_alpha(k, h, n, mu, alpha)
    if mu > comb(n, k):
        raise ParameterOverflow(f"mu={mu} exceeds C({n},{k})")
    m, _, pool_witnesses = _mc_witnesses(n, seed)
    cheater = adversary.BundleCheater(pool_witnesses, m, Rng(seed))
    verifier_rng = Rng(seed ^ 0xA5A5A5)
    set_rng = Rng(seed ^ 0xC0FFEE)
    successes = 0
    for _ in range(trials):
        requested = _distinct_sets(set_rng, n, k, mu)
        if adversary.bundle_cheater_attempt(cheater, requested, h, alpha, verifier_rng):
            successes += 1
    params = {"k": k, "h": h, "n": n, "mu": mu, "alpha": alpha}
    formula = "p_mu" if alpha == mu else "p_alpha"
    return ProbabilityReport(formula, params, closed_form, successes, trials, seed)


def _distinct_sets(rng: Rng, n: int, k: int, mu: int) -> dict[int, None]:
    """mu distinct k-subsets of 1..n, bitmasks as ``adversary._sample_subset``
    draws them, as dict keys in the order first drawn; the caller checks
    mu <= C(n, k), past which the search never ends."""
    sample = adversary._sample_subset
    sets: dict[int, None] = {}
    while len(sets) < mu:
        sets[sample(rng, n, k)] = None
    return sets


def mc_leak(n: int, k: int, mu: int, trials: int, seed: int) -> ProbabilityReport:
    """Draw mu distinct k-subsets; count sessions containing one fixed
    designated subset."""
    closed_form = p_leak(n, k, mu)  # ParameterOverflow when mu > C(n, k)
    rng = Rng(seed)
    designated = (1 << k) - 1  # ids 1..k
    successes = 0
    for _ in range(trials):
        if designated in _distinct_sets(rng, n, k, mu):
            successes += 1
    params = {"n": n, "k": k, "mu": mu}
    return ProbabilityReport("p_leak", params, closed_form, successes, trials, seed)


def mc_sequence_collision(
    n: int, k: int, mu: int, trials: int, seed: int, distinct_blocks: bool = True
) -> ProbabilityReport:
    """Frequency of two independently keyed members producing identical
    session sequences.

    With ``distinct_blocks`` the real PRF sequence generator is used (mu
    pairwise-distinct sets) and the mu-factor reading of the
    missed-revocation formula is the matching closed form. Sequences whose
    heads differ differ, so a trial builds both only when its heads are
    equal, one trial in C(n, k). Without it, each set is drawn
    independently, which isolates the C(n,k)-only factor of the
    false-authentication formula.
    """
    rng = Rng(seed)
    successes = 0
    if distinct_blocks:
        # next_sequence's own check, made once: a trial whose heads differ
        # never reaches it
        revocation._check_params(n, k, mu)
        head, sequence = revocation._head, revocation.next_sequence
        for t in range(trials):
            iv_a = rng.randbits(64)
            iv_b = rng.randbits(64)
            if head(iv_a, t, n, k) == head(iv_b, t, n, k) and (
                sequence(iv_a, t, n, k, mu) == sequence(iv_b, t, n, k, mu)
            ):
                successes += 1
        cf = p_missed_mu_factors(n, k, mu)
        formula = "p_missed_mu_factors"
    else:
        if not 1 <= k <= n or mu < 1:  # past k's range, _sample_subset never returns
            raise ValueError(f"require 1 <= k <= n and mu >= 1, got k={k}, n={n}, mu={mu}")
        sample = adversary._sample_subset
        for _ in range(trials):
            seq_a = [sample(rng, n, k) for _ in range(mu)]
            seq_b = [sample(rng, n, k) for _ in range(mu)]
            if seq_a == seq_b:
                successes += 1
        cf = Fraction(1, comb(n, k) ** mu)
        formula = "q_false_set_factor"
    params = {"n": n, "k": k, "mu": mu, "distinct_blocks": distinct_blocks}
    return ProbabilityReport(formula, params, cf, successes, trials, seed)


# ----------------------------------------------------------- figure series


# figure -> (series label, series values, x values, closed form at (series, x));
# a figure's rows run over each series value, then each x
FIGURES = {
    # resilience vs proof count for h in {4,5,6,8}, fixed k=5, n=50
    "10a": ("h", (4, 5, 6, 8), range(5, 11), lambda h, mu: p_mu(5, h, 50, mu)),
    # resilience vs proof count for k in {1..5}, fixed h=4, n=50
    "10b": ("k", range(1, 6), range(5, 11), lambda k, mu: p_mu(k, 4, 50, mu)),
    # resilience vs pool size at (k=5, h=4) for mu in {5,6,8,10}
    "11": ("mu", (5, 6, 8, 10), range(10, 51, 5), lambda mu, n: p_mu(5, 4, n, mu)),
    # leakage vs secrets-per-proof at n=50 for mu in {5,6,8,10}
    "12": ("mu", (5, 6, 8, 10), range(1, 11), lambda mu, k: p_leak(50, k, mu)),
    # false authentication vs k at (n=15, mu=5) for h in {4,5,6,7}
    "13": ("h", (4, 5, 6, 7), range(5, 16), lambda h, k: q_false(k, h, 15, 5)),
}


def figure_series(figure: str) -> list[tuple[str, float, float]]:
    """(series label, x, log10 value) rows for one standard figure."""
    if figure not in FIGURES:
        raise UnknownFigure(figure)
    label, series, xs, closed_form = FIGURES[figure]
    return [(f"{label}={s}", x, log10_fraction(closed_form(s, x))) for s in series for x in xs]


def figure_csv(figure: str) -> str:
    lines = ["series,x,log10_value"]
    for label, x, val in figure_series(figure):
        lines.append(f"{label},{x},{val:.10f}")
    return "\n".join(lines) + "\n"
