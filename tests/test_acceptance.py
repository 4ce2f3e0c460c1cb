"""Acceptance gate: one test per headline claim, one printed verdict line
each. Tolerances are pinned in-line; statistical checks use 3-sigma bands
at the stated trial counts.
"""

import hashlib
import json
import math
import time
from dataclasses import replace
from itertools import combinations

import pytest
from click.testing import CliRunner

from anonauth import adversary, analysis, revocation, simulation, zkp
from anonauth.cli import main as cli_main
from anonauth.numtheory import Rng, generate_blum_modulus, sample_unit
from anonauth.protocol import Outcome, SessionConfig, run_full_session
from anonauth.zkp import SessionPolynomial, ZkpRound
from conftest import build_deployment


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE-{number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1 - p), 1e-300) / trials)


# --------------------------------------------------------------------- 1


def test_criterion_1_cheater_rate():
    trials = 1_000_000
    start = time.monotonic()
    details = []
    ok = True
    for k, h in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rep = analysis.mc_cheater(k, h, trials, seed=101)
        p = float(rep.closed_form)
        band = 3 * _sigma(p, trials)
        good = abs(rep.mc_estimate - p) <= band
        ok = ok and good
        details.append(f"k={k},h={h}: {rep.mc_estimate:.6f} vs {p:.6f}+-{band:.6f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(1, "cheater-rate", ok, "; ".join(details) + f"; {elapsed:.0f}s")


# --------------------------------------------------------------------- 2


def test_criterion_2_bundle_cheat_rate():
    trials = 1_000_000
    rep = analysis.mc_bundle_cheater(2, 1, 3, 1, 1, trials, seed=102)
    p = 1 / 12
    band = 3 * _sigma(p, trials)
    sampled_ok = abs(rep.mc_estimate - p) <= band

    # large parameters: exact evaluation only
    headline = analysis.log10_fraction(analysis.p_mu(5, 4, 50, 5))
    exact_ok = abs(headline - math.log10(1.8475e-62)) < 1e-3

    # monotonicity in h, mu, k, n mirrors the figure-series shapes
    mono_ok = True
    for delta in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        dk, dh, dn, dmu = delta
        base = analysis.p_mu(3, 2, 10, 2)
        moved = analysis.p_mu(3 + dk, 2 + dh, 10 + dn, 2 + dmu)
        mono_ok = mono_ok and moved < base
    for fig in ("10a", "10b", "11"):
        series: dict[str, list[float]] = {}
        for label, _x, val in analysis.figure_series(fig):
            series.setdefault(label, []).append(val)
        for vals in series.values():
            mono_ok = mono_ok and all(a > b for a, b in zip(vals, vals[1:]))

    ok = sampled_ok and exact_ok and mono_ok
    _verdict(
        2,
        "bundle-cheat-rate",
        ok,
        f"mc {rep.mc_estimate:.6f} vs {p:.6f}+-{band:.6f}; "
        f"log10 p_mu(5,4,50,5)={headline:.4f}; monotone={mono_ok}",
    )


# --------------------------------------------------------------------- 3


def test_criterion_3_leakage_probability():
    trials = 100_000
    ok = True
    details = []
    for mu in (1, 5, 10):
        rep = analysis.mc_leak(6, 3, mu, trials, seed=103)
        p = mu / 20
        band = 3 * _sigma(p, trials)
        good = abs(rep.mc_estimate - p) <= band
        ok = ok and good
        details.append(f"mu={mu}: {rep.mc_estimate:.5f} vs {p:.5f}+-{band:.5f}")
    rows = analysis.figure_series("12")
    fig_ok = len(rows) == 40 and {label for label, _, _ in rows} == {
        "mu=5", "mu=6", "mu=8", "mu=10",
    }
    anchor = [v for label, x, v in rows if label == "mu=5" and x == 5]
    fig_ok = fig_ok and anchor[0] == pytest.approx(
        analysis.log10_fraction(analysis.p_leak(50, 5, 5))
    )
    ok = ok and fig_ok
    _verdict(3, "leakage-probability", ok, "; ".join(details) + f"; fig12={fig_ok}")


# --------------------------------------------------------------------- 4


def _full_matrices(secrets, m, k, n, seed):
    matrices = {}
    rng = Rng(seed)
    for ids in combinations(range(1, n + 1), k):
        mat = adversary.SimulatorMatrix(secret_ids=ids)
        r = sample_unit(rng, m)
        w = r * r % m
        for value in range(1 << k):
            y = r
            for i, idx in enumerate(ids):
                if value >> i & 1:
                    y = y * secrets[idx - 1] % m
            mat.add_round(ZkpRound(w=w, challenge=value, y=y))
        assert mat.coverage() == 1.0
        matrices[ids] = mat
    return matrices


def test_criterion_4_simulator_attack():
    n, k, h, alpha = 4, 2, 3, 2
    mod = generate_blum_modulus(24, 104)
    rng = Rng(104)
    secrets = [sample_unit(rng, mod.m) for _ in range(n)]
    witnesses = [s * s % mod.m for s in secrets]
    matrices = _full_matrices(secrets, mod.m, k, n, seed=1040)

    sessions = [[(1, 2), (3, 4)] for _ in range(1_000)]
    basic = adversary.simulator_attack(
        matrices, witnesses, sessions, k, h, alpha, mod.m, Rng(41)
    )
    basic_ok = basic.frequency == 1.0

    poly_rng = Rng(42)
    polys = [
        [zkp.derive_session_polynomial(poly_rng.randbytes(16), k) for _ in range(2)]
        for _ in sessions
    ]
    hardened = adversary.simulator_attack(
        matrices, witnesses, sessions, k, h, alpha, mod.m, Rng(43),
        hardened_polys=polys,
    )
    control = adversary.random_response_control(
        witnesses, sessions, h, alpha, mod.m, Rng(44), Rng(45),
        hardened_polys=polys,
    )
    p1, p2 = hardened.frequency, control.frequency
    pooled = (hardened.successes + control.successes) / (2 * len(sessions))
    band = 3 * math.sqrt(max(pooled * (1 - pooled), 1e-300) * 2 / len(sessions))
    indist_ok = abs(p1 - p2) <= band

    mem_rng = Rng(46)
    mem_ok = True
    for _ in range(20):
        nn = mem_rng.randrange(1, 40)
        kk = mem_rng.randrange(0, nn + 1)
        binom = math.factorial(nn) // (math.factorial(kk) * math.factorial(nn - kk))
        mem_ok = mem_ok and adversary.simulator_memory_cost(nn, kk) == (
            2 ** (2 * kk + 6) * binom
        )

    ok = basic_ok and indist_ok and mem_ok
    _verdict(
        4,
        "simulator-attack",
        ok,
        f"basic={basic.frequency:.3f}; hardened={p1:.4f} vs control={p2:.4f}"
        f" (band {band:.4f}); memory-model={mem_ok}",
    )


# --------------------------------------------------------------------- 5


def test_criterion_5_completeness_and_corruption():
    rng = Rng(105)
    total, accepted = 0, 0
    deployments = 0
    while total < 10_000:
        q = rng.randrange(1, 4)
        k = rng.randrange(1, 7)
        h = rng.randrange(1, 9)
        n = k + rng.randrange(1, 7)
        max_mu = min(8, math.comb(n, k))
        mu = rng.randrange(1, max_mu + 1)
        alpha = rng.randrange(1, min(mu, 5) + 1)
        dep = build_deployment(1050 + deployments, n=n, k=k, q=q, stub=True)
        deployments += 1
        rsu = dep.make_rsu(1)
        obu = dep.make_obu(2)
        cfg = SessionConfig(alpha=alpha, mu=mu, k=k, h=h, n=n, serv_id="INFO")
        sessions = min(100, 10_000 - total)
        # a member exhausts distinct sequences after C(n,k) counters at
        # small parameters; stay inside the PRF's distinctness budget
        sessions = min(sessions, max(1, math.comb(n, k) - mu))
        for _ in range(sessions):
            result, _ = run_full_session(obu, rsu, cfg)
            total += 1
            if result.outcome is Outcome.ACCEPTED:
                accepted += 1
    honest_ok = accepted == total

    # single-secret corruption, member side: k=1 makes 2^-h = 2^-kh exact
    k, h, trials = 1, 4, 2_000
    p = 2.0 ** (-k * h)
    band = 3 * _sigma(p, trials)
    dep = build_deployment(1099, n=4, k=1, stub=True)
    rsu = dep.make_rsu(1)
    obu = dep.make_obu(2)
    bad = sample_unit(Rng(9), obu.credential.modulus)
    obu.credential = replace(obu.credential, master_key=(bad,))
    cfg = SessionConfig(alpha=1, mu=2, k=1, h=h, n=4, serv_id="INFO")
    obu_side = sum(
        run_full_session(obu, rsu, cfg)[0].outcome is Outcome.ACCEPTED
        for _ in range(trials)
    ) / trials
    obu_ok = obu_side <= p + band

    # verifier side: n=2, mu=alpha=2 forces every pool secret into the bundle
    dep = build_deployment(1098, n=2, k=1, stub=True)
    rsu = dep.make_rsu(1)
    obu = dep.make_obu(2)
    pool = list(rsu.credential.pool_secrets[1])
    pool[0] = sample_unit(Rng(8), obu.credential.modulus)
    rsu.credential.pool_secrets[1] = tuple(pool)
    cfg = SessionConfig(alpha=2, mu=2, k=1, h=h, n=2, serv_id="INFO")
    rsu_side = sum(
        run_full_session(obu, rsu, cfg)[0].outcome is Outcome.ACCEPTED
        for _ in range(trials)
    ) / trials
    rsu_ok = rsu_side <= p + band

    ok = honest_ok and obu_ok and rsu_ok
    _verdict(
        5,
        "completeness-and-mutual-auth",
        ok,
        f"honest {accepted}/{total}; corrupted member {obu_side:.4f} and "
        f"verifier {rsu_side:.4f} vs bound {p + band:.4f}",
    )


# --------------------------------------------------------------------- 6


def test_criterion_6_revocation():
    # (a) 100/100 denials with counter drift inside the search window
    rng = Rng(106)
    denied = 0
    dep = build_deployment(1060, n=6, k=2, stub=True)
    cfg = SessionConfig(alpha=1, mu=3, k=2, h=2, n=6, serv_id="INFO")
    for _ in range(100):
        rsu = dep.make_rsu(rng.randrange(0, 2**30))
        obu = dep.make_obu(rng.randrange(0, 2**30))
        drift = rng.randrange(0, revocation.DEFAULT_SEARCH_WINDOW + 1)
        obu.credential.counter = drift
        revocation.broadcast_revocation(obu.credential.iv, 0, [rsu.table])
        result, _ = run_full_session(obu, rsu, cfg)
        if result.outcome is Outcome.REJECTED_REVOKED:
            denied += 1
    denial_ok = denied == 100

    # (b) zero false matches for non-revoked members at (n=15, k=5, mu=5)
    table = revocation.RevocationTable()
    for i in range(50):
        table.upsert(revocation.RevocationEntry(iv=i + 1, last_known_counter=0))
    false_matches = 0
    trial_rng = Rng(1061)
    for _ in range(100_000):
        iv = trial_rng.randbits(62) | (1 << 61)  # disjoint from revoked ivs
        observed = revocation.next_sequence(iv, trial_rng.randrange(0, 100), 15, 5, 5)
        if revocation.screen_session(table, observed, 15, 5, window=64) is not None:
            false_matches += 1
    false_ok = false_matches == 0

    # (c) tiny-parameter collision frequency against both term-count readings
    trials = 100_000
    rep = analysis.mc_sequence_collision(4, 2, 2, trials, seed=1062)
    mu_reading = 1 / 30  # mu factors: 1/(6*5)
    literal_reading = 1 / 120  # mu+1 factors: 1/(6*5*4)
    z_mu = abs(rep.mc_estimate - mu_reading) / _sigma(mu_reading, trials)
    z_lit = abs(rep.mc_estimate - literal_reading) / _sigma(literal_reading, trials)
    reading_ok = z_mu <= 3 and z_lit > 3

    ok = denial_ok and false_ok and reading_ok
    _verdict(
        6,
        "revocation",
        ok,
        f"denied {denied}/100; false matches {false_matches}/100000; "
        f"collision {rep.mc_estimate:.5f}: z={z_mu:.2f} vs mu-reading 1/30, "
        f"z={z_lit:.2f} vs literal 1/120",
    )


# --------------------------------------------------------------------- 7


def test_criterion_7_hardened_zkp():
    # exact worked example: m=21, secrets [2,8], coefficients [3,2],
    # challenge [0,1], R=2 (the prover keeps R^2 = 4) -> Y=10, accepted
    m = 21
    poly = SessionPolynomial(coefficients=(3, 2))
    secrets = [2, 8]
    witnesses = [s * s % m for s in secrets]
    y = zkp.Hardened(poly).respond(4, secrets, 0b10, m)
    w = (2 * 2) % m
    example_ok = y == 10 and zkp.hardened_verify(w, 0b10, y, witnesses, poly, m)

    # 10^4 randomized rounds over small Blum moduli: every round completes
    # or cleanly re-runs on DegenerateEvaluation, and a tampered Y (scaled
    # by a unit other than +-1) never verifies
    rng = Rng(107)
    completed = degenerate = false_accepts = 0
    moduli = [generate_blum_modulus(bits, 107 + bits) for bits in (12, 13, 14, 16)]
    for i in range(10_000):
        mod = moduli[i % len(moduli)]
        k = 2 + (i % 3)
        secrets = [sample_unit(rng, mod.m) for _ in range(k)]
        witnesses = [s * s % mod.m for s in secrets]
        poly = zkp.derive_session_polynomial(rng.randbytes(16), k)
        r2, w = zkp.Hardened(poly).commit(rng, mod.m)
        challenge = rng.randbits(k)
        try:
            y = zkp.Hardened(poly).respond(r2, secrets, challenge, mod.m)
            accepted = zkp.hardened_verify(w, challenge, y, witnesses, poly, mod.m)
        except zkp.DegenerateEvaluation:
            degenerate += 1  # clean re-run path
            continue
        if not accepted:
            false_accepts += 1  # honest round must verify
        completed += 1
        while True:
            u = sample_unit(rng, mod.m)
            if u not in (1, mod.m - 1):
                break
        try:
            if zkp.hardened_verify(w, challenge, y * u % mod.m, witnesses, poly, mod.m):
                false_accepts += 1
        except zkp.DegenerateEvaluation:
            pass
    ok = example_ok and completed + degenerate == 10_000 and false_accepts == 0
    _verdict(
        7,
        "hardened-zkp",
        ok,
        f"worked-example={example_ok}; completed={completed}, "
        f"degenerate-reruns={degenerate}, false-accepts={false_accepts}",
    )


# --------------------------------------------------------------------- 8


def test_criterion_8_simulation_trends():
    start = time.monotonic()
    seeds = range(5)
    alphas = (2, 4, 5)
    loads = (5, 15, 25, 40)
    base = simulation.SimConfig()

    loss = {a: [] for a in alphas}
    delay = {a: [] for a in alphas}
    for alpha in alphas:
        for load in loads:
            cfg = replace(base, alpha=alpha, obus_per_rsu=load)
            runs = [simulation.run_sim(cfg, seed=s) for s in seeds]
            loss[alpha].append(sum(r.packet_loss_ratio for r in runs) / len(runs))
            delay[alpha].append(sum(r.avg_delay_s for r in runs) / len(runs))
    loss_ok = all(
        all(a <= b for a, b in zip(loss[alpha], loss[alpha][1:])) for alpha in alphas
    )
    order_ok = all(
        delay[2][i] < delay[4][i] < delay[5][i] for i in range(len(loads))
    )
    band_ok = all(1e-4 <= d <= 1e-1 for a in alphas for d in delay[a])

    cov_ok = True
    covs = []
    for alpha in alphas:
        per_speed = []
        for speed in simulation.DEFAULT_GRID_SPEEDS:
            cfg = replace(base, alpha=alpha, speed_mps=speed)
            runs = [simulation.run_sim(cfg, seed=s) for s in seeds]
            per_speed.append(sum(r.avg_delay_s for r in runs) / len(runs))
        mean = sum(per_speed) / len(per_speed)
        var = sum((d - mean) ** 2 for d in per_speed) / len(per_speed)
        cov = math.sqrt(var) / mean
        covs.append(cov)
        cov_ok = cov_ok and cov < 0.25
    elapsed = time.monotonic() - start
    ok = loss_ok and order_ok and band_ok and cov_ok and elapsed < 600.0
    _verdict(
        8,
        "simulation-trends",
        ok,
        f"loss-monotone={loss_ok}; alpha-order={order_ok}; band={band_ok}; "
        f"speed-CoV={[f'{c:.3f}' for c in covs]}; {elapsed:.0f}s",
    )


# --------------------------------------------------------------------- 9


def _sha_dir(directory):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(directory.iterdir())
        if f.is_file()
    }


def test_criterion_9_manifest_determinism(tmp_path):
    runner = CliRunner()
    seeds_rng = Rng(109)
    bundle = tmp_path / "bundle"
    result = runner.invoke(
        cli_main,
        ["keygen", "-q", "1", "-n", "6", "-k", "2", "--bit-length", "24",
         "--obus-per-group", "1", "--seed", "7", "--out-dir", str(bundle)],
    )
    assert result.exit_code == 0, result.output

    def invocations(seed):
        return {
            "keygen": ["keygen", "-q", "1", "-n", "5", "-k", "2",
                       "--bit-length", "24", "--seed", str(seed)],
            "auth-demo": ["auth-demo", "--bundle", str(bundle), "--alpha", "1",
                          "--mu", "2", "--seed", str(seed)],
            "analyze": ["analyze", "--mc-formula", "p_leak", "--n", "6", "--k", "3",
                        "--mu", "2", "--trials", "2000", "--seed", str(seed)],
            "attack": ["attack", "simulate", "--sessions", "60", "--seed", str(seed)],
            "revoke-demo": ["revoke-demo", "--seed", str(seed)],
            "simulate": ["simulate", "--sweep", "speed", "--duration", "4.0",
                         "--seed", str(seed)],
        }

    checked = 0
    mismatches = []
    for copy in range(3):
        seed = seeds_rng.randrange(1, 10_000)
        for sub, args in invocations(seed).items():
            out = tmp_path / f"{sub}-{copy}"
            result = runner.invoke(cli_main, args + ["--out-dir", str(out)])
            assert result.exit_code in (0, 3, 4), f"{sub}: {result.output}"
            redo = tmp_path / f"{sub}-{copy}-redo"
            result = runner.invoke(
                cli_main,
                ["rerun", "--manifest", str(out / "manifest.json"),
                 "--out-dir", str(redo)],
            )
            assert result.exit_code == 0, f"rerun {sub}: {result.output}"
            if _sha_dir(out) != _sha_dir(redo):
                mismatches.append(f"{sub}@{seed}")
            checked += 1
    ok = not mismatches and checked == 18
    _verdict(
        9,
        "manifest-determinism",
        ok,
        f"{checked} rerun pairs bit-identical" if ok else f"mismatches: {mismatches}",
    )
