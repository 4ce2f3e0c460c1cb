"""The four workloads.

Each is a closed loop from one process, one thread and one client: the
next operation starts when the previous one has returned. All inputs come
from the workload seed. A workload runs in whole cycles; ``setup`` builds
a fresh state and ``cycle`` runs one cycle of operations into an ``OpLog``.
"""

from __future__ import annotations

import collections
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

from anonauth import (
    analysis,
    envelopes,
    keymgmt,
    numtheory,
    protocol,
    revocation,
    simulation,
)
from anonauth.numtheory import Rng
from anonauth.protocol import Outcome
from anonauth.zkp import Variant

# The paper's parameters for a session.
K, H, N, MU, ALPHA = 5, 4, 50, 5, 2
WINDOW = revocation.DEFAULT_SEARCH_WINDOW

# The 2048-bit modulus is a fixed public parameter of a deployment. Its
# generation time swings 1-4 s with the seed, so a fixed modulus seed keeps
# set-up time comparable between runs; keys and traffic still follow --seed.
MODULUS_SEED = 1

# An estimator fails when its estimate, pooled over a run, is further than
# this many standard errors from the closed form. The library's 3-sigma
# ``ProbabilityReport.passed`` misses about 1 correct call in 370, and a run
# makes over a thousand calls, so those misses are counted, not failed.
MC_SIGMAS = 5.0


class OpLog:
    """Outcomes and latencies of the operations of one measured phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        # latency samples as measured, and scaled to the reference speed
        self.latency: dict[str, list[float]] = collections.defaultdict(list)
        self.scaled: dict[str, list[float]] = collections.defaultdict(list)
        self.units = 0  # work done, for ops_per_s
        self.outcomes: list = []  # compared between the untraced and traced batch
        self.cycles = 0
        self.wall = 0.0  # scaled to the reference speed
        self.raw_wall = 0.0  # as measured
        self.info: dict[str, tuple[float, str]] = {}

    def begin(self) -> int:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.session_id = self.attempted
        return self.attempted

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def close_cycle(self, factor: float) -> None:
        """Scale the samples of the cycle that just ended by ``factor``."""
        self.cycles += 1
        for kind, samples in self.latency.items():
            scaled = self.scaled[kind]
            scaled.extend(s * factor for s in samples[len(scaled):])


def _unique_iv(rng: Rng, used: set) -> int:
    while True:
        iv = rng.randbits(64)
        if iv not in used:
            used.add(iv)
            return iv


def _member_config(variant: Variant) -> protocol.SessionConfig:
    return protocol.SessionConfig(
        alpha=ALPHA, mu=MU, k=K, h=H, n=N, serv_id="INFO", variant=variant
    )


CONFIGS = {v: _member_config(v) for v in (Variant.BASIC, Variant.HARDENED)}


def _session(state, obu, variant: Variant, expected: Outcome, kind: str, log: OpLog) -> None:
    """One timed ``run_full_session``; a wrong outcome stays in the sample."""
    op = log.begin()
    t0 = time.perf_counter()
    try:
        result, _ = protocol.run_full_session(obu, state.rsu, CONFIGS[variant])
        outcome = result.outcome
    except Exception:  # a session that raises is a failed operation
        outcome = traceback.format_exc(limit=3)
    log.latency[kind].append(time.perf_counter() - t0)
    log.units += 1
    log.outcomes.append(outcome)
    if outcome is not expected:
        log.fail(f"session {op} ({kind}, {variant.value}, iv {obu.credential.iv:#x}): "
                 f"expected {expected.value}, got {getattr(outcome, 'value', outcome)}")


# ------------------------------------------------------------------ auth


@dataclass
class AuthState:
    rsu: protocol.Rsu
    honest: list
    revoked: list  # members on the table when the phase starts
    violators: list  # members a broadcast revokes during the phase
    table_ivs: collections.deque  # iv of every table entry, oldest first
    rng: Rng
    next_honest: int = 0
    next_revoked: int = 0
    next_violator: int = 0


def _auth_setup(seed: int, bits: int, modulus_seed: int, honest: int,
                revoked: int, violators: int, table_size: int) -> AuthState:
    """Key ceremony, provisioning, table fill and a warm first screen."""
    rng = Rng(seed)
    modulus = numtheory.generate_blum_modulus(bits, modulus_seed)
    kdc = keymgmt.Kdc(seed=rng.randbits(63))
    groups = keymgmt.form_groups(1, N, K, modulus, rng)
    priv, pub = envelopes.generate_seal_keypair(rng)
    cert = kdc.issue_certificate(0, pub)
    rsu = protocol.Rsu(keymgmt.provision_rsu(groups, 0, cert, priv, modulus), rng.split())
    root = kdc.root_public_key()
    used: set[int] = set()

    def members(count: int, history: bool) -> list:
        out = []
        for _ in range(count):
            cred = keymgmt.provision_obu(kdc, groups[0], len(used), _unique_iv(rng, used), modulus)
            if history:  # a member that has authenticated before
                cred.counter = rng.randrange(0, 1000)
            out.append(protocol.Obu(cred, root, rng.split()))
        return out

    state = AuthState(
        rsu=rsu,
        honest=members(honest, False),
        revoked=members(revoked, True),
        violators=members(violators, True),
        table_ivs=collections.deque(),
        rng=rng,
    )
    for obu in state.revoked:
        _revoke(state, obu)
    while len(state.table_ivs) < table_size:
        iv = _unique_iv(rng, used)
        revocation.broadcast_revocation(iv, rng.randrange(0, 1000), [rsu.table])
        state.table_ivs.append(iv)
    probe = revocation.next_sequence(rng.randbits(64), 0, N, K, MU)
    revocation.screen_session(rsu.table, probe, N, K, window=WINDOW)
    return state


def _revoke(state: AuthState, obu) -> None:
    """Broadcast ``obu`` with a counter hint inside the screening window."""
    cred = obu.credential
    hint = max(0, cred.counter - state.rng.randrange(0, WINDOW + 1))
    revocation.broadcast_revocation(cred.iv, hint, [state.rsu.table])
    state.table_ivs.append(cred.iv)


def _honest_session(state: AuthState, log: OpLog) -> None:
    i = state.next_honest
    state.next_honest += 1
    obu = state.honest[i % len(state.honest)]
    variant = Variant.BASIC if i % 2 == 0 else Variant.HARDENED
    _session(state, obu, variant, Outcome.ACCEPTED, variant.value, log)


def _session_summary(log: OpLog, kinds) -> None:
    for kind in kinds:
        samples = log.scaled.get(kind, [])
        p50, p90 = percentiles_ms(samples)
        log.info[f"{kind}_session_p50_ms"] = (p50, "ms")
        log.info[f"{kind}_session_p90_ms"] = (p90, "ms")
        log.info[f"{kind}_sessions"] = (len(samples), "count")
    log.info["sessions_per_s"] = (log.units / log.wall if log.wall else 0.0, "1/s")


class Auth2048:
    """Deployment case: a 2048-bit modulus and the real envelopes."""

    name = "auth-2048"
    op_kind = "hardened"
    trace_cycles = 4
    round_cycles = 1
    cycle_len = 10  # one session in ten comes from a revoked member

    def __init__(self, tiny: bool):
        self.bits = 256 if tiny else 2048
        self.table_size = 10 if tiny else 100

    def setup(self, seed: int) -> AuthState:
        return _auth_setup(seed, self.bits, MODULUS_SEED, honest=16, revoked=8,
                           violators=0, table_size=self.table_size)

    def cycle(self, state: AuthState, log: OpLog) -> None:
        revoked_slot = state.rng.randrange(self.cycle_len)
        for slot in range(self.cycle_len):
            if slot == revoked_slot:
                obu = state.revoked[state.next_revoked % len(state.revoked)]
                state.next_revoked += 1
                _session(state, obu, Variant.BASIC, Outcome.REJECTED_REVOKED, "revoked", log)
            else:
                _honest_session(state, log)

    def summarize(self, state: AuthState, log: OpLog) -> None:
        _session_summary(log, ("basic", "hardened"))


class AuthChurn:
    """Revocation writes beside reads on a 64-bit modulus."""

    name = "auth-churn"
    op_kind = "post_revoke"
    trace_cycles = 16
    round_cycles = 1
    honest_per_cycle = 3

    def __init__(self, tiny: bool):
        self.table_size = 4 if tiny else 64

    def setup(self, seed: int) -> AuthState:
        # a small modulus is quick to make, so it follows the seed
        return _auth_setup(seed, 64, seed, honest=16, revoked=0,
                           violators=256, table_size=self.table_size)

    def cycle(self, state: AuthState, log: OpLog) -> None:
        obu = state.violators[state.next_violator % len(state.violators)]
        state.next_violator += 1
        _revoke(state, obu)
        state.rsu.table.remove(state.table_ivs.popleft())
        _session(state, obu, Variant.BASIC, Outcome.REJECTED_REVOKED, "post_revoke", log)
        for _ in range(self.honest_per_cycle):
            _honest_session(state, log)

    def summarize(self, state: AuthState, log: OpLog) -> None:
        _session_summary(log, ("basic", "hardened", "post_revoke"))


# -------------------------------------------------------------- road-sim


@dataclass
class SimState:
    cells: list  # one SimConfig per grid cell
    rng: Rng
    position: int = 0  # next cycle's place in the pass
    seeds: list = field(default_factory=list)  # this pass's seed per cell
    first: object = None  # SimMetrics of the pass's first cell


class RoadSim:
    """Criterion 8's grid: alpha in {2, 4, 5} x load in {5, 15, 25, 40}.

    A cycle is one cell; a pass is every cell and then the first (smallest)
    one again with the same seed, which must give identical metrics.
    """

    name = "road-sim"
    op_kind = "sim"

    def __init__(self, tiny: bool):
        alphas = (2,) if tiny else (2, 4, 5)
        loads = (5,) if tiny else (5, 15, 25, 40)
        base = simulation.SimConfig(duration_s=8.0) if tiny else simulation.SimConfig()
        self.cells = [replace(base, alpha=a, obus_per_rsu=load) for a in alphas for load in loads]
        self.round_cycles = self.trace_cycles = len(self.cells) + 1

    def setup(self, seed: int) -> SimState:
        return SimState(cells=self.cells, rng=Rng(seed))

    def cycle(self, state: SimState, log: OpLog) -> None:
        latencies = log.latency["sim"]
        original = protocol.run_full_session

        def timed(*args, **kwargs):  # latency of each in-sim session
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            latencies.append(time.perf_counter() - t0)
            return result

        if state.position == 0:
            state.seeds = [state.rng.randbits(32) for _ in state.cells]
        index = state.position if state.position < len(state.cells) else 0
        protocol.run_full_session = timed
        try:
            metrics = self._cell(state.cells[index], state.seeds[index], log)
        finally:
            protocol.run_full_session = original
        if state.position == 0:
            state.first = metrics
        elif index == 0 and metrics is not None and metrics != state.first:
            log.fail(f"repeating cell alpha={state.cells[0].alpha} "
                     f"load={state.cells[0].obus_per_rsu} seed={state.seeds[0]} "
                     "changed its metrics")
        state.position = (state.position + 1) % self.round_cycles

    def _cell(self, cfg, seed: int, log: OpLog):
        op = log.begin()
        try:
            metrics = simulation.run_sim(cfg, seed)
        except Exception:  # a cell that raises is a failed operation
            log.fail(f"cell {op}: {traceback.format_exc(limit=3)}")
            log.outcomes.append(None)
            return None
        log.units += metrics.sessions_attempted
        log.outcomes.append((metrics.sessions_attempted, metrics.sessions_accepted,
                             metrics.sessions_lost, metrics.avg_delay_s))
        if not metrics.conservation_holds():
            log.fail(f"cell {op} alpha={cfg.alpha} load={cfg.obus_per_rsu}: "
                     "attempted != accepted + rejected + lost")
        return metrics

    def summarize(self, state: SimState, log: OpLog) -> None:
        log.info["sim_sessions_per_s"] = (log.units / log.wall if log.wall else 0.0, "1/s")
        log.info["sim_sessions"] = (len(log.latency["sim"]), "count")


# ------------------------------------------------------------- mc-oracle


def _estimators(trials: int):
    """(label, call(seed)) for every Monte Carlo estimator of a pass."""
    out = [(f"p_cheater k={k} h={h}",
            lambda s, k=k, h=h: analysis.mc_cheater(k, h, trials, s))
           for k, h in ((1, 1), (2, 1), (2, 2), (3, 2))]
    out.append(("p_mu 2,1,3,1,1", lambda s: analysis.mc_bundle_cheater(2, 1, 3, 1, 1, trials, s)))
    out += [(f"p_leak 6,3,{mu}", lambda s, mu=mu: analysis.mc_leak(6, 3, mu, trials, s))
            for mu in (1, 5, 10)]
    out.append(("p_missed 4,2,2", lambda s: analysis.mc_sequence_collision(4, 2, 2, trials, s)))
    return out


@dataclass
class McState:
    rng: Rng
    # label -> [closed form, successes, trials]
    totals: dict = field(default_factory=dict)
    calls: int = 0
    misses_3sigma: int = 0  # calls whose own ProbabilityReport.passed is false


class McOracle:
    """The Monte Carlo oracles behind criteria 1, 2, 3 and 6."""

    name = "mc-oracle"
    op_kind = "pass"
    trace_cycles = 10
    round_cycles = 1

    def __init__(self, tiny: bool):
        self.estimators = _estimators(100 if tiny else 1000)

    def setup(self, seed: int) -> McState:
        return McState(rng=Rng(seed))

    def cycle(self, state: McState, log: OpLog) -> None:
        """One call of every estimator; a pass is one latency sample."""
        t0 = time.perf_counter()
        for label, call in self.estimators:
            op = log.begin()
            try:
                report = call(state.rng.randbits(32))
            except Exception:  # an estimator that raises is a failed operation
                log.fail(f"estimator {op} {label}: {traceback.format_exc(limit=3)}")
                log.outcomes.append(None)
                continue
            successes = round(report.mc_estimate * report.trials)
            total = state.totals.setdefault(label, [report.closed_form, 0, 0])
            total[1] += successes
            total[2] += report.trials
            log.units += report.trials
            log.outcomes.append((label, successes))
            state.calls += 1
            state.misses_3sigma += not report.passed
        log.latency["pass"].append(time.perf_counter() - t0)

    def summarize(self, state: McState, log: OpLog) -> None:
        """Pool each estimator's trials over the phase and check the band."""
        for label, (closed_form, successes, trials) in state.totals.items():
            estimate = successes / trials
            stderr = math.sqrt(max(estimate * (1 - estimate), 1e-300) / trials)
            if abs(float(closed_form) - estimate) > MC_SIGMAS * stderr:
                log.fail(f"{label}: pooled estimate {estimate:.6f} over {trials} trials is "
                         f"more than {MC_SIGMAS:g} standard errors from {float(closed_form):.6f}")
        log.info["mc_trials_per_s"] = (log.units / log.wall if log.wall else 0.0, "1/s")
        log.info["estimator_calls"] = (state.calls, "count")
        log.info["estimator_calls_outside_3_sigma"] = (state.misses_3sigma, "count")


WORKLOADS = {w.name: w for w in (Auth2048, AuthChurn, RoadSim, McOracle)}


def percentiles_ms(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds."""
    if len(samples) < 2:
        return (samples[0] * 1e3,) * 2 if samples else (0.0, 0.0)
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return q[49] * 1e3, q[89] * 1e3
