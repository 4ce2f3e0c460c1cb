"""Deterministic discrete-event simulation of verifiers on a ring road and
mobile members running full authentication sessions over a lossy,
queue-limited channel.

The channel model's constants are explicit (the reference experiment's
radio stack is not recoverable) and calibrated so average delays land in
the same decade as the reference readings. Trends, not absolute
values, are the contract.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from math import inf, isfinite

from . import keymgmt, protocol
from .numtheory import Rng, generate_blum_modulus
from .protocol import Obu, Outcome, Rsu, SessionConfig

DEFAULT_GRID_LOADS = (5, 10, 15, 20, 25, 30, 35, 40)
DEFAULT_GRID_SPEEDS = (14.0, 17.0, 20.0, 22.0, 25.0, 27.0)
ALPHA_PACKET_BYTES = {2: 50, 4: 100, 5: 125}
SESSION_INTERVAL_S = 8.0  # each member opens a session this often

# the road: a ring of RSU_COUNT verifiers; a range over half the spacing
# puts every point of the ring in range of its nearest verifier
RSU_COUNT = 10
RSU_SPACING_M = 900.0
COMM_RANGE_M = 500.0
MODULUS_BITS = 32
# the config of every in-sim session, per alpha
SESSIONS = {a: SessionConfig(a, mu=5, k=2, h=2, n=8, serv_id="INFO") for a in ALPHA_PACKET_BYTES}

# channel model
BASE_LOSS = 0.002
PER_BYTE_SERVICE_S = 2.0e-5
PROPAGATION_MPS = 3.0e8
QUEUE_CAPACITY = 50
OCCUPANCY_LOSS_COEFF = 0.05


class InvalidConfig(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    obus_per_rsu: int = 10  # load
    speed_mps: float = 20.0
    alpha: int = 2
    duration_s: float = 40.0

    def __post_init__(self):
        if self.obus_per_rsu < 0 or not isfinite(self.speed_mps):
            raise InvalidConfig("load must be at least 0 and speed finite")
        if not 0 < self.duration_s < inf:
            raise InvalidConfig("duration must be positive and finite")
        if self.alpha not in SESSIONS:
            raise InvalidConfig(f"alpha={self.alpha} has no packet-size mapping")


@dataclass
class SimMetrics:
    alpha: int
    load: int
    speed: float
    avg_delay_s: float
    packet_loss_ratio: float
    sessions_attempted: int
    sessions_accepted: int
    sessions_rejected: int
    sessions_lost: int
    packets_sent: int
    packets_lost: int

    def conservation_holds(self) -> bool:
        return self.sessions_attempted == (
            self.sessions_accepted + self.sessions_rejected + self.sessions_lost
        )


@dataclass
class _RsuNode:
    position: float
    endpoint: Rsu
    busy_until: float = 0.0
    active_sessions: int = 0


@dataclass
class _ObuNode:
    position0: float
    endpoint: Obu
    busy: bool = False


class _Sim:
    """One run: a heap of (time, seq, kind, payload) events."""

    def __init__(self, config: SimConfig, seed: int):
        self.config = config
        self.session = SESSIONS[config.alpha]
        self.rng = Rng(seed)
        self.line_length = RSU_COUNT * RSU_SPACING_M
        self.events: list = []
        self._seq = 0
        self.metrics = SimMetrics(
            config.alpha, config.obus_per_rsu, config.speed_mps, 0.0, 0.0, 0, 0, 0, 0, 0, 0
        )
        self.delays: list[float] = []
        # expected transmitters inside one verifier's range: member density
        # times covered length; this is what couples loss to offered load
        self.contention = config.obus_per_rsu * 2 * COMM_RANGE_M / RSU_SPACING_M
        self._build_world()

    def _build_world(self):
        modulus = generate_blum_modulus(MODULUS_BITS, self.rng.randbits(63))
        root, obu_creds, rsu_creds = keymgmt.deploy(
            modulus, self.rng, self.rng.randbits(63), 1, self.session.n, self.session.k,
            RSU_COUNT * self.config.obus_per_rsu, 1, RSU_COUNT, stub=True,
        )
        # deterministic stub envelopes keep per-run crypto costs down while
        # the proof arithmetic stays real; the endpoints' logical clocks stay
        # at 0, so every session runs at one instant and is always fresh
        self.rsus: list[_RsuNode] = []
        for i, cred in enumerate(rsu_creds):
            endpoint = Rsu(cred, self.rng.split(), stub=True)
            self.rsus.append(_RsuNode(position=(i + 0.5) * RSU_SPACING_M, endpoint=endpoint))
        for cred in obu_creds:
            endpoint = Obu(cred, root, self.rng.split(), stub=True)
            node = _ObuNode(position0=self.rng.random() * self.line_length, endpoint=endpoint)
            self.push(self.rng.random() * SESSION_INTERVAL_S, "attempt", node)

    # ---------------------------------------------------------------- events

    def push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (time, self._seq, kind, payload))
        self._seq += 1

    def obu_position(self, node: _ObuNode, t: float) -> float:
        return (node.position0 + self.config.speed_mps * t) % self.line_length

    def ring_distance(self, a: float, b: float) -> float:
        d = abs(a - b) % self.line_length
        return min(d, self.line_length - d)

    def run(self) -> SimMetrics:
        while self.events:
            t, _seq, kind, payload = heapq.heappop(self.events)
            if kind == "attempt":
                # stop opening sessions at the horizon; in-flight ones drain
                if t <= self.config.duration_s:
                    self._handle_attempt(t, payload)
            elif kind == "message":
                self._handle_message(t, payload)
        m = self.metrics
        m.avg_delay_s = sum(self.delays) / len(self.delays) if self.delays else 0.0
        m.packet_loss_ratio = m.packets_lost / m.packets_sent if m.packets_sent else 0.0
        return m

    def _handle_attempt(self, t: float, node: _ObuNode) -> None:
        next_attempt = t + SESSION_INTERVAL_S
        if next_attempt <= self.config.duration_s:
            self.push(next_attempt, "attempt", node)
        if node.busy:
            return
        # the first of the verifiers nearest the member, always in range
        pos = self.obu_position(node, t)
        rsu = min(self.rsus, key=lambda r: self.ring_distance(pos, r.position))
        node.busy = True
        rsu.active_sessions += 1
        self.metrics.sessions_attempted += 1
        self.push(t, "message", (node, rsu, 0))

    def _handle_message(self, t: float, payload) -> None:
        node, rsu, msg_idx = payload
        # the channel model's packets per session: request, sets, membership
        # proof, one per bundle proof and the closing reply; the protocol
        # itself sends ten frames whatever mu is, three per exchange (each
        # batching all its proofs' rounds)
        n_messages = 4 + self.session.mu
        pos = self.obu_position(node, t)
        dist = self.ring_distance(pos, rsu.position)
        if dist > COMM_RANGE_M:
            # moved out of range mid-session: remaining packets are lost
            self.metrics.packets_sent += n_messages - msg_idx
            self.metrics.packets_lost += n_messages - msg_idx
            self._finish_session(node, rsu, lost=True)
            return
        self.metrics.packets_sent += 1
        occupancy = min(1.0, (self.contention + rsu.active_sessions) / QUEUE_CAPACITY)
        loss_p = min(1.0, BASE_LOSS + OCCUPANCY_LOSS_COEFF * occupancy)
        if self.rng.random() < loss_p:
            self.metrics.packets_lost += 1
            self._finish_session(node, rsu, lost=True)
            return
        bytes_ = ALPHA_PACKET_BYTES[self.config.alpha]
        service = bytes_ * PER_BYTE_SERVICE_S
        wait = max(0.0, rsu.busy_until - t)
        rsu.busy_until = t + wait + service
        delay = wait + service + dist / PROPAGATION_MPS
        self.delays.append(delay)
        delivered_at = t + delay
        if msg_idx + 1 < n_messages:
            self.push(delivered_at, "message", (node, rsu, msg_idx + 1))
            return
        result, _ = protocol.run_full_session(node.endpoint, rsu.endpoint, self.session)
        if result.outcome is Outcome.ACCEPTED:
            self.metrics.sessions_accepted += 1
        else:
            self.metrics.sessions_rejected += 1
        self._finish_session(node, rsu, lost=False)

    def _finish_session(self, node: _ObuNode, rsu: _RsuNode, lost: bool) -> None:
        node.busy = False
        rsu.active_sessions -= 1
        if lost:
            self.metrics.sessions_lost += 1


def run_sim(config: SimConfig, seed: int) -> SimMetrics:
    """Deterministic for (config, seed)."""
    return _Sim(config, seed).run()


def sweep(config: SimConfig, dimension: str, seed: int) -> list[SimMetrics]:
    """One metrics row per (alpha, grid value), for every alpha with a packet
    size, over ``DEFAULT_GRID_LOADS`` or ``DEFAULT_GRID_SPEEDS``; one panel
    per alpha in the reference layout."""
    if dimension not in ("load", "speed"):
        raise InvalidConfig(f"unknown sweep dimension {dimension!r}")
    name, values = (
        ("obus_per_rsu", DEFAULT_GRID_LOADS) if dimension == "load"
        else ("speed_mps", DEFAULT_GRID_SPEEDS)
    )
    return [
        run_sim(replace(config, alpha=alpha, **{name: value}), seed)
        for alpha in SESSIONS
        for value in values
    ]


def sweep_csv(rows: list[SimMetrics], dimension: str) -> str:
    lines = ["alpha,sweep_value,avg_delay_s,loss_ratio,attempted,accepted"]
    for r in rows:
        value = r.load if dimension == "load" else r.speed
        lines.append(
            f"{r.alpha},{value},{r.avg_delay_s:.9f},{r.packet_loss_ratio:.9f},"
            f"{r.sessions_attempted},{r.sessions_accepted}"
        )
    return "\n".join(lines) + "\n"
