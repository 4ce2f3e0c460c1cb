"""Distributed privilege control.

Each member derives the secret-id sets for its proof bundles from a keyed
PRF stream seeded by (iv, counter), so a verifier that has been handed a
violator's iv can reconstruct the expected sequence on the fly and screen
incoming sessions by exact match. The raw iv never crosses the air.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

from .numtheory import Rng, sample_unit

DEFAULT_SEARCH_WINDOW = 64
# largest pool size n: ids are drawn from 16-bit values, so a larger n
# would leave no value below the rejection span
MAX_POOL_SIZE = 1 << 16

# One block is a sorted k-tuple of distinct ids in [1, n]; a sequence is
# mu pairwise-distinct blocks.
Block = tuple[int, ...]
Sequence_ = tuple[Block, ...]


class ParameterOverflow(ValueError):
    """mu exceeds the number of distinct k-subsets of [1, n]."""


@dataclass(frozen=True)
class RevocationEntry:
    iv: int
    last_known_counter: int
    reason: str = ""
    inserted_at: float = 0.0


@dataclass(frozen=True)
class Match:
    iv: int
    counter: int


@dataclass
class RevocationTable:
    entries: dict[int, RevocationEntry] = field(default_factory=dict)
    version: int = 0
    _index: Optional[_ScreenIndex] = field(default=None, repr=False)

    def upsert(self, entry: RevocationEntry, windows: Optional[dict] = None) -> None:
        """Install ``entry``. A broadcast hands every table one ``windows``
        dict ((n, k, mu, window) -> the entry's window), so tables that
        screen with the same parameters compute the window once."""
        if self._index is not None:  # first, so an entry it cannot rebuild changes nothing
            windows = {} if windows is None else windows
            params = self._index.params
            if params not in windows:
                windows[params] = _window(entry, params)
            self._index.add(entry, windows[params])
        self.entries[entry.iv] = entry
        self.version += 1

    def remove(self, iv: int) -> None:
        if iv in self.entries:
            del self.entries[iv]
            self.version += 1
            if self._index is not None:
                self._index.drop(iv)


def _draw_block(iv: int, counter: int, block_index: int, redraw: int, n: int, k: int) -> Block:
    """k distinct ids in [1, n] from the counter-mode stream SHA-256(iv ||
    counter || block || redraw || chunk), read a byte at a time (two bytes,
    big-endian, when n > 256) and rejection-sampled to stay uniform."""
    prefix = (
        b"seq-prf"
        + iv.to_bytes(8, "big")
        + counter.to_bytes(8, "big")
        + block_index.to_bytes(4, "big")
        + redraw.to_bytes(4, "big")
    )
    wide = n > 256
    span = 65536 - 65536 % n if wide else 256 - 256 % n
    ids: set[int] = set()
    chunk = 0
    while True:
        digest = hashlib.sha256(prefix + chunk.to_bytes(4, "big")).digest()
        chunk += 1
        for v in struct.unpack(">16H", digest) if wide else digest:
            if v < span:
                ids.add(1 + v % n)
                if len(ids) == k:
                    return tuple(sorted(ids))


def next_sequence(iv: int, counter: int, n: int, k: int, mu: int) -> Sequence_:
    """Deterministic mu-block sequence for one authentication session."""
    if not (1 <= k <= n <= MAX_POOL_SIZE) or mu < 1:
        raise ValueError(f"require 1 <= k <= n <= {MAX_POOL_SIZE} and mu >= 1")
    if mu > comb(n, k):
        raise ParameterOverflow(f"mu={mu} exceeds C({n},{k})={comb(n, k)}")
    blocks: list[Block] = []
    seen: set[Block] = set()
    for b in range(mu):
        redraw = 0
        while True:
            block = _draw_block(iv, counter, b, redraw, n, k)
            if block not in seen:
                break
            redraw += 1
        blocks.append(block)
        seen.add(block)
    return tuple(blocks)


def advance_counter(credential) -> None:
    """Bump the member's counter by one after a successful session."""
    credential.counter += 1


def broadcast_revocation(
    iv: int,
    counter_hint: int,
    tables: Sequence[RevocationTable],
    reason: str = "",
    inserted_at: float = 0.0,
) -> None:
    """Install the violator entry in every table; idempotent on repeats.
    The entry's window is computed once per (n, k, mu, window) in use."""
    entry = RevocationEntry(
        iv=iv, last_known_counter=counter_hint, reason=reason, inserted_at=inserted_at
    )
    windows: dict = {}
    for table in tables:
        table.upsert(entry, windows)


def _window(entry: RevocationEntry, params: tuple[int, int, int, int]) -> tuple[Sequence_, ...]:
    """The entry's window+1 sequences, in counter order from its last known counter."""
    n, k, mu, window = params
    first = entry.last_known_counter
    return tuple(next_sequence(entry.iv, c, n, k, mu) for c in range(first, first + window + 1))


class _ScreenIndex:
    """Every entry's window of reconstructed sequences for one (n, k, mu, window).

    ``owners`` maps a sequence to the ivs whose window holds it (one iv's
    window may repeat a sequence, and two ivs may share one); ``windows``
    maps an iv to its first counter and its window's sequences in counter
    order. An upsert recomputes only that iv's window and a remove drops it.
    """

    def __init__(self, params: tuple[int, int, int, int], entries):
        self.params = params
        self.owners: dict[Sequence_, tuple[int, ...]] = {}
        self.windows: dict[int, tuple[int, tuple[Sequence_, ...]]] = {}
        for entry in entries:
            self.add(entry, _window(entry, params))

    def add(self, entry: RevocationEntry, seqs: tuple[Sequence_, ...]) -> None:
        """Index ``entry`` with its window ``seqs`` (see ``_window``)."""
        self.drop(entry.iv)
        self.windows[entry.iv] = (entry.last_known_counter, seqs)
        for seq in set(seqs):
            self.owners[seq] = self.owners.get(seq, ()) + (entry.iv,)

    def drop(self, iv: int) -> None:
        if iv not in self.windows:
            return
        _, seqs = self.windows.pop(iv)
        for seq in set(seqs):
            rest = tuple(owner for owner in self.owners[seq] if owner != iv)
            if rest:
                self.owners[seq] = rest
            else:
                del self.owners[seq]

    def lookup(self, observed: Sequence_, order) -> Optional[Match]:
        """The first owner in ``order`` (the table's entry order) at its
        smallest counter, as a from-scratch build in that order finds it."""
        owners = self.owners.get(observed)
        if owners is None:
            return None
        iv = owners[0] if len(owners) == 1 else next(iv for iv in order if iv in owners)
        first, seqs = self.windows[iv]
        return Match(iv=iv, counter=first + seqs.index(observed))


def screen_session(
    table: RevocationTable,
    observed_sets: Sequence[Sequence[int]],
    n: int,
    k: int,
    window: int = DEFAULT_SEARCH_WINDOW,
) -> Optional[Match]:
    """Exact-match the observed sets against every entry's reconstructed window.

    Returns a ``Match`` or None. The table keeps its reconstructions per
    entry: the first call for an (n, k, mu, window) builds every entry's
    window+1 sequences, each later upsert recomputes only that entry's and
    a remove drops them, so steady-state screening is one dict lookup.
    """
    if not table.entries:
        return None
    mu = len(observed_sets)
    observed = tuple(tuple(sorted(s)) for s in observed_sets)
    params = (n, k, mu, window)
    if table._index is None or table._index.params != params:
        table._index = _ScreenIndex(params, table.entries.values())
    return table._index.lookup(observed, table.entries)


def garble_witnesses(k: int, m: int, rng: Rng) -> tuple[int, ...]:
    """Random units substituted for a flagged track's master witnesses."""
    return tuple(sample_unit(rng, m) for _ in range(k))


def encode_broadcast(iv: int, counter_hint: int, reason: str, version: int) -> str:
    return json.dumps(
        {
            "format_version": 1,
            "kind": "revocation_broadcast",
            "iv": str(iv),
            "counter_hint": counter_hint,
            "reason": reason,
            "version": version,
        },
        sort_keys=True,
    )


def decode_broadcast(text: str) -> tuple[int, int, str, int]:
    d = json.loads(text)
    if d.get("kind") != "revocation_broadcast":
        raise ValueError("not a revocation broadcast record")
    return int(d["iv"]), d["counter_hint"], d["reason"], d["version"]
