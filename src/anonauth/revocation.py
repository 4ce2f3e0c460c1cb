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

DEFAULT_SEARCH_WINDOW = 64
# largest pool size n: ids are drawn from 16-bit values, so a larger n
# would leave no value below the rejection span
MAX_POOL_SIZE = 1 << 16
# ivs and counters are 64-bit values; the last counter cannot advance
COUNTER_LIMIT = 1 << 64
# the PRF input's prefix: tag, iv, counter, block, redraw
_PRF_PREFIX = struct.Struct(">7sQQII")

# One block is a sorted k-tuple of distinct ids in [1, n]; a sequence is
# mu pairwise-distinct blocks.
Block = tuple[int, ...]
Sequence_ = tuple[Block, ...]


class ParameterOverflow(ValueError):
    """mu exceeds the number of distinct k-subsets of [1, n]."""


class CounterOverflow(ValueError):
    """An iv or counter that is not a 64-bit value, such as the counter past the last."""


@dataclass(frozen=True)
class RevocationEntry:
    iv: int
    last_known_counter: int

    def __post_init__(self):
        if not (0 <= self.iv < COUNTER_LIMIT and 0 <= self.last_known_counter < COUNTER_LIMIT):
            raise ValueError("iv and last_known_counter must be 64-bit values")


@dataclass(frozen=True)
class Match:
    iv: int
    counter: int


@dataclass
class RevocationTable:
    entries: dict[int, RevocationEntry] = field(default_factory=dict)
    version: int = 0
    _index: Optional[_ScreenIndex] = field(default=None, repr=False)

    def upsert(self, entry: RevocationEntry) -> None:
        """Install ``entry``; a warm table draws its window into the index."""
        if self._index is not None:  # first, so an entry it cannot rebuild changes nothing
            self._index.add(entry, _window(entry, self._index.params))
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
    prefix = _PRF_PREFIX.pack(b"seq-prf", iv, counter, block_index, redraw)
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


def _head(iv: int, counter: int, n: int, k: int) -> Block:
    """The first block of (iv, counter)'s sequence, ``next_sequence(...)[0]``
    for every mu: block 0 is never redrawn."""
    return _draw_block(iv, counter, 0, 0, n, k)


def check_params(n: int, k: int, mu: int) -> None:
    """The set-space rule: 1 <= k <= n <= MAX_POOL_SIZE and 1 <= mu <= C(n, k)."""
    if not (1 <= k <= n <= MAX_POOL_SIZE) or mu < 1:
        raise ValueError(f"require 1 <= k <= n <= {MAX_POOL_SIZE} and mu >= 1")
    if mu > comb(n, k):
        raise ParameterOverflow(f"mu={mu} exceeds C({n},{k})={comb(n, k)}")


def next_sequence(iv: int, counter: int, n: int, k: int, mu: int) -> Sequence_:
    """Deterministic mu-block sequence for one authentication session."""
    check_params(n, k, mu)
    if not (0 <= iv < COUNTER_LIMIT and 0 <= counter < COUNTER_LIMIT):
        raise CounterOverflow(f"iv {iv} or counter {counter} is not a 64-bit value")
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


def broadcast_revocation(iv: int, counter_hint: int, tables: Sequence[RevocationTable]) -> None:
    """Install the violator entry in every table; idempotent on repeats."""
    entry = RevocationEntry(iv=iv, last_known_counter=counter_hint)
    for table in tables:
        table.upsert(entry)


def _window(entry: RevocationEntry, params: tuple[int, int, int]) -> tuple[Block, ...]:
    """The heads of the entry's window+1 sequences (fewer where the window
    would pass the last 64-bit counter), in counter order from its last
    known counter."""
    n, k, window = params
    first = entry.last_known_counter
    last = min(first + window, COUNTER_LIMIT - 1)
    return tuple(_head(entry.iv, c, n, k) for c in range(first, last + 1))


class _ScreenIndex:
    """Every entry's window of sequence heads for one (n, k, window), which
    serves every mu: a head is block 0, drawn before mu is read.

    ``owners`` maps a first block to the ivs whose window starts a sequence
    with it (one iv's window may repeat a head, and two ivs may share one);
    ``windows`` maps an iv to its first counter and its window's heads in
    counter order. An upsert draws only that iv's heads and a remove drops
    them; a lookup confirms a head match with the full ``next_sequence``.
    """

    def __init__(self, params: tuple[int, int, int], entries):
        self.params = params
        self.owners: dict[Block, tuple[int, ...]] = {}
        self.windows: dict[int, tuple[int, tuple[Block, ...]]] = {}
        for entry in entries:
            self.add(entry, _window(entry, params))

    def add(self, entry: RevocationEntry, heads: tuple[Block, ...]) -> None:
        """Index ``entry`` with its window's ``heads`` (see ``_window``)."""
        self.drop(entry.iv)
        self.windows[entry.iv] = (entry.last_known_counter, heads)
        for head in set(heads):
            self.owners[head] = self.owners.get(head, ()) + (entry.iv,)

    def drop(self, iv: int) -> None:
        if iv not in self.windows:
            return
        _, heads = self.windows.pop(iv)
        for head in set(heads):
            rest = tuple(owner for owner in self.owners[head] if owner != iv)
            if rest:
                self.owners[head] = rest
            else:
                del self.owners[head]

    def lookup(self, observed: Sequence_, order) -> Optional[Match]:
        """The first (iv, counter) in ``order`` (the table's entry order),
        counters ascending, whose sequence is ``observed``, as a from-scratch
        build of full sequences in that order finds it."""
        owners = self.owners.get(observed[0])
        if owners is None:
            return None
        (n, k, _), mu = self.params, len(observed)
        for iv in owners if len(owners) == 1 else [iv for iv in order if iv in owners]:
            first, heads = self.windows[iv]
            for offset, head in enumerate(heads):
                if head == observed[0] and next_sequence(iv, first + offset, n, k, mu) == observed:
                    return Match(iv=iv, counter=first + offset)
        return None


def screen_session(
    table: RevocationTable,
    observed_sets: Sequence[Sequence[int]],
    n: int,
    k: int,
    window: int = DEFAULT_SEARCH_WINDOW,
) -> Optional[Match]:
    """Exact-match the observed sets against every entry's reconstructed window.

    Returns a ``Match`` or None. The table keeps an index of first blocks
    per entry: the first call for an (n, k, window) draws every entry's
    window+1 heads, each later upsert draws only that entry's and a remove
    drops them. A session whose first block heads no indexed sequence costs
    one dict lookup; a head match is confirmed by its full sequence. A
    ``window`` that is not an int >= 0 is a ``ValueError``.
    """
    if type(window) is not int or window < 0:
        raise ValueError(f"window must be an int >= 0, got {window!r}")
    if not table.entries:
        return None
    check_params(n, k, len(observed_sets))
    observed = tuple(tuple(sorted(s)) for s in observed_sets)
    params = (n, k, window)
    if table._index is None or table._index.params != params:
        table._index = _ScreenIndex(params, table.entries.values())
    return table._index.lookup(observed, table.entries)


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
