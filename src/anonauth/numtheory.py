"""Arbitrary-precision modular arithmetic and Blum-modulus generation.

Everything here is deterministic given an explicit ``Rng``; no ambient
randomness is ever consulted.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

_TRIAL_DIVISION_LIMIT = 1 << 20
_MILLER_RABIN_ROUNDS = 64
# Miller-Rabin candidates this wide first seek factors up to _FACTOR_BOUND
_FACTOR_MIN_BITS, _FACTOR_BOUND = 256, 1 << 14

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# psi_12, the least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_PSI_12 = 318665857834031151167461


class NotInvertible(ValueError):
    """Raised when a modular inverse is requested for a non-unit."""


class Rng:
    """Seedable, splittable PRNG state.

    Thin wrapper over ``random.Random`` that adds ``split()`` so callers
    can hand independent substreams to subtasks without sharing state.
    ``randbits(k)`` and ``random()`` are the generator's own
    ``getrandbits`` and ``random``, and every other draw goes through them,
    so a copy, shallow or deep, draws from the same stream.
    """

    def __init__(self, seed: int):
        self._r = random.Random(seed)
        self.randbits = self._r.getrandbits
        self.random = self._r.random

    def split(self) -> "Rng":
        return Rng(self.randbits(64))

    def randrange(self, a: int, b: Optional[int] = None) -> int:
        """Uniform in [a, b), or in [0, a) without ``b``: the draws of
        ``random.Random.randrange``, which rejects getrandbits(n.bit_length())
        while it is >= n = b - a."""
        if b is None:
            a, b = 0, a
        n = b - a
        if n <= 0:
            raise ValueError(f"empty range for randrange({a}, {b})")
        k = n.bit_length()
        r = self.randbits(k)
        while r >= n:
            r = self.randbits(k)
        return a + r

    def randbytes(self, n: int) -> bytes:
        return self.randbits(8 * n).to_bytes(n, "big")


@dataclass(frozen=True)
class BlumModulus:
    """Modulus m = p*q with p = q = 3 (mod 4).

    ``p`` and ``q`` stay with whoever made the modulus; credentials, the
    protocol and the proofs carry ``m`` alone.
    """

    m: int
    bit_length: int
    p: Optional[int] = None
    q: Optional[int] = None


def is_prime(n: int, rng: Optional[Rng] = None) -> bool:
    """Deterministic trial division below 2^20, Miller-Rabin on 64 witnesses
    from ``rng`` above. Below _PSI_12 the twelve bases of ``_SMALL_PRIMES``
    decide, so a prime they pass still draws its witnesses but tries none."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _TRIAL_DIVISION_LIMIT:
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
    # a round that fails modulo a divisor g > 1 of n fails modulo n, so the
    # check modulo g keeps every verdict and draw (math.gcd: ``gcd`` is traced)
    g = math.gcd(n, _factor_product()) if n.bit_length() >= _FACTOR_MIN_BITS else 1
    proven = n < _PSI_12 and all(_round_passes(b, d, s, n) for b in _SMALL_PRIMES)
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = witness_rng.randrange(2, n - 1)
        if proven:
            continue
        if g > 1 and not _round_passes(a, d, s, g) or not _round_passes(a, d, s, n):
            return False
    return True


def _round_passes(a: int, d: int, s: int, n: int) -> bool:
    """a^d = 1 or a^(d * 2^j) = -1 (mod n) for a j < s, where n - 1 = d * 2^s."""
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


@functools.cache
def _factor_product() -> int:
    """The product of the primes in (37, _FACTOR_BOUND], built on first use."""
    return math.prod(p for p in range(41, _FACTOR_BOUND, 2) if is_prime(p))


def mod_inv(a: int, m: int) -> int:
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {m}") from exc


def sample_unit(rng: Rng, m: int) -> int:
    """Uniform unit of Z_m by rejection, drawing as ``rng.randrange(1, m)`` does."""
    if m < 3:
        raise ValueError("modulus must be >= 3")
    bits = (m - 1).bit_length()
    while True:
        a = rng.randbits(bits) + 1
        if a < m and gcd(a, m) == 1:
            return a


def _sample_prime_3_mod_4(rng: Rng, bits: int) -> int:
    while True:
        # top bit set for size, low two bits set so cand = 3 (mod 4)
        cand = rng.randbits(bits) | (1 << (bits - 1)) | 3
        if cand.bit_length() != bits:
            continue
        if is_prime(cand, rng):
            return cand


def generate_blum_modulus(bit_length: int, seed: int) -> BlumModulus:
    """Generate m = p*q with both primes = 3 (mod 4), deterministically.

    Below 12 bits there are too few suitable primes in a fixed size split,
    so small moduli draw both primes from the full enumerated pool instead.
    """
    if bit_length < 6:
        raise ValueError("bit_length must be >= 6 (each prime >= 3 bits)")
    rng = Rng(seed)
    if bit_length < 12:
        pool = [
            x
            for x in range(3, 1 << (bit_length - 1))
            if x % 4 == 3 and is_prime(x)
        ]
        for _ in range(100_000):
            p = pool[rng.randrange(0, len(pool))]
            q = pool[rng.randrange(0, len(pool))]
            m = p * q
            if p != q and m.bit_length() == bit_length:
                return BlumModulus(m=m, bit_length=bit_length, p=p, q=q)
        raise ValueError(f"no {bit_length}-bit Blum modulus found from seed {seed}")
    p_bits = bit_length // 2
    q_bits = bit_length - p_bits
    while True:
        p = _sample_prime_3_mod_4(rng, p_bits)
        q = _sample_prime_3_mod_4(rng, q_bits)
        if p == q:
            continue
        m = p * q
        if m.bit_length() == bit_length:
            return BlumModulus(m=m, bit_length=bit_length, p=p, q=q)
