"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared virtual machine the speed of the same code drifts by a fifth
or more over tens of seconds, as other tenants come and go. The benchmark
times the kernel before and after every cycle of a workload and scales
that cycle's times by ``NOMINAL_S / kernel time``: a time is reported as it
would read on a host where the kernel takes ``NOMINAL_S``. The kernel
mixes the kinds of work the library does (interpreted big-integer Euclid,
modular exponentiation, SHA-256, small tuples and dicts) and shares no code
with it, so a change to the library cannot move it.
"""

from __future__ import annotations

import hashlib
import statistics
import time

# Any constant works. On a 2-core x86-64 VM with Python 3.11 the kernel
# takes 0.8-1.3 ms, so scaled times stay close to raw ones.
NOMINAL_S = 0.001

_M = (1 << 2048) - 1557
_A = int.from_bytes(hashlib.sha512(b"refspeed").digest() * 4, "big") % _M
_E = (1 << 16) + 12345


def _kernel() -> None:
    a, b = _M, _A
    while b:
        a, b = b, a % b
    pow(_A, _E, _M)
    digest = b"ref"
    for _ in range(100):
        digest = hashlib.sha256(digest).digest()
    seen = {}
    for i in range(400):
        block = tuple(sorted(((i * 7) % 50, (i * 13) % 50, (i * 29) % 50)))
        seen.setdefault(block, i)


def kernel_s(repeats: int = 3) -> float:
    """Median time of the kernel over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Scaled:
    """Accumulates stretches of wall time scaled to the reference speed."""

    def __init__(self):
        self.before = kernel_s()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def lap(self, raw_s: float) -> float:
        """Scale factor for a stretch of ``raw_s`` that just ended."""
        after = kernel_s()
        factor = NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        self.raw_s += raw_s
        self.scaled_s += raw_s * factor
        return factor
