"""Shared fixtures: a tiny hand-built Blum modulus, a deployment factory, the
decoder of the Monte Carlo k-id set bitmasks and a guard on calls that may
never return."""

import signal
from collections import Counter
from dataclasses import dataclass

import pytest

from anonauth import keymgmt, protocol
from anonauth.numtheory import BlumModulus, Rng, generate_blum_modulus
from anonauth.protocol import Obu, Rsu

# m = 3 * 7: both primes are 3 (mod 4); units of Z_21 number 12
M21 = BlumModulus(m=21, bit_length=5, p=3, q=7)


def mask_ids(mask: int) -> tuple[int, ...]:
    """The ids of a k-id set bitmask (bit i - 1 for id i), ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


@dataclass
class Deployment:
    kdc_seed: int
    obu_creds: list
    rsu_cred: keymgmt.RsuCredential
    modulus: BlumModulus
    root: bytes
    stub: bool

    def make_rsu(self, seed: int, **kwargs) -> Rsu:
        return Rsu(self.rsu_cred, Rng(seed), stub=self.stub, **kwargs)

    def make_obu(self, seed: int, index: int = 0) -> Obu:
        return Obu(self.obu_creds[index], self.root, Rng(seed), stub=self.stub)


def build_deployment(
    seed: int,
    n: int,
    k: int,
    q: int = 1,
    modulus: BlumModulus = None,
    obus_per_group: int = 1,
    stub: bool = False,
) -> Deployment:
    """One RSU and ``obus_per_group`` members in each of q groups, from
    ``keymgmt.deploy`` with ivs from 1000; a 32-bit modulus unless one is given."""
    if modulus is None:
        modulus = generate_blum_modulus(32, seed)
    kdc_seed = seed ^ 0x79B9
    root, obu_creds, (rsu_cred,) = keymgmt.deploy(
        modulus, Rng(seed ^ 0x9E37), kdc_seed, q, n, k, obus_per_group, 1000, 1, stub=stub
    )
    return Deployment(kdc_seed, obu_creds, rsu_cred, modulus, root, stub)


@pytest.fixture
def m21():
    return M21


@pytest.fixture
def alarm():
    """Fails the test once it has run 5 s, so a search that never ends fails
    that test alone. The failure carries no traceback: reporting one from a
    frame without a line number would end the whole session."""

    def _timeout(signum, frame):
        pytest.fail("still running after 5 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def verify_calls(monkeypatch):
    """The rsu_id of each certificate whose signature ``protocol`` checks,
    from an empty memo, so no earlier test has verified one already."""
    protocol._signature_verified.cache_clear()
    calls = []

    def counting_verify(cert, root):
        calls.append(cert.rsu_id)
        return keymgmt.verify_certificate(cert, root)

    monkeypatch.setattr(protocol, "verify_certificate", counting_verify)
    return calls


@pytest.fixture
def transcript_builds(monkeypatch) -> Counter:
    """How many frames ``protocol`` encodes and how many ``ZkpProof``s it
    builds, under "frames" and "proofs"."""
    built = Counter()

    def counted(name, build):
        def count(*args):
            built[name] += 1
            return build(*args)

        return count

    monkeypatch.setattr(protocol, "encode_message", counted("frames", protocol.encode_message))
    monkeypatch.setattr(protocol, "ZkpProof", counted("proofs", protocol.ZkpProof))
    return built
