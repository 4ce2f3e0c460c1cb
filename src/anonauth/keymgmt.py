"""Offline key ceremony: group formation, witness generation, certificates,
and provisioning bundles for the two protocol roles.

``deploy`` runs the whole ceremony, a pure function of its arguments. The issuing
authority exists only at build time; nothing here opens a network socket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .envelopes import generate_seal_keypair
from .numtheory import BlumModulus, Rng, sample_unit
from .revocation import COUNTER_LIMIT

BUNDLE_FORMAT_VERSION = 1
ISSUER_ID = "kdc-root"  # the issuer every certificate names


class InvalidParameters(ValueError):
    pass


class DuplicateIv(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """One group's full keying material (authority-side view).

    The pool secrets S_1..S_n stay verifier-side; their witnesses
    I_x = S_x^2 mod m go to members. The k master secrets go to members;
    their witnesses g_y go to verifiers.
    """

    group_id: int
    pool_secrets: tuple[int, ...]  # n entries, verifier-side
    pool_witnesses: tuple[int, ...]  # n entries, member-side
    master_key: tuple[int, ...]  # k entries, member-side
    master_witnesses: tuple[int, ...]  # k entries, verifier-side


@dataclass(frozen=True)
class Certificate:
    rsu_id: int
    public_key: bytes  # RSU's asymmetric-seal public key
    issuer_id: str
    signature: bytes
    valid_from: float
    valid_to: float

    @cached_property
    def signed_payload(self) -> bytes:
        """The public bytes the issuer signs, built once per instance."""
        body = {k: v for k, v in _cert_to_dict(self).items() if k != "signature"}
        return json.dumps(body, sort_keys=True).encode()


@dataclass
class ObuCredential:
    """Member-side provisioned state. Holds witnesses, never pool secrets."""

    group_id: int
    member_id: int
    master_key: tuple[int, ...]
    pool_witnesses: tuple[int, ...]
    iv: int  # unique 64-bit initialization vector
    counter: int
    modulus: int


@dataclass
class RsuCredential:
    """Verifier-side provisioned state. Holds pool secrets, never master secrets."""

    rsu_id: int
    certificate: Certificate
    seal_private_key: bytes
    pool_secrets: dict[int, tuple[int, ...]]  # group_id -> S_1..S_n
    master_witnesses: dict[int, tuple[int, ...]]  # group_id -> g_1..g_k
    modulus: int

    def __post_init__(self):
        if self.pool_secrets.keys() != self.master_witnesses.keys():
            raise ValueError("pool_secrets and master_witnesses name different groups")


class Kdc:
    """Build-time authority: signs certificates and tracks issued IVs."""

    def __init__(self, seed: int):
        rng = Rng(seed)
        self._signing_key = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        self._issued_ivs: set[int] = set()

    def root_public_key(self) -> bytes:
        return self._signing_key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def issue_certificate(
        self, rsu_id: int, rsu_public_key: bytes, valid_from: float = 0.0,
        valid_to: float = float(1 << 31),
    ) -> Certificate:
        unsigned = Certificate(rsu_id, rsu_public_key, ISSUER_ID, b"", valid_from, valid_to)
        return replace(unsigned, signature=self._signing_key.sign(unsigned.signed_payload))

    def register_iv(self, iv: int) -> None:
        if iv in self._issued_ivs:
            raise DuplicateIv(f"iv {iv:#x} already provisioned")
        self._issued_ivs.add(iv)


def verify_certificate(cert: Certificate, root_public_key: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(root_public_key).verify(
            cert.signature, cert.signed_payload
        )
        return True
    except InvalidSignature:
        return False


def form_groups(
    q: int, n: int, k: int, modulus: BlumModulus, rng: Rng
) -> list[GroupSpec]:
    """Generate q independent groups of keying material.

    Witnesses are the positive square of each secret; the verifier's
    sign-absorbing check keeps the negative representative valid too,
    and the polynomial-bound variant needs the positive one.
    """
    if q < 1:
        raise InvalidParameters("need at least one group")
    if not (1 <= k < n):
        raise InvalidParameters(f"require 1 <= k < n, got k={k}, n={n}")
    m = modulus.m
    groups = []
    for gid in range(1, q + 1):
        pool = tuple(sample_unit(rng, m) for _ in range(n))
        master = tuple(sample_unit(rng, m) for _ in range(k))
        groups.append(
            GroupSpec(
                group_id=gid,
                pool_secrets=pool,
                pool_witnesses=tuple(s * s % m for s in pool),
                master_key=master,
                master_witnesses=tuple(s * s % m for s in master),
            )
        )
    return groups


def provision_obu(
    kdc: Kdc, group: GroupSpec, member_id: int, iv: int, modulus: BlumModulus
) -> ObuCredential:
    if not (0 <= iv < COUNTER_LIMIT):
        raise InvalidParameters("iv must be a 64-bit value")
    kdc.register_iv(iv)
    return ObuCredential(
        group_id=group.group_id,
        member_id=member_id,
        master_key=group.master_key,
        pool_witnesses=group.pool_witnesses,
        iv=iv,
        counter=0,
        modulus=modulus.m,
    )


def provision_rsu(
    groups: list[GroupSpec],
    rsu_id: int,
    certificate: Certificate,
    seal_private_key: bytes,
    modulus: BlumModulus,
) -> RsuCredential:
    return RsuCredential(
        rsu_id=rsu_id,
        certificate=certificate,
        seal_private_key=seal_private_key,
        pool_secrets={g.group_id: g.pool_secrets for g in groups},
        master_witnesses={g.group_id: g.master_witnesses for g in groups},
        modulus=modulus.m,
    )


def deploy(
    modulus: BlumModulus, rng: Rng, kdc_seed: int, q: int, n: int, k: int,
    members_per_group: int, first_iv: int, rsus: int, stub: bool = False,
) -> tuple[bytes, list[ObuCredential], list[RsuCredential]]:
    """The key ceremony, (root public key, member credentials, RSU credentials):
    q groups from ``rng``; ``members_per_group`` members in each, group-major,
    with ids 1.. per group and consecutive ivs from ``first_iv``; then each
    RSU's seal keypair from ``rng``, certified over its private key under ``stub``
    (a stub seal opens with it)."""
    if members_per_group < 0 or rsus < 0:
        raise InvalidParameters("member and RSU counts must be at least 0")
    kdc = Kdc(kdc_seed)
    groups = form_groups(q, n, k, modulus, rng)
    members = [(g, j) for g in groups for j in range(1, members_per_group + 1)]
    obus = [provision_obu(kdc, g, j, first_iv + i, modulus) for i, (g, j) in enumerate(members)]
    rsu_creds = []
    for rid in range(rsus):
        priv, pub = generate_seal_keypair(rng)
        cert = kdc.issue_certificate(rid, priv if stub else pub)
        rsu_creds.append(provision_rsu(groups, rid, cert, priv, modulus))
    return kdc.root_public_key(), obus, rsu_creds


# ---------------------------------------------------------- serialization
# Canonical JSON: sorted keys, big integers as decimal strings, bytes as lower-case hex.


def _cert_to_dict(cert: Certificate) -> dict:
    return {
        "rsu_id": cert.rsu_id,
        "public_key": cert.public_key.hex(),
        "issuer_id": cert.issuer_id,
        "signature": cert.signature.hex(),
        "valid_from": cert.valid_from,
        "valid_to": cert.valid_to,
    }


def _cert_from_dict(d: dict) -> Certificate:
    if d.keys() != Certificate.__dataclass_fields__.keys():
        raise ValueError(f"certificate fields {sorted(d)}")
    times = (d["valid_from"], d["valid_to"])  # type(x) is int: JSON true is no id or time
    if type(d["rsu_id"]) is not int or not isinstance(d["issuer_id"], str) or not all(
        type(t) is int or type(t) is float and math.isfinite(t) for t in times
    ):
        raise TypeError("certificate field of the wrong type")
    return Certificate(
        rsu_id=d["rsu_id"],
        public_key=_hex(32)(d["public_key"]),
        issuer_id=d["issuer_id"],
        signature=_hex(64)(d["signature"]),
        valid_from=d["valid_from"],
        valid_to=d["valid_to"],
    )


def _int_in(low: float = -math.inf, high: float = math.inf):
    """The reader of a JSON int in [low, high); a bool counts as none."""

    def read(value):
        if type(value) is not int or not low <= value < high:
            raise ValueError(f"{value!r} is not an int in [{low}, {high})")
        return value

    return read


def _big(value) -> int:
    """The int of a canonical decimal string, the ``str`` of an int >= 0:
    ASCII digits and no leading zero."""
    if type(value) is not str or not value.isdigit() or str(int(value)) != value:
        raise ValueError(f"{value!r} is not a canonical decimal string")
    return int(value)


def _bigs(values) -> tuple[int, ...]:
    if type(values) is not list:
        raise TypeError(f"{values!r} is not a JSON array")
    return tuple(map(_big, values))


def _hex(size: int):
    """The reader of ``size`` bytes in the form ``bytes.hex`` writes: lower case, no spaces."""

    def read(value) -> bytes:
        data = bytes.fromhex(value)  # a TypeError unless a str
        if len(data) != size or data.hex() != value:
            raise ValueError(f"{value!r} is not {size} bytes in lower-case hex")
        return data

    return read


_U64 = _int_in(0, COUNTER_LIMIT)
_BIG = (str, _big)  # a big integer as a decimal string
_BIGS = (lambda vs: [str(v) for v in vs], _bigs)
_BY_GROUP = (
    lambda d: {str(g): [str(v) for v in vs] for g, vs in d.items()},
    lambda d: {_big(g): _bigs(vs) for g, vs in d.items()},
)

# credential class -> (record kind, {field: (JSON form, reader)}); a reader
# raises on a value of the wrong type or range
RECORDS = {
    ObuCredential: ("obu_credential", {
        "group_id": (int, _int_in(0, 1 << 32)),  # a request carries it in 4 bytes
        "member_id": (int, _int_in()),
        "master_key": _BIGS,
        "pool_witnesses": _BIGS,
        "iv": (str, lambda v: _U64(_big(v))),
        "counter": (int, _U64),
        "modulus": _BIG,
    }),
    RsuCredential: ("rsu_credential", {
        "rsu_id": (int, _int_in()),
        "certificate": (_cert_to_dict, _cert_from_dict),
        "seal_private_key": (bytes.hex, _hex(32)),
        "pool_secrets": _BY_GROUP,
        "master_witnesses": _BY_GROUP,
        "modulus": _BIG,
    }),
}


def credential_to_json(cred: ObuCredential | RsuCredential) -> str:
    """The canonical JSON record of ``cred``."""
    kind, fields = RECORDS[type(cred)]
    record = {name: form(getattr(cred, name)) for name, (form, _) in fields.items()}
    record.update(format_version=BUNDLE_FORMAT_VERSION, kind=kind)
    return json.dumps(record, sort_keys=True)


def credential_from_json(text: str, cls: type) -> ObuCredential | RsuCredential:
    """The ``cls`` credential of a record; ``InvalidParameters`` unless the
    record is a JSON object of cls's kind and format version whose every
    field reads and that holds no other key."""
    kind, fields = RECORDS[cls]
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameters(f"{kind} record is not JSON: {exc!r}") from exc
    version = d.get("format_version") if isinstance(d, dict) else None
    if version != BUNDLE_FORMAT_VERSION or d.get("kind") != kind:
        raise InvalidParameters(f"not a supported {kind} record")
    if d.keys() - fields.keys() - {"format_version", "kind"}:
        raise InvalidParameters(f"malformed {kind} record: keys beyond its fields {sorted(d)}")
    try:
        return cls(**{name: read(d[name]) for name, (_, read) in fields.items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"malformed {kind} record: {exc!r}") from exc
