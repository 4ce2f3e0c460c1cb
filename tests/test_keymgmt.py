import dataclasses
import json

import pytest

from anonauth import keymgmt, zkp
from anonauth.keymgmt import (
    DuplicateIv,
    InvalidParameters,
    Kdc,
    ObuCredential,
    RsuCredential,
    credential_from_json,
    credential_to_json,
    deploy,
    form_groups,
    provision_obu,
    provision_rsu,
    verify_certificate,
)
from anonauth.envelopes import generate_seal_keypair
from anonauth.numtheory import Rng, generate_blum_modulus
from conftest import M21, build_deployment


class TestFormGroups:
    def test_witness_relation(self, m21):
        groups = form_groups(2, 5, 2, m21, Rng(1))
        assert len(groups) == 2
        for g in groups:
            for s, i_x in zip(g.pool_secrets, g.pool_witnesses):
                assert i_x in (s * s % 21, (-s * s) % 21)
            for pr, g_y in zip(g.master_key, g.master_witnesses):
                assert g_y in (pr * pr % 21, (-pr * pr) % 21)

    def test_k_equal_n_rejected(self, m21):
        with pytest.raises(InvalidParameters):
            form_groups(1, 5, 5, m21, Rng(1))

    def test_zero_groups_rejected(self, m21):
        with pytest.raises(InvalidParameters):
            form_groups(0, 5, 2, m21, Rng(1))

    def test_determinism(self, m21):
        a = form_groups(2, 5, 2, m21, Rng(42))
        b = form_groups(2, 5, 2, m21, Rng(42))
        assert a == b

    def test_groups_are_independent(self):
        mod = generate_blum_modulus(48, 9)
        g1, g2 = form_groups(2, 5, 2, mod, Rng(1))
        assert set(g1.pool_secrets).isdisjoint(g2.pool_secrets)
        assert set(g1.master_key).isdisjoint(g2.master_key)


class TestCertificates:
    def test_issue_and_verify(self):
        kdc = Kdc(seed=1)
        cert = kdc.issue_certificate(5, b"\x11" * 32)
        assert verify_certificate(cert, kdc.root_public_key())

    def test_tampered_signature_fails(self):
        kdc = Kdc(seed=1)
        cert = kdc.issue_certificate(5, b"\x11" * 32)
        bad_sig = bytes([cert.signature[0] ^ 1]) + cert.signature[1:]
        tampered = dataclasses.replace(cert, signature=bad_sig)
        assert not verify_certificate(tampered, kdc.root_public_key())

    def test_tampered_field_fails(self):
        kdc = Kdc(seed=1)
        cert = kdc.issue_certificate(5, b"\x11" * 32)
        tampered = dataclasses.replace(cert, rsu_id=6)
        assert not verify_certificate(tampered, kdc.root_public_key())

    @pytest.mark.parametrize("field", ["rsu_id", "signature"])
    def test_replaced_certificate_builds_its_own_payload(self, field):
        cert = Kdc(seed=1).issue_certificate(5, b"\x11" * 32)
        genuine = cert.signed_payload
        changed = {"rsu_id": 6, "signature": bytes(64)}[field]
        other = dataclasses.replace(cert, **{field: changed})
        body = {k: v for k, v in keymgmt._cert_to_dict(other).items() if k != "signature"}
        assert other.signed_payload == json.dumps(body, sort_keys=True).encode()
        assert (other.signed_payload == genuine) is (field == "signature")
        assert cert.signed_payload is genuine

    def test_foreign_root_fails(self):
        cert = Kdc(seed=1).issue_certificate(5, b"\x11" * 32)
        other = Kdc(seed=2)
        assert not verify_certificate(cert, other.root_public_key())


class TestProvisioning:
    def test_obu_holds_no_pool_secrets(self):
        # value-level separation needs a modulus large enough that random
        # units never coincide by chance
        mod = generate_blum_modulus(48, 4)
        kdc = Kdc(seed=4)
        (group,) = form_groups(1, 8, 2, mod, Rng(4))
        cred = provision_obu(kdc, group, 1, iv=77, modulus=mod)
        assert set(cred.master_key).isdisjoint(group.pool_secrets)
        assert not set(cred.pool_witnesses) & set(group.pool_secrets)
        assert cred.counter == 0

    def test_group_members_share_material(self, m21):
        kdc = Kdc(seed=4)
        (group,) = form_groups(1, 5, 2, m21, Rng(4))
        a = provision_obu(kdc, group, 1, iv=1, modulus=m21)
        b = provision_obu(kdc, group, 2, iv=2, modulus=m21)
        assert a.master_key == b.master_key
        assert a.pool_witnesses == b.pool_witnesses
        assert a.iv != b.iv

    def test_duplicate_iv_rejected(self, m21):
        kdc = Kdc(seed=4)
        (group,) = form_groups(1, 5, 2, m21, Rng(4))
        provision_obu(kdc, group, 1, iv=9, modulus=m21)
        with pytest.raises(DuplicateIv):
            provision_obu(kdc, group, 2, iv=9, modulus=m21)

    def test_oversized_iv_rejected(self, m21):
        kdc = Kdc(seed=4)
        (group,) = form_groups(1, 5, 2, m21, Rng(4))
        with pytest.raises(InvalidParameters):
            provision_obu(kdc, group, 1, iv=1 << 64, modulus=m21)

    def test_rsu_holds_all_pools_but_no_master_secrets(self):
        mod = generate_blum_modulus(48, 6)
        kdc = Kdc(seed=6)
        groups = form_groups(3, 6, 2, mod, Rng(6))
        cert = kdc.issue_certificate(0, b"\x22" * 32)
        cred = provision_rsu(groups, 0, cert, b"\x00" * 32, mod)
        assert set(cred.pool_secrets) == {1, 2, 3}
        held = {v for pool in cred.pool_secrets.values() for v in pool}
        held |= {v for ws in cred.master_witnesses.values() for v in ws}
        for g in groups:
            assert not held & set(g.master_key)

    def test_two_rsus_share_group_material(self, m21):
        kdc = Kdc(seed=6)
        groups = form_groups(2, 5, 2, m21, Rng(6))
        c1 = kdc.issue_certificate(0, b"\x01" * 32)
        c2 = kdc.issue_certificate(1, b"\x02" * 32)
        r1 = provision_rsu(groups, 0, c1, b"\x00" * 32, m21)
        r2 = provision_rsu(groups, 1, c2, b"\x00" * 32, m21)
        assert r1.pool_secrets == r2.pool_secrets
        assert r1.certificate != r2.certificate


class TestDeploy:
    def test_members_are_group_major_with_consecutive_ivs(self, m21):
        _root, obus, rsus = deploy(m21, Rng(1), 2, 3, 5, 2, 2, 40, 2)
        assert [(c.group_id, c.member_id, c.iv) for c in obus] == [
            (1, 1, 40), (1, 2, 41), (2, 1, 42), (2, 2, 43), (3, 1, 44), (3, 2, 45)
        ]
        assert [c.rsu_id for c in rsus] == [0, 1]

    def test_draws_groups_then_rsu_keypairs(self):
        mod = generate_blum_modulus(32, 3)
        root, obus, rsus = deploy(mod, Rng(7), 9, 2, 6, 2, 1, 1, 2)
        rng, kdc = Rng(7), Kdc(9)
        groups = form_groups(2, 6, 2, mod, rng)
        for rid, rsu in enumerate(rsus):
            priv, pub = generate_seal_keypair(rng)
            assert rsu.seal_private_key == priv and rsu.certificate.public_key == pub
            assert rsu.certificate == kdc.issue_certificate(rid, pub)
            assert rsu.pool_secrets == {g.group_id: g.pool_secrets for g in groups}
        assert [c.master_key for c in obus] == [g.master_key for g in groups]
        assert root == kdc.root_public_key()

    def test_stub_certifies_the_private_key(self, m21):
        root, _obus, (rsu,) = deploy(m21, Rng(1), 2, 1, 5, 2, 1, 1, 1, stub=True)
        assert rsu.certificate.public_key == rsu.seal_private_key
        assert verify_certificate(rsu.certificate, root)

    def test_zero_members_and_rsus_are_a_deployment(self, m21):
        _root, obus, rsus = deploy(m21, Rng(1), 2, 2, 5, 2, 0, 1, 0)
        assert obus == [] and rsus == []

    @pytest.mark.parametrize("members, rsus", [(-1, 1), (1, -1), (-1, -2)])
    def test_negative_counts_are_refused(self, m21, members, rsus):
        with pytest.raises(InvalidParameters):
            deploy(m21, Rng(1), 2, 1, 5, 2, members, 1, rsus)


class TestCrossModuleWitnessSoundness:
    def test_every_witness_verifies_a_one_round_proof(self):
        mod = generate_blum_modulus(32, 8)
        (group,) = form_groups(1, 4, 2, mod, Rng(8))
        rng = Rng(80)
        for s, i_x in zip(group.pool_secrets, group.pool_witnesses):
            _, ok = zkp.run_proof([s], [i_x], 1, 1, mod.m, rng.split(), rng.split())
            assert ok
        for pr, g_y in zip(group.master_key, group.master_witnesses):
            _, ok = zkp.run_proof([pr], [g_y], 1, 1, mod.m, rng.split(), rng.split())
            assert ok


class TestSerialization:
    def test_obu_round_trip(self):
        dep = build_deployment(3, n=6, k=2)
        cred = dep.obu_creds[0]
        out = credential_from_json(credential_to_json(cred), ObuCredential)
        assert out == cred

    def test_rsu_round_trip(self):
        dep = build_deployment(3, n=6, k=2, q=2)
        out = credential_from_json(credential_to_json(dep.rsu_cred), RsuCredential)
        assert out == dep.rsu_cred

    def test_wrong_kind_rejected(self):
        dep = build_deployment(3, n=6, k=2)
        with pytest.raises(InvalidParameters):
            credential_from_json(credential_to_json(dep.obu_creds[0]), RsuCredential)

    @pytest.mark.parametrize(
        "kind, drop",
        [("obu", "group_id"), ("obu", "iv"), ("rsu", "certificate"), ("rsu", "pool_secrets")],
    )
    def test_record_without_a_field_is_invalid(self, kind, drop):
        dep = build_deployment(3, n=6, k=2)
        cls, cred = {
            "obu": (ObuCredential, dep.obu_creds[0]),
            "rsu": (RsuCredential, dep.rsu_cred),
        }[kind]
        record = json.loads(credential_to_json(cred))
        del record[drop]
        with pytest.raises(InvalidParameters, match="malformed"):
            credential_from_json(json.dumps(record), cls)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rsu_id", [1]),
            ("rsu_id", True),
            ("rsu_id", "0"),
            ("issuer_id", 7),
            ("valid_from", "0"),
            ("valid_from", float("nan")),
            ("valid_to", None),
            ("valid_to", float("inf")),
            ("valid_to", False),
        ],
    )
    def test_certificate_with_a_mistyped_field_is_invalid(self, field, value):
        dep = build_deployment(3, n=6, k=2)
        record = json.loads(credential_to_json(dep.rsu_cred))
        record["certificate"][field] = value
        with pytest.raises(InvalidParameters, match="malformed"):
            credential_from_json(json.dumps(record), RsuCredential)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("obu", "counter", "0"),
            ("obu", "counter", -5),
            ("obu", "counter", True),
            ("obu", "member_id", [1]),
            ("obu", "group_id", "1"),
            # a request carries the group id in 4 bytes
            ("obu", "group_id", -1),
            ("obu", "group_id", 1 << 32),
            ("obu", "iv", "-5"),
            # a big integer reads only from the decimal string str(int) writes
            ("obu", "iv", 1001.9),
            ("obu", "iv", True),
            ("obu", "modulus", 21.5),
            ("obu", "modulus", "٣٣"),
            ("obu", "iv", "+7"),
            ("obu", "iv", " 7"),
            ("obu", "iv", "7_0"),
            ("obu", "iv", "07"),
            # and a list of them only from a JSON array
            ("obu", "master_key", "123"),
            ("rsu", "master_witnesses", {"1": "57"}),
            ("rsu", "pool_secrets", {"01": ["5"]}),
            ("rsu", "rsu_id", "0"),
            # pool secrets for a group without its master witnesses
            ("rsu", "master_witnesses", {}),
        ],
    )
    def test_credential_with_a_mistyped_field_is_invalid(self, kind, field, value):
        dep = build_deployment(3, n=6, k=2)
        cls, cred = {
            "obu": (ObuCredential, dep.obu_creds[0]),
            "rsu": (RsuCredential, dep.rsu_cred),
        }[kind]
        record = json.loads(credential_to_json(cred))
        record[field] = value
        with pytest.raises(InvalidParameters, match="malformed"):
            credential_from_json(json.dumps(record), cls)

    @pytest.mark.parametrize("cls", [ObuCredential, RsuCredential])
    def test_record_table_names_every_field(self, cls):
        # a field left out of the table would not be written to a bundle file
        _kind, fields = keymgmt.RECORDS[cls]
        assert list(fields) == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("text", ["[]", '"obu_credential"', "7"])
    def test_non_object_record_is_invalid(self, text):
        for cls in (ObuCredential, RsuCredential):
            with pytest.raises(InvalidParameters):
                credential_from_json(text, cls)

    def test_json_is_canonical(self):
        dep1 = build_deployment(3, n=6, k=2)
        dep2 = build_deployment(3, n=6, k=2)
        assert credential_to_json(dep1.obu_creds[0]) == credential_to_json(dep2.obu_creds[0])

    def test_version_field_present(self):
        dep = build_deployment(3, n=6, k=2)
        assert f'"format_version": {keymgmt.BUNDLE_FORMAT_VERSION}' in (
            credential_to_json(dep.obu_creds[0])
        )
