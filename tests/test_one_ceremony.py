"""Only ``keymgmt`` runs the key ceremony. No other ``src/anonauth`` module,
and not the test fixture, forms groups, provisions a member or an RSU,
issues a certificate or builds a ``Kdc``: each deployment comes from
``keymgmt.deploy``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "anonauth").glob("*.py") if p.name != "keymgmt.py")
CEREMONY = {"Kdc", "form_groups", "provision_obu", "provision_rsu", "issue_certificate"}


def _ceremony_calls(source: str) -> list[str]:
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CEREMONY:
                calls.append(name)
    return sorted(calls)


@pytest.mark.parametrize(
    "path", [*MODULES, ROOT / "tests" / "conftest.py"], ids=lambda p: p.name
)
def test_only_keymgmt_runs_the_ceremony(path):
    assert _ceremony_calls(path.read_text()) == []


def test_checker_flags_every_ceremony_step():
    source = (
        "kdc = keymgmt.Kdc(1)\n(g,) = form_groups(1, 6, 2, m, rng)\n"
        "cert = kdc.issue_certificate(0, pub)\nkeymgmt.provision_obu(kdc, g, 1, 1, m)\n"
        "provision_rsu([g], 0, cert, priv, m)\nkeymgmt.deploy(m, rng, 1, 1, 6, 2, 1, 1, 1)\n"
    )
    assert _ceremony_calls(source) == sorted(CEREMONY)
