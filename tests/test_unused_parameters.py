"""Every parameter of a ``src/anonauth`` function is read in that function,
unless an interface the function implements requires it.

A parameter counts as read when its name is loaded anywhere in the body,
nested functions and lambdas included; ``self`` and ``cls`` are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anonauth"
MODULES = sorted(PACKAGE.glob("*.py"))

# "module.qualname(parameter)" an interface requires
ALLOWED = {
    # the prover interface hands every prover the verifier's challenge
    "adversary.CheaterProver.respond(challenge)",
    "adversary.RandomProver.respond(challenge)",
    # the envelope interface: AES-GCM draws its nonce from rng
    "envelopes.StubEnvelope.seal(rng)",
    # part of the lru_cache key: the bytes the signature covers
    "protocol._signature_verified(payload)",
    # every cli.RUNNERS entry takes (params, out_dir)
    "cli.run_analyze(out_dir)",
    "cli.run_attack(out_dir)",
    "cli.run_auth_demo(out_dir)",
    "cli.run_revoke_demo(out_dir)",
    "cli.run_simulate(out_dir)",
}


def _unused_parameters(source: str, module: str) -> list[str]:
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}.{prefix}{child.name}"
                a = child.args
                params = [
                    p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                    if p and p.arg not in ("self", "cls")
                ]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                found.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    unused = _unused_parameters(path.read_text(), path.stem)
    assert [name for name in unused if name not in ALLOWED] == []


def test_allow_list_names_only_unused_parameters():
    unused = {name for p in MODULES for name in _unused_parameters(p.read_text(), p.stem)}
    assert ALLOWED <= unused


def test_checker_flags_an_unread_parameter():
    source = (
        "def f(a, b, *args, c, **kw):\n    return a + c\n"
        "class C:\n    def m(self, x):\n        def inner():\n            return x\n"
        "        return inner\n"
    )
    assert _unused_parameters(source, "mod") == ["mod.f(b)", "mod.f(args)", "mod.f(kw)"]
