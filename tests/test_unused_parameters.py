"""Every parameter of a ``src/anonauth`` function is read in that function,
unless an interface the function implements requires it, and every field of
a ``src/anonauth`` dataclass is read somewhere in ``src/``.

A parameter counts as read when its name is loaded anywhere in the body,
nested functions and lambdas included; ``self`` and ``cls`` are exempt. A
field counts as read when any module loads an attribute of its name.
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


# "module.Class.field" that no code in src/ reads
ALLOWED_FIELDS = {
    # the factors stay with whoever made the modulus
    "numtheory.BlumModulus.p",
    "numtheory.BlumModulus.q",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """Each dataclass field in ``sources`` (module -> source) whose name no
    module loads as an attribute, as "module.Class.field"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [
        f"{module}.{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


def test_src_reads_every_dataclass_field():
    unread = _unread_fields({p.stem: p.read_text() for p in MODULES})
    assert sorted(set(unread) - ALLOWED_FIELDS) == []
    assert ALLOWED_FIELDS <= set(unread)


def test_checker_flags_an_unread_field():
    sources = {
        "mod": (
            "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n"
            "@dataclass\nclass E:\n    c: int\n"
            "class Plain:\n    d: int\n"
        ),
        "other": "def f(d):\n    d.b = 1\n    return d.a\n",
    }
    assert _unread_fields(sources) == ["mod.D.b", "mod.E.c"]
