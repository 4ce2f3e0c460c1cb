"""The README's library example runs as written."""

import importlib
import inspect
import re
from pathlib import Path

import anonauth

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_is_accepted():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["result"].outcome is namespace["protocol"].Outcome.ACCEPTED


def _roots() -> dict:
    """``anonauth``, each of its modules, and each class a module defines, by
    the names the README writes them with."""
    roots = {"anonauth": anonauth}
    for path in (README.parent / "src" / "anonauth").glob("*.py"):
        module = importlib.import_module(f"anonauth.{path.stem}")
        roots[path.stem] = module
        roots.update(
            (name, obj) for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        )
    return roots


def _holds(obj, attr: str) -> bool:
    """``obj`` has ``attr``: as an attribute, an annotated field, or, on a
    class, one its methods set on ``self``."""
    if hasattr(obj, attr) or attr in getattr(obj, "__annotations__", {}):
        return True
    return isinstance(obj, type) and re.search(
        rf"self\.{attr}\b\s*[:=]", inspect.getsource(obj)
    ) is not None


def test_every_qualified_name_resolves():
    # a dotted name in a backticked span that starts at a root of _roots:
    # module.name, module.Class.attr, Class.attr and anonauth.module
    roots = _roots()
    names = {
        m.group(0)
        for span in re.findall(r"`([^`\n]+)`", README.read_text())
        for m in re.finditer(r"(?<![\w./])\w+(?:\.\w+){1,2}", span)
        if m.group(0).split(".")[0] in roots
    }
    assert len(names) > 40, sorted(names)
    missing = []
    for name in sorted(names):
        root, *attrs = name.split(".")
        obj = roots[root]
        for attr in attrs:
            if not _holds(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr, None)
    assert not missing, f"README names what anonauth does not hold: {missing}"


def test_call_forms_name_the_parameters():
    # a backticked call form `name(a, b=..., c)` whose name resolves through
    # _roots: the names written are the callable's own parameters, in order
    roots = _roots()
    forms = [
        m.groups()
        for span in re.findall(r"`([^`\n]+)`", README.read_text())
        for m in re.finditer(r"(?<![\w.])(\w+(?:\.\w+)*)\(([^()]*)\)", span)
        if m.group(1).split(".")[0] in roots and "..." not in m.group(2)
    ]
    assert len(forms) > 10, forms
    wrong = []
    for name, args in forms:
        root, *attrs = name.split(".")
        obj = roots[root]
        for attr in attrs:
            obj = getattr(obj, attr)
        written = [arg.split("=")[0].strip() for arg in args.split(",") if arg.strip()]
        own = [p for p in inspect.signature(obj).parameters if p != "self"]
        if written != own:
            wrong.append(f"{name}({args}) vs {own}")
    assert not wrong, f"README call forms that are not the code's: {wrong}"
