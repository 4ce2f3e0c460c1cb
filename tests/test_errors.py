"""The error contract: every bad input at either endpoint, and every bad
parameter, is a ``ValueError``, so one ``except ValueError`` (the CLI's)
catches them all. Each exception class the package defines derives from it,
except the named few that never reach a caller as a bad input."""

import importlib
import pkgutil

import anonauth

# "module.Class" -> why it is not a ValueError
NOT_VALUE_ERRORS = {
    "zkp.DegenerateEvaluation": "an ArithmeticError that zkp.Prover.answer catches",
    "adversary.MissingSimulator": "a KeyError from a replay-table lookup",
}


def _exception_classes() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(anonauth.__path__):
        module = importlib.import_module(f"anonauth.{info.name}")
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                found[f"{info.name}.{name}"] = obj
    return found


def test_every_exception_class_is_a_value_error():
    classes = _exception_classes()
    others = [name for name, cls in classes.items() if not issubclass(cls, ValueError)]
    assert sorted(others) == sorted(NOT_VALUE_ERRORS)
