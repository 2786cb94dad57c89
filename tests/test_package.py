"""Package-wide contracts: the error types callers catch, and annotations
that resolve."""

import ast
import dataclasses
import importlib
import pkgutil
import typing
from pathlib import Path

import pytest

import fcdsae

SOURCES = sorted(Path(fcdsae.__file__).parent.glob("*.py"))
MODULES = [importlib.import_module(f"fcdsae.{m.name}")
           for m in pkgutil.iter_modules(fcdsae.__path__)]

# what a `raise X(...)` in the package may name: the two package errors, a
# diverged run and an array too large for this machine
RAISED = {"DomainError", "ParseError", "FloatingPointError", "MemoryError"}


def test_the_two_error_types_are_defined_in_the_package_root():
    assert fcdsae.__all__ == ["DomainError", "ParseError"]
    for name in fcdsae.__all__:
        cls = getattr(fcdsae, name)
        assert cls.__module__ == "fcdsae" and issubclass(cls, ValueError)


def _raises(path):
    """(function, what it raises) for each `raise` in a source file; a bare
    re-raise raises None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(scope, "name", None), exc and ast.unparse(exc)


def test_every_raise_names_a_package_error():
    """Callers catch DomainError and ParseError; the one other raise is
    cli.seed's, which argparse turns into a usage error."""
    other = {(path.stem, scope, raised) for path in SOURCES
             for scope, raised in _raises(path)
             if raised is not None and raised not in RAISED}
    assert other == {("cli", "seed", "argparse.ArgumentTypeError")}


@pytest.mark.parametrize("cls", [
    c for m in MODULES for c in vars(m).values()
    if isinstance(c, type) and dataclasses.is_dataclass(c)
    and c.__module__ == m.__name__], ids=lambda c: c.__qualname__)
def test_dataclass_annotations_resolve(cls):
    assert typing.get_type_hints(cls).keys() >= {
        f.name for f in dataclasses.fields(cls)}
