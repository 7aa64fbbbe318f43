"""Every name a kamreduce module exports in __all__ resolves and has a caller, as has every
public method of an exported class; every private helper is named."""

import ast
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import kamreduce

SOURCES = Path(kamreduce.__file__).parent
MODULES = ["kamreduce"] + [f"kamreduce.{m.name}" for m in pkgutil.iter_modules(kamreduce.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _private_definitions(tree):
    """Module-level private functions, classes and constants of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_private_helper_is_referenced():
    # a helper nothing in the package names besides its own definition should
    # have gone with its last caller
    texts = [path.read_text() for path in sorted(SOURCES.glob("*.py"))]
    unreferenced = [name for text in texts for name in _private_definitions(ast.parse(text))
                    if name.startswith("_") and not name.startswith("__")
                    and sum(len(re.findall(rf"\b{name}\b", t)) for t in texts) < 2]
    assert not unreferenced


def _references(tree) -> set:
    """Names a parsed file reads as a Name or an attribute, outside that name's own definition."""
    found = set()

    def visit(node, defining):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in defining:
            found.add(name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return found


ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*sorted(SOURCES.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_caller():
    # the library surface is no larger than what its callers reach: the
    # package itself, the acceptance gates and the benchmark's tracer
    # (as module.name), with no allowance for any other name
    reached = set().union(*(_references(ast.parse(path.read_text())) for path in CALLERS))
    tracer = (ROOT / "bench" / "tracer.py").read_text()
    unreached = [f"{name}.{attr}" for name in MODULES
                 for attr in getattr(importlib.import_module(name), "__all__", ())
                 if attr not in reached
                 and not re.search(rf"\b{name.rpartition('.')[2]}\.{attr}\b", tracer)]
    assert not unreached


def test_every_public_method_of_an_export_has_a_caller():
    # one level below __all__: a method or property of an exported class,
    # inherited ones included, is read as an attribute by the package
    # outside its own definition, by the acceptance gates or by the tracer
    reached = set().union(*(_references(ast.parse(path.read_text()))
                            for path in [*CALLERS, ROOT / "bench" / "tracer.py"]))
    members = (types.FunctionType, staticmethod, classmethod, property)
    unreached = []
    for name in MODULES:
        module = importlib.import_module(name)
        for cls in (getattr(module, attr) for attr in getattr(module, "__all__", ())):
            if isinstance(cls, type):
                unreached += [f"{name}.{cls.__name__}.{member}" for member in dir(cls)
                              if not member.startswith("_") and member not in reached
                              and isinstance(inspect.getattr_static(cls, member), members)]
    assert not unreached
