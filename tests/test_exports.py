"""Every name a kamreduce module exports in __all__ resolves; every private helper is named."""

import ast
import importlib
import pkgutil
import re
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
