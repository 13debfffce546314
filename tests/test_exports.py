"""Every public name of the package has a reader in the package itself or
in the acceptance gate, so no export lives on for unit tests alone."""

import ast
import inspect
from pathlib import Path

import fracshape

TESTS = Path(__file__).resolve().parent


def _referenced(path: Path) -> set:
    """Names a module loads, reads as attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_reader():
    package = Path(fracshape.__file__).resolve().parent
    readers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_referenced, readers + [TESTS / "test_acceptance.py"]))
    exports = {name for name in fracshape.__all__
               if not inspect.ismodule(getattr(fracshape, name))}
    assert sorted(exports - used) == []
