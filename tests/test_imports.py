import ast
from pathlib import Path

import graphsdp


def private_imports():
    """(module, imported module, name) for every ``from .mod import _name``."""
    found = set()
    for path in sorted(Path(graphsdp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found |= {(path.stem, node.module, alias.name)
                          for alias in node.names if alias.name.startswith("_")}
    return found


def test_no_private_cross_module_imports():
    assert private_imports() == set()
