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


def imported_modules(stem):
    """The sibling modules ``graphsdp/<stem>.py`` imports (``from .mod import``
    and ``from . import mod``)."""
    path = Path(graphsdp.__file__).parent / f"{stem}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_layering():
    # linalg is the base every layer builds on; labels are plain arrays, so
    # rounding, the signed baselines and the metrics need no model types
    assert imported_modules("linalg") == set()
    for stem in ("signed", "rounding", "metrics"):
        assert "models" not in imported_modules(stem), stem
    # instances carry data only: the problem table holds each constraint set
    assert not imported_modules("models") & {"solvers", "problems"}
