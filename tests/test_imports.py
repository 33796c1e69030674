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


SOLVERS = {"bm_solve", "ipm_solve_batch", "pierra_solve"}


def solver_references():
    """(module, name) for every import or attribute named like a solver in
    ``SOLVERS`` outside ``solvers``, whose ``solve`` and ``solve_localized``
    pick one; ``__init__`` re-exports them as the library surface."""
    found = set()
    for path in sorted(Path(graphsdp.__file__).parent.glob("*.py")):
        if path.stem in ("solvers", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            found |= {(path.stem, name) for name in names & SOLVERS}
    return found


def test_only_solvers_picks_a_solver():
    assert solver_references() == set()


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
