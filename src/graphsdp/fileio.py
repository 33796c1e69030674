"""File formats: coordinate matrix dumps, Gset edge lists, JSON and CSV.

All writers are deterministic (sorted keys, shortest round-trip float
representation, fixed column orders) so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import json
import numpy as np

from .linalg import InvalidInputError

__all__ = [
    "dump_matrix",
    "load_matrix",
    "GsetGraph",
    "parse_gset",
    "render_gset",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
]


def _fmt_value(v) -> str:
    if isinstance(v, complex) or np.iscomplexobj(np.asarray(v)):
        v = complex(v)
        if v.imag == 0.0:
            return repr(float(v.real))
        sign = "+" if v.imag >= 0 else "-"
        return f"{float(v.real)!r}{sign}{abs(float(v.imag))!r}j"
    return repr(float(v))


def dump_matrix(M: np.ndarray, path) -> None:
    """Write a (conjugate-)symmetric matrix in coordinate text format.

    Header line ``n nnz``, then one ``i j value`` line per nonzero upper
    triangle entry, 1-indexed.  Complex values render as ``re+imj`` and the
    loader restores the conjugate mirror.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("coordinate dump expects a square matrix")
    n = M.shape[0]
    lines = []
    for i in range(n):
        for j in range(i, n):
            v = M[i, j]
            if v != 0:
                lines.append(f"{i + 1} {j + 1} {_fmt_value(v)}")
    text = f"{n} {len(lines)}\n" + "\n".join(lines)
    Path(path).write_text(text + "\n")


def load_matrix(path) -> np.ndarray:
    """Inverse of :func:`dump_matrix`."""
    raw = Path(path).read_text().strip().splitlines()
    if not raw:
        raise InvalidInputError("empty coordinate file")
    head = raw[0].split()
    if len(head) != 2:
        raise InvalidInputError("coordinate header must be 'n nnz'")
    n, nnz = int(head[0]), int(head[1])
    body = [ln for ln in raw[1:] if ln.strip()]
    if len(body) != nnz:
        raise InvalidInputError(f"expected {nnz} entries, found {len(body)}")
    entries = []
    complex_any = False
    for lineno, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidInputError(f"line {lineno}: expected 'i j value'")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"line {lineno}: index out of range")
        if i > j:
            raise InvalidInputError(f"line {lineno}: entries must be upper-triangular")
        try:
            value = complex(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: bad value {parts[2]!r}") from exc
        complex_any = complex_any or value.imag != 0.0
        entries.append((i, j, value))
    dtype = complex if complex_any else float
    M = np.zeros((n, n), dtype=dtype)
    seen = set()
    for i, j, value in entries:
        if (i, j) in seen:
            raise InvalidInputError(f"duplicate entry ({i + 1}, {j + 1})")
        seen.add((i, j))
        M[i, j] = value if complex_any else value.real
        if i != j:
            M[j, i] = np.conj(value) if complex_any else value.real
    return M


# ---------------------------------------------------------------------------
# Gset benchmark format


@dataclass(frozen=True)
class GsetGraph:
    """Weighted edge list in the benchmark 'n m / i j w' text format."""

    n: int
    edges: tuple    # ((i, j, w), ...) 0-indexed, i < j

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            A[i, j] = w
            A[j, i] = w
        return A

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n


def parse_gset(text: str) -> GsetGraph:
    """Parse an edge-list benchmark file.

    Header ``n m`` then exactly m lines ``i j [w]`` (weight defaults to 1,
    1-indexed).  Rejects self-loops, duplicate edges, out-of-range indices
    and non-finite weights, each with its line number, and an edge count
    that differs from the header.
    """
    lines = [ln for ln in text.strip().splitlines()]
    if not lines or not lines[0].strip():
        raise InvalidInputError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidInputError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InvalidInputError("line 1: header must hold two integers") from exc
    if n < 1:
        raise InvalidInputError("line 1: need n >= 1")
    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != m:
        raise InvalidInputError(f"header advertises {m} edges, found {len(body)} edge lines")
    edges = []
    seen = set()
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise InvalidInputError(f"line {lineno}: expected 'i j [w]'")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: malformed edge") from exc
        if not np.isfinite(w):
            raise InvalidInputError(f"line {lineno}: non-finite weight")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidInputError(f"line {lineno}: index out of range")
        if i == j:
            raise InvalidInputError(f"line {lineno}: self-loop")
        a, b = min(i, j) - 1, max(i, j) - 1
        if (a, b) in seen:
            raise InvalidInputError(f"line {lineno}: duplicate edge")
        seen.add((a, b))
        edges.append((a, b, w))
    return GsetGraph(n=n, edges=tuple(edges))


def render_gset(graph: GsetGraph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    for i, j, w in graph.edges:
        wtxt = str(int(w)) if float(w).is_integer() else repr(float(w))
        lines.append(f"{i + 1} {j + 1} {wtxt}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON / CSV


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Rows are dicts; missing keys render empty.  Deterministic formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row.get(col)) for col in header))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return header, rows
