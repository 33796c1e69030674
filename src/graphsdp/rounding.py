"""Rounding: from solved SDP matrices back to cuts, clusters and phases.

Every step takes the solved matrix as a numpy array and returns plain
arrays: a +-1 cut vector, an integer label per node, or complex phases.
"""

from __future__ import annotations

import numpy as np

from . import _rng
from .linalg import (
    InvalidInputError,
    check_square,
    eigh_sorted,
    frobenius_norm,
    top_eigenvector,
)
from .metrics import cut_value
from .signed import kmeans

__all__ = [
    "factorize_gram",
    "gw_round",
    "expected_cut_closed_form",
    "extract_phases",
    "spectral_sync",
    "extract_communities",
]


def factorize_gram(Z: np.ndarray) -> np.ndarray:
    """Unit-norm rows X_i (an n x n array) with X @ X* approximately Z, for a
    psd, unit-diagonal Z, from its eigendecomposition.

    Negative eigenvalues within tolerance are clamped to zero and the rows
    renormalized to unit length; a minimum eigenvalue below
    -1e-6 * ||Z||_F means the caller must project onto the psd cone first.
    """
    w, V = eigh_sorted(Z)
    floor = -1e-6 * max(frobenius_norm(Z), 1e-300)
    if w[-1] < floor:
        raise InvalidInputError(
            f"matrix is not psd to tolerance (min eigenvalue {w[-1]:.3e})"
        )
    X = V * np.sqrt(np.maximum(w, 0.0))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def gw_round(Z: np.ndarray, graph: np.ndarray, n_samples: int, seed: int = 0):
    """Gaussian hyperplane rounding of a solved cut matrix.

    Draws ``g ~ N(0, I)``, takes ``x_i = sign(<X_i, g>)`` (zero maps to +1),
    scores each sample by its cut value on ``graph`` (the full adjacency when
    available, the observed one otherwise), and returns the best sign vector
    together with the sample-mean cut value.  Ties keep the earliest sample.
    All samples are drawn in one block and scored together.  ``graph`` is a
    finite square matrix of Z's shape.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    rows = factorize_gram(Z)
    if np.iscomplexobj(rows):
        raise InvalidInputError("hyperplane rounding expects a real factor")
    graph = check_square(graph, "graph")
    if graph.shape != np.shape(Z):
        raise InvalidInputError(
            f"graph of shape {graph.shape} does not match the solution's {np.shape(Z)}")
    rng = _rng.stream(seed, _rng.STREAM_SOLVER)
    g = rng.standard_normal((n_samples, rows.shape[1]))
    x = np.where(g @ rows.T >= 0, 1.0, -1.0)
    cuts = cut_value(graph, x)
    return x[int(np.argmax(cuts))].astype(int), float(cuts.mean())


def expected_cut_closed_form(A0: np.ndarray, Z: np.ndarray) -> float:
    """Exact conditional expectation of the rounded cut given the solved matrix:
    (1/2pi) * sum_ij A0_ij * arccos(Z_ij), entries clamped into [-1, 1].
    Both are finite square matrices of one shape, and Z is real."""
    A0 = np.asarray(check_square(A0, "graph"), dtype=float)
    Z = check_square(Z, "solution")
    if np.iscomplexobj(Z):
        raise InvalidInputError("the closed form takes a real solution")
    if A0.shape != Z.shape:
        raise InvalidInputError("shape mismatch between graph and solution")
    clamped = np.clip(Z, -1.0, 1.0)
    return float(np.sum(A0 * np.arccos(clamped)) / (2.0 * np.pi))


def extract_phases(Z: np.ndarray) -> np.ndarray:
    """Top eigenvector of the solved Hermitian matrix, scaled to norm sqrt(n).

    No entrywise normalization: the estimator is the raw scaled eigenvector.
    """
    v = top_eigenvector(Z)
    return v * np.sqrt(v.size)


def spectral_sync(A: np.ndarray) -> np.ndarray:
    """Spectral baseline: top eigenvector of the data matrix scaled to
    sqrt(n), then normalized entrywise to unit modulus (zeros map to 1)."""
    v = extract_phases(A)
    mod = np.abs(v)
    safe = np.where(mod > 0, mod, 1.0)
    return np.where(mod > 0, v / safe, 1.0 + 0.0j)


def extract_communities(Z: np.ndarray, K: int, seed: int = 0) -> np.ndarray:
    """Labels in [0, K) from k-means on the rows of the top-K spectral
    embedding of the solved matrix.

    Eigenvectors are scaled by sqrt(max(eigenvalue, 0)) before k-means.
    """
    w, V = eigh_sorted(Z)
    if K > w.size:
        raise InvalidInputError("K must be <= n")
    embedding = np.real(V[:, :K]) * np.sqrt(np.maximum(w[:K], 0.0))
    return kmeans(embedding, K, seed=seed)
