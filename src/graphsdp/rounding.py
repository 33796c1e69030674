"""Rounding: from solved SDP matrices back to cuts, clusters and phases."""

from __future__ import annotations

from dataclasses import dataclass

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
from .models import CommunityAssignment
from .signed import kmeans

__all__ = [
    "GramFactor",
    "factorize_gram",
    "gw_round",
    "expected_cut_closed_form",
    "extract_phases",
    "spectral_sync",
    "extract_communities",
]


@dataclass(frozen=True)
class GramFactor:
    """Unit-norm rows X_i with X @ X* approximately the solved matrix."""

    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def gram(self) -> np.ndarray:
        return self.rows @ self.rows.conj().T


def factorize_gram(Z: np.ndarray) -> GramFactor:
    """Eigendecomposition-based factor of a psd, unit-diagonal matrix.

    Negative eigenvalues within tolerance are clamped to zero and the rows
    renormalized to unit length; a minimum eigenvalue below
    -1e-6 * ||Z||_F means the caller must project onto the psd cone first.
    """
    Z = check_square(Z)
    dec = eigh_sorted(Z)
    floor = -1e-6 * max(frobenius_norm(Z), 1e-300)
    if dec.values[-1] < floor:
        raise InvalidInputError(
            f"matrix is not psd to tolerance (min eigenvalue {dec.values[-1]:.3e})"
        )
    w = np.maximum(dec.values, 0.0)
    X = dec.vectors * np.sqrt(w)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return GramFactor(rows=X / norms)


def gw_round(Z: np.ndarray, graph: np.ndarray, n_samples: int, seed: int = 0):
    """Gaussian hyperplane rounding of a solved cut matrix.

    Draws ``g ~ N(0, I)``, takes ``x_i = sign(<X_i, g>)`` (zero maps to +1),
    scores each sample by its cut value on ``graph`` (the full adjacency when
    available, the observed one otherwise), and returns the best sign vector
    together with the sample-mean cut value.  Ties keep the earliest sample.
    All samples are drawn in one block and scored together.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    factor = factorize_gram(Z)
    if np.iscomplexobj(factor.rows):
        raise InvalidInputError("hyperplane rounding expects a real factor")
    rng = _rng.stream(seed, _rng.STREAM_SOLVER)
    g = rng.standard_normal((n_samples, factor.rows.shape[1]))
    x = np.where(g @ factor.rows.T >= 0, 1.0, -1.0)
    cuts = cut_value(graph, x)
    return x[int(np.argmax(cuts))].astype(int), float(cuts.mean())


def expected_cut_closed_form(A0: np.ndarray, Z: np.ndarray) -> float:
    """Exact conditional expectation of the rounded cut given the solved matrix:
    (1/2pi) * sum_ij A0_ij * arccos(Z_ij), entries clamped into [-1, 1]."""
    A0 = np.asarray(A0, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if A0.shape != Z.shape:
        raise InvalidInputError("shape mismatch between graph and solution")
    clamped = np.clip(Z, -1.0, 1.0)
    return float(np.sum(A0 * np.arccos(clamped)) / (2.0 * np.pi))


def extract_phases(Z: np.ndarray) -> np.ndarray:
    """Top eigenvector of the solved Hermitian matrix, scaled to norm sqrt(n).

    No entrywise normalization: the estimator is the raw scaled eigenvector.
    """
    Z = check_square(Z)
    n = Z.shape[0]
    return top_eigenvector(Z, target_norm=float(np.sqrt(n)))


def spectral_sync(A: np.ndarray) -> np.ndarray:
    """Spectral baseline: top eigenvector of the data matrix scaled to
    sqrt(n), then normalized entrywise to unit modulus (zeros map to 1)."""
    v = extract_phases(A)
    mod = np.abs(v)
    safe = np.where(mod > 0, mod, 1.0)
    return np.where(mod > 0, v / safe, 1.0 + 0.0j)


def extract_communities(Z: np.ndarray, K: int, seed: int = 0,
                        restarts: int = 10) -> CommunityAssignment:
    """Cluster the rows of the top-K spectral embedding of the solved matrix.

    Eigenvectors are scaled by sqrt(max(eigenvalue, 0)) before k-means.
    """
    Z = check_square(Z)
    n = Z.shape[0]
    if K > n:
        raise InvalidInputError("K must be <= n")
    dec = eigh_sorted(Z)
    scale = np.sqrt(np.maximum(dec.values[:K], 0.0))
    embedding = np.real(dec.vectors[:, :K]) * scale
    return kmeans(embedding, K, restarts=restarts, seed=seed)
