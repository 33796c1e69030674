"""Dense symmetric / Hermitian linear algebra kernels.

Everything downstream (solvers, rounding, spectral baselines) goes through
these few primitives: eigendecomposition, PSD projection and top
eigenvector extraction.  All matrices are plain numpy
arrays; the helpers here validate and symmetrize instead of wrapping them
in dedicated classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "check_square",
    "symmetrize",
    "is_hermitian",
    "eigh_sorted",
    "project_psd",
    "top_eigenvector",
    "frobenius_norm",
]


class InvalidInputError(ValueError):
    """Raised on malformed numerical input (non-finite, wrong shape, ...)."""


def check_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise InvalidInputError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return M


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, the nearest (conjugate-)symmetric matrix."""
    M = check_square(M)
    return (M + M.conj().T) / 2


def is_hermitian(M: np.ndarray, tol: float = 1e-10) -> bool:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    scale = 1.0 + frobenius_norm(M)
    return float(frobenius_norm(M - M.conj().T)) <= tol * scale


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a (conjugate-)symmetric matrix, sorted descending.

    ``values`` is real; ``vectors`` holds orthonormal columns so that
    ``M = vectors @ diag(values) @ vectors.conj().T``.
    """

    values: np.ndarray
    vectors: np.ndarray


def eigh_sorted(M: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a (conjugate-)symmetric matrix, eigenvalues descending."""
    M = check_square(M)
    w, V = np.linalg.eigh(symmetrize(M))
    order = np.argsort(w)[::-1]
    return EigenDecomposition(values=w[order], vectors=V[:, order])


def project_psd(M: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative eigenvalues."""
    dec = eigh_sorted(M)
    w = np.maximum(dec.values, 0.0)
    out = (dec.vectors * w) @ dec.vectors.conj().T
    return symmetrize(out)


def top_eigenvector(M: np.ndarray, target_norm: float = 1.0) -> np.ndarray:
    """Eigenvector of the largest eigenvalue, scaled to ``target_norm``.

    Sign/phase convention: the entry of largest modulus gets a non-negative
    real part (first such entry on ties).  For a degenerate top eigenspace
    any unit maximizer may be returned, with the same convention applied.
    """
    dec = eigh_sorted(M)
    v = dec.vectors[:, 0]
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) > 0:
        if np.iscomplexobj(v):
            v = v * (pivot.conjugate() / abs(pivot))
        elif pivot.real < 0:
            v = -v
    return v * target_norm


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(M)))
