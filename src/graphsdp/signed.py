"""Signed-graph clustering baselines and the shared k-means engine.

These are the algorithms run before/after the SDP denoising step: spectral
clustering on the adjacency or one of the signed Laplacians, and the
balanced-normalized-cut relaxation.  Self-loops are ignored throughout
(degrees and Laplacians are built from the off-diagonal part), and isolated
nodes follow the pseudo-inverse convention: their normalized-embedding rows
are zero.  Every clustering returns its labels as an integer array, numbered
by first appearance.
"""

from __future__ import annotations

import numpy as np

from . import _rng
from .linalg import InvalidInputError, eigh_sorted, symmetrize

__all__ = [
    "signed_laplacians",
    "kmeans",
    "kmeans_inertia",
    "spectral_cluster",
    "bnc_cluster",
    "bnc_objective",
    "cluster_baseline",
    "SPECTRAL_VARIANTS",
    "BASELINES",
]

SPECTRAL_VARIANTS = ("adjacency", "lbar", "lbar_rw", "lbar_sym")
BASELINES = SPECTRAL_VARIANTS + ("bnc",)

_KMEANS_RESTARTS = 10    # seeded k-means++ starts; the lowest inertia wins


def _offdiag(A: np.ndarray) -> np.ndarray:
    out = np.array(A, dtype=float, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


def _pinv_vec(d: np.ndarray, power: float) -> np.ndarray:
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = d[pos] ** power
    return out


def _signed_degrees(A: np.ndarray):
    """The symmetrized off-diagonal part of ``A`` and its absolute degrees."""
    A = _offdiag(symmetrize(A))
    return A, np.abs(A).sum(axis=1)


def signed_laplacians(A: np.ndarray):
    """``(dbar, lbar, lbar_sym)`` of a (possibly weighted) signed graph: the
    absolute degrees, the combinatorial ``diag(dbar) - A`` and the symmetric
    ``I - Dbar^{-1/2} A Dbar^{-1/2}``, all on the off-diagonal part of A."""
    A, dbar = _signed_degrees(A)
    return dbar, np.diag(dbar) - A, _lbar_sym(A, dbar)


def _lbar_sym(A: np.ndarray, dbar: np.ndarray) -> np.ndarray:
    inv_sqrt = _pinv_vec(dbar, -0.5)
    return np.eye(A.shape[0]) - (inv_sqrt[:, None] * A) * inv_sqrt[None, :]


# ---------------------------------------------------------------------------
# k-means


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    cross = points @ centers.T
    return (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * cross
        + np.sum(centers**2, axis=1)[None, :]
    )


def _kmeanspp_init(points, K, rng):
    n = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[k]) ** 2, axis=1))
    return centers


def _lloyd(points, centers, max_rounds=300):
    labels = None
    for _ in range(max_rounds):
        d2 = _pairwise_sq(points, centers)
        new_labels = np.argmin(d2, axis=1)
        for k in range(centers.shape[0]):
            members = new_labels == k
            if members.any():
                centers[k] = points[members].mean(axis=0)
            else:
                # re-seed an empty cluster with the farthest point
                far = int(np.argmax(np.min(d2, axis=1)))
                centers[k] = points[far]
                new_labels[far] = k
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    inertia = float(np.sum(np.min(_pairwise_sq(points, centers), axis=1)))
    return labels, inertia


def kmeans(points: np.ndarray, K: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means (k-means++ init, Lloyd rounds, best inertia over
    ``_KMEANS_RESTARTS`` starts); labels in [0, K), numbered by first appearance."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if K < 1 or K > n:
        raise InvalidInputError("need 1 <= K <= n")
    if K == 1:
        return np.zeros(n, dtype=int)
    root = _rng.seed_sequence(seed, _rng.STREAM_SOLVER)
    best = None
    for child in root.spawn(_KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(points, K, rng)
        labels, inertia = _lloyd(points, centers.copy())
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return _canonical_labels(best[0], K)


def _canonical_labels(labels: np.ndarray, K: int) -> np.ndarray:
    """Relabel clusters by first appearance so output is order-stable."""
    mapping = {}
    out = np.empty_like(labels)
    nxt = 0
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = nxt
            nxt += 1
        out[i] = mapping[lab]
    if nxt != K:
        raise InvalidInputError("k-means produced an empty cluster")
    return out


def kmeans_inertia(points: np.ndarray, labels: np.ndarray) -> float:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    labels = np.asarray(labels)
    total = 0.0
    for k in np.unique(labels):
        members = points[labels == k]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


# ---------------------------------------------------------------------------
# spectral baselines


def _embedding(A: np.ndarray, variant: str, K: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)     # eigh_sorted or _signed_degrees checks it
    if variant == "adjacency":
        return np.real(eigh_sorted(A)[1][:, :K])
    if variant not in SPECTRAL_VARIANTS:
        raise InvalidInputError(f"unknown spectral variant '{variant}'")
    A, dbar = _signed_degrees(A)   # build only the Laplacian the variant reads
    if variant == "lbar":
        return np.real(eigh_sorted(np.diag(dbar) - A)[1][:, -K:])
    emb = np.real(eigh_sorted(_lbar_sym(A, dbar))[1][:, -K:])
    if variant == "lbar_rw":
        # generalized pair (Lbar, Dbar) via the symmetric form; v = Dbar^{-1/2} w
        emb = _pinv_vec(dbar, -0.5)[:, None] * emb
    emb[dbar == 0] = 0.0
    return emb


def spectral_cluster(A: np.ndarray, variant: str, K: int, seed: int = 0) -> np.ndarray:
    """Cluster rows of a K-dimensional spectral embedding of the signed graph.

    ``adjacency`` embeds with the top-K eigenvectors (largest eigenvalues);
    the Laplacian variants use the bottom-K.
    """
    return kmeans(_embedding(A, variant, K), K, seed=seed)


def _positive_part_laplacian(A: np.ndarray):
    off = _offdiag(A)
    a_plus = np.maximum(off, 0.0)
    d_plus = a_plus.sum(axis=1)
    return np.diag(d_plus) - off  # D+ - A = L+ + A-


def bnc_cluster(A: np.ndarray, K: int, seed: int = 0) -> np.ndarray:
    """Balanced-normalized-cut relaxation: K smallest generalized eigenvectors
    of (D+ - A, Dbar), rows normalized, then k-means."""
    A = np.asarray(A, dtype=float)
    _, dbar = _signed_degrees(A)       # checks A
    lhs = _positive_part_laplacian(A)
    inv_sqrt = _pinv_vec(dbar, -0.5)
    w = np.real(eigh_sorted((inv_sqrt[:, None] * lhs) * inv_sqrt[None, :])[1][:, -K:])
    emb = inv_sqrt[:, None] * w
    emb[dbar == 0] = 0.0
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms
    return kmeans(emb, K, seed=seed)


def cluster_baseline(A: np.ndarray, algo: str, K: int, seed: int = 0) -> np.ndarray:
    """Run one baseline by name: a spectral variant or ``bnc``."""
    if algo == "bnc":
        return bnc_cluster(A, K, seed=seed)
    return spectral_cluster(A, algo, K, seed=seed)


def bnc_objective(A: np.ndarray, labels: np.ndarray) -> float:
    """sum_c x_c' (D+ - A) x_c / x_c' Dbar x_c over the cluster indicators."""
    A = np.asarray(A, dtype=float)
    _, dbar = _signed_degrees(A)       # checks A
    lhs = _positive_part_laplacian(A)
    labels = np.asarray(labels)
    total = 0.0
    for k in np.unique(labels):
        x = (labels == k).astype(float)
        denom = float(x @ (dbar * x))
        num = float(x @ lhs @ x)
        if denom > 0:
            total += num / denom
    return total
