"""Signed-graph clustering baselines and the shared k-means engine.

These are the algorithms run before/after the SDP denoising step: spectral
clustering on the adjacency or one of the signed Laplacians, and the
balanced-normalized-cut relaxation.  Self-loops are ignored throughout
(degrees and Laplacians are built from the off-diagonal part), and isolated
nodes follow the pseudo-inverse convention: their normalized-embedding rows
are zero.  Every clustering returns its labels as an integer array, numbered
by first appearance.

Every clustering ends in ``kmeans``: ten seeded k-means++ starts run their
Lloyd rounds as one batch, and the lowest inertia wins, the first start on
ties.
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
    """Squared distances ``(R, n, K)`` from the n points to the K centers of
    each of the R stacked starts in ``centers`` ``(R, K, d)``."""
    cross = points @ centers.transpose(0, 2, 1)
    return (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * cross
        + np.sum(centers**2, axis=2)[:, None, :]
    )


def _kmeanspp_init(points, K, rngs):
    """k-means++ centers ``(R, K, d)``, one start per generator in ``rngs``.
    Each start draws from its own generator, in the same order as alone;
    the distances of all starts are updated at once."""
    n = points.shape[0]
    centers = np.empty((len(rngs), K, points.shape[1]))
    centers[:, 0] = points[[int(rng.integers(n)) for rng in rngs]]
    d2 = np.sum((points - centers[:, :1]) ** 2, axis=2)
    for k in range(1, K):
        idx = [
            int(rng.choice(n, p=row / total)) if total > 0 else int(rng.integers(n))
            for rng, row, total in zip(rngs, d2, d2.sum(axis=1))
        ]
        centers[:, k] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[:, k : k + 1]) ** 2, axis=2))
    return centers


def _reseed_empty(points, d2, labels, centers):
    """One start's centroid step when one of its clusters is empty: clusters
    in order, each empty one re-seeded with the point farthest from its
    nearest center, which it takes over before the later clusters' means."""
    for k in range(centers.shape[0]):
        members = labels == k
        if members.any():
            centers[k] = points[members].mean(axis=0)
        else:
            far = int(np.argmax(np.min(d2, axis=1)))
            centers[k] = points[far]
            labels[far] = k


def _lloyd(points, centers, max_rounds=300):
    """Lloyd rounds of R starts at once on ``centers`` ``(R, K, d)``, which
    are updated in place.  A start leaves the batch in the round its labels
    stop changing.  Returns the labels ``(R, n)`` and the inertias ``(R,)``."""
    R, K, d = centers.shape
    n = points.shape[0]
    # one weight per (start, point, coordinate).  bincount adds each bin's
    # rows in index order, as points[members].mean(axis=0) does on two or
    # more columns (one column it sums pairwise, which rounds differently)
    weights = np.tile(points, (R, 1)).ravel()
    labels = np.full((R, n), -1, dtype=np.intp)    # so round 0 moves every start
    active = np.arange(R)
    for _ in range(max_rounds):
        d2 = _pairwise_sq(points, centers[active])
        new_labels = np.argmin(d2, axis=2)
        bins = (new_labels + K * np.arange(active.size)[:, None]).ravel()
        counts = np.bincount(bins, minlength=active.size * K).reshape(-1, K)
        sums = np.bincount(
            (bins[:, None] * d + np.arange(d)).ravel(),
            weights=weights[: bins.size * d],
            minlength=counts.size * d,
        ).reshape(-1, K, d)
        step = sums / np.maximum(counts, 1)[:, :, None]
        for i in np.flatnonzero(np.any(counts == 0, axis=1)):
            _reseed_empty(points, d2[i], new_labels[i], step[i])
        moved = np.any(new_labels != labels[active], axis=1)
        labels[active] = new_labels
        centers[active] = step
        active = active[moved]
        if active.size == 0:
            break
    inertia = np.sum(np.min(_pairwise_sq(points, centers), axis=2), axis=1)
    return labels, inertia


def _kmeans_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a 2-D float array, one row per point, checked as :func:`kmeans` says."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise InvalidInputError(f"k-means points must be 1-D or 2-D, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("k-means points have non-finite entries")
    return points


def kmeans(points: np.ndarray, K: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means; labels in [0, K), numbered by first appearance.

    Ten (``_KMEANS_RESTARTS``) k-means++ starts, each from its own seeded
    generator, run their Lloyd rounds as one batch.  The start with the
    lowest inertia wins, the first one on ties.  ``points`` is a finite 1-D
    array (one coordinate per point) or 2-D array (one row per point);
    anything else raises ``InvalidInputError``.
    """
    points = _kmeans_points(points)
    n = points.shape[0]
    if K < 1 or K > n:
        raise InvalidInputError("need 1 <= K <= n")
    if K == 1:
        return np.zeros(n, dtype=int)
    root = _rng.seed_sequence(seed, _rng.STREAM_SOLVER)
    rngs = [np.random.default_rng(child) for child in root.spawn(_KMEANS_RESTARTS)]
    labels, inertia = _lloyd(points, _kmeanspp_init(points, K, rngs))
    return _canonical_labels(labels[np.argmin(inertia)], K)


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
    """Sum of squared distances from each point to its cluster's mean, with
    ``points`` checked as by :func:`kmeans` and one label per point."""
    points = _kmeans_points(points)
    labels = np.asarray(labels)
    if labels.shape != points.shape[:1]:
        raise InvalidInputError(f"need one label per point, got {labels.shape} for {len(points)}")
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
