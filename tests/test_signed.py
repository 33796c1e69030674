from itertools import combinations

import numpy as np
import pytest

from graphsdp.linalg import InvalidInputError
from graphsdp.metrics import ari
from graphsdp.models import SsbmParams, gen_ssbm
from graphsdp.signed import (
    SPECTRAL_VARIANTS,
    _kmeanspp_init,
    _lloyd,
    bnc_cluster,
    bnc_objective,
    kmeans,
    kmeans_inertia,
    signed_laplacians,
    spectral_cluster,
)


class TestSignedLaplacians:
    def test_positive_edge(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, lbar, _ = signed_laplacians(A)
        assert np.array_equal(lbar, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_negative_edge_hand_computation(self):
        A = np.array([[0.0, -1.0], [-1.0, 0.0]])
        _, lbar, _ = signed_laplacians(A)
        assert np.array_equal(lbar, np.array([[1.0, 1.0], [1.0, 1.0]]))
        vals = np.linalg.eigvalsh(lbar)
        assert np.allclose(sorted(vals), [0.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_lbar_psd_for_random_signed_graphs(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.choice([-1.0, 0.0, 1.0], size=(12, 12), p=[0.3, 0.4, 0.3])
        A = np.triu(A, 1) + np.triu(A, 1).T
        _, lbar, _ = signed_laplacians(A)
        assert np.linalg.eigvalsh(lbar).min() >= -1e-9

    def test_self_loops_ignored(self):
        A = np.array([[5.0, 1.0], [1.0, -2.0]])
        dbar, _, _ = signed_laplacians(A)
        assert np.array_equal(dbar, np.array([1.0, 1.0]))

    def test_isolated_node_pseudo_inverse(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        _, _, lbar_sym = signed_laplacians(A)
        assert np.all(np.isfinite(lbar_sym))


class TestKmeans:
    def test_two_separated_clouds(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        got = kmeans(pts, 2, seed=0)
        assert got[0] == got[1]
        assert got[2] == got[3]
        assert got[0] != got[2]

    def test_single_cluster_inertia_is_total_scatter(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 3))
        got = kmeans(pts, 1, seed=0)
        scatter = float(np.sum((pts - pts.mean(axis=0)) ** 2))
        assert kmeans_inertia(pts, got) == pytest.approx(scatter)

    def test_matches_exhaustive_partition_search(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        got = kmeans(pts, 2, seed=0)
        assert got.tolist() == [0, 0, 1, 1]
        assert kmeans_inertia(pts, got) == pytest.approx(1.0)
        # brute-force oracle over all 2-subsets
        best = np.inf
        idx = set(range(4))
        for size in range(1, 4):
            for left in combinations(range(4), size):
                right = tuple(idx - set(left))
                l, r = pts[list(left)], pts[list(right)]
                best = min(best, np.sum((l - l.mean()) ** 2) + np.sum((r - r.mean()) ** 2))
        assert kmeans_inertia(pts, got) == pytest.approx(best)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 2))
        a = kmeans(pts, 3, seed=7)
        b = kmeans(pts, 3, seed=7)
        assert np.array_equal(a, b)

    def test_k_larger_than_n(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((2, 1)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, bad):
        pts = np.zeros((6, 2))
        pts[3, 1] = bad
        with pytest.raises(InvalidInputError):
            kmeans(pts, 2)

    def test_three_dimensional_points(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((6, 2, 2)), 2)

    def test_inertia_checks_points_as_kmeans_does(self):
        labels = np.array([0, 0, 1, 1, 1, 0])
        with pytest.raises(InvalidInputError, match="1-D or 2-D"):
            kmeans_inertia(np.zeros((6, 2, 2)), labels)
        pts = np.zeros((6, 2))
        pts[3, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            kmeans_inertia(pts, labels)

    def test_inertia_needs_one_label_per_point(self):
        pts = np.arange(6.0)
        for labels in (np.zeros(5, dtype=int), np.zeros(7, dtype=int), np.zeros((6, 1), dtype=int)):
            with pytest.raises(InvalidInputError, match="one label per point"):
                kmeans_inertia(pts, labels)


class TestSpectralCluster:
    @pytest.mark.parametrize("variant", SPECTRAL_VARIANTS)
    def test_noiseless_ssbm_exact(self, variant):
        inst = gen_ssbm(SsbmParams(n=20, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=0)
        got = spectral_cluster(inst.observed, variant, 2, seed=0)
        assert ari(got, inst.ground_truth) == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", SPECTRAL_VARIANTS)
    def test_noiseless_large_k(self, variant):
        inst = gen_ssbm(SsbmParams(n=16, n_clusters=4, p=1.0, q=0.0, delta=1.0), seed=1)
        got = spectral_cluster(inst.observed, variant, 4, seed=0)
        assert ari(got, inst.ground_truth) == pytest.approx(1.0)

    def test_relabeling_invariance(self):
        inst = gen_ssbm(SsbmParams(n=18, n_clusters=3, p=0.9, q=0.1, delta=0.9), seed=3)
        A = inst.observed
        rng = np.random.default_rng(0)
        perm = rng.permutation(18)
        A_perm = A[np.ix_(perm, perm)]
        a = spectral_cluster(A, "adjacency", 3, seed=0)
        b = spectral_cluster(A_perm, "adjacency", 3, seed=0)
        assert ari(a[perm], b) == pytest.approx(1.0)

    def test_unknown_variant(self):
        with pytest.raises(InvalidInputError):
            spectral_cluster(np.eye(4), "nope", 2)


class TestBnc:
    def test_noiseless_two_blocks(self):
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=0)
        got = bnc_cluster(inst.observed, 2, seed=0)
        assert ari(got, inst.ground_truth) == pytest.approx(1.0)
        assert bnc_objective(inst.observed, got) == pytest.approx(0.0, abs=1e-9)

    def test_k1_single_cluster(self):
        inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=0.8), seed=1)
        got = bnc_cluster(inst.observed, 1, seed=0)
        assert got.tolist() == [0] * 8

    def test_beats_random_partitions(self):
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=3, p=0.8, q=0.2, delta=0.9), seed=5)
        got = bnc_cluster(inst.observed, 3, seed=0)
        obj = bnc_objective(inst.observed, got)
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = rng.integers(0, 3, 12)
            if len(np.unique(labels)) < 3:
                continue
            assert obj <= bnc_objective(inst.observed, labels) + 1e-9


def _kmeanspp_starts(points, K, seeds):
    return _kmeanspp_init(points, K, [np.random.default_rng(s) for s in seeds])


def _lloyd_reference(points, centers, max_rounds=300):
    """One start's Lloyd rounds, cluster by cluster: the loop the batched
    kernel replaced."""
    labels = None
    for _ in range(max_rounds):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_labels = np.argmin(d2, axis=1)
        for k in range(centers.shape[0]):
            members = new_labels == k
            if members.any():
                centers[k] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(np.min(d2, axis=1)))
                centers[k] = points[far]
                new_labels[far] = k
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels


def test_kmeans_inertia_non_increasing_over_lloyd_rounds():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 2))
    starts = _kmeanspp_starts(pts, 4, range(10))
    prev = np.full(10, np.inf)
    for rounds in range(1, 12):
        _, inertia = _lloyd(pts, starts.copy(), max_rounds=rounds)
        assert np.all(inertia <= prev + 1e-12 * np.abs(inertia))
        prev = inertia


def test_batched_restarts_equal_each_restart_alone():
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.standard_normal((30, 3)) + c for c in (0.0, 2.0, 4.0)])
    starts = _kmeanspp_starts(pts, 5, range(10))
    labels, inertia = _lloyd(pts, starts.copy())
    for r in range(10):
        alone_labels, alone_inertia = _lloyd(pts, starts[r : r + 1].copy())
        assert np.array_equal(labels[r], alone_labels[0])
        assert inertia[r] == alone_inertia[0]
        assert np.array_equal(labels[r], _lloyd_reference(pts, starts[r].copy()))


def test_empty_cluster_reseeded_inside_a_batch():
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    # start 0's third center is nearest to no point, so it must be re-seeded
    starts = np.array([[[-0.5], [0.5], [100.0]], [[-0.6], [0.0], [0.6]]])
    centers = starts.copy()
    labels, inertia = _lloyd(pts, centers)
    assert np.any(labels[0] == 2)
    assert np.abs(centers[0, 2, 0]) <= 1.0
    for r in range(2):
        alone_labels, alone_inertia = _lloyd(pts, starts[r : r + 1].copy())
        assert np.array_equal(labels[r], alone_labels[0])
        assert inertia[r] == alone_inertia[0]
        assert np.array_equal(labels[r], _lloyd_reference(pts, starts[r].copy()))
