import numpy as np
import pytest

from graphsdp.linalg import InvalidInputError, frobenius_norm, psd_residual
from graphsdp.models import (
    SsbmParams,
    SyncParams,
    apply_mask,
    default_sizes,
    gen_bipartite_perturbed,
    gen_sbm,
    gen_ssbm,
    gen_sync,
    membership_matrix,
    oracle_sync,
    sample_feasible,
)
from graphsdp.problems import PROBLEMS
from graphsdp.solvers import _set_projection


class TestTypes:
    def test_membership_matrix(self):
        M = membership_matrix(np.array([0, 0, 1]))
        assert np.array_equal(M, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float))

    def test_ssbm_param_ranges(self):
        with pytest.raises(InvalidInputError):
            SsbmParams(n=4, n_clusters=2, p=0.4, q=0.1, delta=1.0)
        with pytest.raises(InvalidInputError):
            SsbmParams(n=4, n_clusters=2, p=0.9, q=0.6, delta=1.0)
        with pytest.raises(InvalidInputError):
            SsbmParams(n=4, n_clusters=2, p=0.9, q=0.1, delta=0.0)

    def test_alpha_zero_when_p_plus_q_is_one(self):
        params = SsbmParams(n=4, n_clusters=2, p=0.9, q=0.1, delta=0.5)
        assert params.alpha == pytest.approx(0.0)

    def test_sync_param_ranges(self):
        with pytest.raises(InvalidInputError):
            SyncParams(n=4, sigma=-0.1)
        with pytest.raises(InvalidInputError):
            SyncParams(n=4, noise_model="outlier", gamma=1.5)
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            SyncParams(n=0)

    def test_default_sizes(self):
        assert default_sizes(7, 3) == (3, 2, 2)
        assert sum(default_sizes(200, 6)) == 200


class TestOracles:
    def test_equal_phases_give_all_ones(self):
        Z = oracle_sync(np.zeros(4))
        assert np.allclose(Z, np.ones((4, 4)))

    def test_sync_oracle_rank_one(self):
        rng = np.random.default_rng(0)
        Z = oracle_sync(rng.uniform(0, 2 * np.pi, 12))
        s = np.linalg.svd(Z, compute_uv=False)
        assert s[1] <= 1e-10 * 12


class TestSbm:
    def test_degenerate_probabilities_give_block_structure(self):
        inst = gen_sbm(4, 2, 1.0 - 1e-12, 1e-12, seed=0)
        assert np.array_equal(inst.observed, inst.oracle)

    def test_expected_diagonal_is_one(self):
        inst = gen_sbm(6, 2, 0.8, 0.2, seed=1)
        assert np.all(np.diagonal(inst.expected) == 1.0)

    def test_empirical_mean_matches_expected(self):
        # Monte Carlo oracle: mean of A over replicates within 5 standard errors
        n, reps = 8, 2000
        inst0 = gen_sbm(n, 2, 0.7, 0.2, seed=0)
        acc = np.zeros((n, n))
        for seed in range(reps):
            acc += gen_sbm(n, 2, 0.7, 0.2, seed=seed).observed
        mean = acc / reps
        p_mat = inst0.expected
        se = np.sqrt(p_mat * (1 - p_mat) / reps)
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(mean - p_mat)[off] <= 5 * se[off] + 1e-12)

    def test_lambda_recorded(self):
        # unequal default sizes 4, 3, 3
        inst = gen_sbm(10, 3, 0.9, 0.1, seed=0)
        assert inst.params["sizes"] == [4, 3, 3]
        assert inst.params["lam"] == 16 + 9 + 9

    def test_invalid_probabilities(self):
        with pytest.raises(InvalidInputError):
            gen_sbm(4, 2, 0.2, 0.5)


class TestSsbm:
    def test_noiseless_matrix(self):
        inst = gen_ssbm(SsbmParams(n=4, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=0)
        want = np.array([
            [1, 1, -1, -1],
            [1, 1, -1, -1],
            [-1, -1, 1, 1],
            [-1, -1, 1, 1],
        ], dtype=float)
        assert np.array_equal(inst.observed, want)

    def test_entries_and_diagonal(self):
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=3, p=0.8, q=0.2, delta=0.5), seed=4)
        assert set(np.unique(inst.observed)) <= {-1.0, 0.0, 1.0}
        assert np.all(np.diagonal(inst.observed) == 1.0)

    def test_empirical_expectation(self):
        n, reps = 6, 2000
        params = SsbmParams(n=n, n_clusters=2, p=0.8, q=0.3, delta=0.6)
        acc = np.zeros((n, n))
        for seed in range(reps):
            acc += gen_ssbm(params, seed=seed).observed
        mean = acc / reps
        inst = gen_ssbm(params, seed=0)
        # off-diagonal variance of one signed entry: delta*(...) <= 1
        se = np.sqrt(1.0 / reps)
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(mean - inst.expected)[off] <= 5 * se + 1e-12)

    def test_signed_curvature_identity_on_expected_matrix(self):
        # the expected matrix satisfies an exact l1 curvature identity
        rng = np.random.default_rng(3)
        params = SsbmParams(n=10, n_clusters=2, p=0.85, q=0.15, delta=0.7)
        inst = gen_ssbm(params, seed=0)
        J = np.ones((10, 10))
        M = inst.expected - params.alpha * J
        for _ in range(20):
            Z = sample_feasible("signed", 10, rng)
            lhs = np.vdot(M, inst.oracle - Z).real
            rhs = params.theta * np.abs(inst.oracle - Z).sum()
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


class TestSync:
    def test_noiseless_equals_oracle(self):
        inst = gen_sync(SyncParams(n=6, sigma=0.0), seed=0)
        assert np.allclose(inst.observed, inst.oracle, atol=1e-12)

    def test_unit_modulus_observed(self):
        inst = gen_sync(SyncParams(n=8, sigma=1.3), seed=2)
        off = ~np.eye(8, dtype=bool)
        assert np.allclose(np.abs(inst.observed[off]), 1.0, atol=1e-12)

    def test_partial_observation_zeros(self):
        inst = gen_sync(SyncParams(n=40, sigma=0.1, sample_prob=0.5), seed=3)
        off = ~np.eye(40, dtype=bool)
        zeros = np.sum(inst.observed[off] == 0)
        assert 0 < zeros < 40 * 39

    def test_empirical_mean_of_entries(self):
        # Monte Carlo oracle at sigma = 0.5: each seed draws its own phases,
        # so each observation is de-rotated by them before averaging
        sigma, reps = 0.5, 5000
        params = SyncParams(n=3, sigma=sigma)
        acc = np.zeros((3, 3), dtype=complex)
        for seed in range(reps):
            inst = gen_sync(params, seed=seed)
            x = np.exp(1j * inst.ground_truth)
            acc += inst.observed * np.outer(x.conj(), x)
        mean = acc / reps
        want = np.full((3, 3), np.exp(-sigma**2 / 2))
        se = np.sqrt(1.0 / reps)
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(mean - want)[off] <= 5 * se)

    def test_outlier_expected_factor(self):
        params = SyncParams(n=5, noise_model="outlier", gamma=0.3)
        assert params.signal_factor == pytest.approx(0.7)


class TestMaxCut:
    def test_unperturbed_fully_observed(self):
        inst = gen_bipartite_perturbed(8, eta=0.0, delta=1.0, seed=0)
        half = np.repeat([0, 1], 4)
        want = (half[:, None] != half[None, :]).astype(float)
        assert np.array_equal(inst.observed, want)
        assert np.array_equal(inst.rescaled, -want)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_bipartite_perturbed(7, 0.1, 0.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_two_vertices_rejected(self, n):
        # even, but no halves to cut between
        with pytest.raises(InvalidInputError, match=f"n must be even and >= 2, got {n}"):
            gen_bipartite_perturbed(n, 0.1, 0.5)

    def test_within_half_edge_count_matches_binomial_oracle(self):
        n, eta, reps = 20, 0.3, 400
        half = np.repeat([0, 1], n // 2)
        within_mask = (half[:, None] == half[None, :]) & ~np.eye(n, dtype=bool)
        counts = []
        for seed in range(reps):
            inst = gen_bipartite_perturbed(n, eta, 1.0, seed=seed)
            counts.append(inst.full_adjacency[within_mask].sum() / 2)
        pairs = 2 * (n // 2) * (n // 2 - 1) / 2
        want = eta * pairs
        se = np.sqrt(pairs * eta * (1 - eta) / reps)
        assert abs(np.mean(counts) - want) <= 5 * se

    def test_apply_mask_identity_at_p_one(self):
        rng = np.random.default_rng(1)
        A0 = (rng.random((10, 10)) < 0.4).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        inst = apply_mask(A0, 1.0, seed=0)
        assert np.array_equal(inst.observed, A0)
        assert np.array_equal(inst.rescaled, -A0)

    def test_mask_mean_and_count(self):
        rng = np.random.default_rng(2)
        A0 = (rng.random((12, 12)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        p, reps = 0.6, 2000
        acc = np.zeros_like(A0)
        kept = []
        edges = A0.sum() / 2
        for seed in range(reps):
            inst = apply_mask(A0, p, seed=seed)
            acc += inst.rescaled
            kept.append(inst.observed.sum() / 2)
        mean_B = acc / reps
        se_entry = np.sqrt((1 - p) / (p * reps))  # sd of -(1/p)*Bern(p) is sqrt((1-p)/p)
        assert np.all(np.abs(mean_B - (-A0)) <= 5 * se_entry + 1e-12)
        se_count = np.sqrt(edges * p * (1 - p) / reps)
        assert abs(np.mean(kept) - p * edges) <= 5 * se_count

    def test_mask_prob_range(self):
        with pytest.raises(InvalidInputError):
            apply_mask(np.zeros((3, 3)), 0.0)


class TestInstanceInvariants:
    @pytest.mark.parametrize("problem", ["community", "signed", "sync"])
    def test_oracle_maximizes_expected_objective(self, problem):
        rng = np.random.default_rng(10)
        if problem == "community":
            inst = gen_sbm(12, 3, 0.85, 0.15, seed=2)
            shift = 0.0
            lam = inst.params["lam"]
        elif problem == "signed":
            inst = gen_ssbm(SsbmParams(n=12, n_clusters=3, p=0.85, q=0.15, delta=0.8), seed=2)
            shift = inst.params["alpha"]
            lam = None
        else:
            inst = gen_sync(SyncParams(n=12, sigma=0.4), seed=2)
            shift = 0.0
            lam = None
        M = inst.expected - shift * np.ones((12, 12))
        oracle_val = np.vdot(M, inst.oracle).real
        for _ in range(100):
            Z = sample_feasible(problem, 12, rng, lam=lam)
            assert oracle_val >= np.vdot(M, Z).real - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_lies_in_the_problem_set(self, seed):
        # every generated oracle is feasible for its problem's constraint
        # set: the exact psd residual for the cone, one projection onto
        # each atom alone for the rest (the diagonal's distance to 1 for
        # the complex sync oracle)
        instances = [
            gen_sbm(14, 3, 0.8, 0.2, seed=seed),
            gen_ssbm(SsbmParams(n=14, n_clusters=3, p=0.8, q=0.2, delta=0.6), seed=seed),
            gen_sync(SyncParams(n=14, sigma=0.5), seed=seed),
            gen_sync(SyncParams(n=14, noise_model="outlier", gamma=0.3, sample_prob=0.6),
                     seed=seed),
        ]
        for inst in instances:
            Z = inst.oracle
            scale = 1.0 + frobenius_norm(Z)
            assert psd_residual(Z) / scale <= 1e-8, (inst.problem, "psd")
            for atom in PROBLEMS[inst.problem].atoms(inst.params):
                if np.iscomplexobj(Z):    # sync's unit diagonal: the set projection is real
                    assert atom.kind == "diag_eq_one"
                    residual = frobenius_norm(np.diagonal(Z) - 1.0)
                else:
                    residual = frobenius_norm(_set_projection([atom], Z)(Z) - Z)
                assert residual / scale <= 1e-8, (inst.problem, atom.kind)

    def test_determinism_bit_identical(self):
        params = SsbmParams(n=15, n_clusters=3, p=0.8, q=0.2, delta=0.5)
        a = gen_ssbm(params, seed=42).observed
        b = gen_ssbm(params, seed=42).observed
        assert np.array_equal(a, b)
        c = gen_sync(SyncParams(n=9, sigma=0.7), seed=13)
        d = gen_sync(SyncParams(n=9, sigma=0.7), seed=13)
        assert np.array_equal(c.observed, d.observed)

    def test_sample_feasible_members(self):
        rng = np.random.default_rng(5)
        Z = sample_feasible("signed", 8, rng)
        assert np.linalg.eigvalsh(Z).min() >= -1e-9
        assert Z.min() >= 0 and Z.max() <= 1 + 1e-12
        assert np.allclose(np.diagonal(Z), 1.0)
        Zc = sample_feasible("community", 8, rng, lam=10.0)
        assert Zc.sum() <= 10.0 + 1e-9
        assert np.linalg.eigvalsh(Zc).min() >= -1e-9
        Zs = sample_feasible("sync", 8, rng)
        assert np.linalg.eigvalsh(Zs).min() >= -1e-9
        assert np.allclose(np.diagonal(Zs).real, 1.0)
