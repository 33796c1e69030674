import numpy as np
import pytest

from graphsdp import _rng, linalg
from graphsdp.linalg import InvalidInputError, frobenius_norm
from graphsdp.metrics import cut_value, phase_aligned_l2, sync_mse
from graphsdp.models import SsbmParams, SyncParams, gen_ssbm, gen_sync, membership_matrix, oracle_sync, sample_feasible
from graphsdp.rounding import (
    expected_cut_closed_form,
    extract_communities,
    extract_phases,
    factorize_gram,
    gw_round,
    spectral_sync,
)
from graphsdp.signed import kmeans
from graphsdp.solvers import BmConfig, bm_solve, pierra_signed


def random_unit_diag_psd(n, rng):
    return sample_feasible("maxcut", n, rng)


MALFORMED = {
    "non_square": (np.ones((3, 4)), "must be square"),
    "vector": (np.ones(3), "must be square"),
    "scalar": (np.array(1.0), "must be square"),
    "empty": (np.ones((0, 0)), "dimension >= 1"),
    "nan": (np.full((3, 3), np.nan), "non-finite"),
    "inf": (np.diag([1.0, np.inf, 1.0]), "non-finite"),
    "complex_nan": (np.full((3, 3), np.nan + 0j), "non-finite"),
}
ROUNDING_STEPS = {
    "factorize_gram": factorize_gram,
    "gw_round": lambda Z: gw_round(Z, np.ones((3, 3)), 5),
    "extract_phases": extract_phases,
    "spectral_sync": spectral_sync,
    "extract_communities": lambda Z: extract_communities(Z, 1),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("step", ROUNDING_STEPS)
def test_rejects_malformed_input(step, case):
    # each step checks its input once, inside the linalg call it makes
    Z, message = MALFORMED[case]
    with pytest.raises(InvalidInputError, match=message):
        ROUNDING_STEPS[step](Z)


class TestFactorizeGram:
    def test_identity(self):
        X = factorize_gram(np.eye(3))
        assert np.allclose(np.abs(X @ X.T), np.eye(3), atol=1e-12)

    def test_all_ones_rank_one(self):
        X = factorize_gram(np.ones((4, 4)))
        assert np.allclose(X @ X.T, np.ones((4, 4)), atol=1e-10)
        assert np.allclose(X, np.tile(X[0], (4, 1)), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        Z = random_unit_diag_psd(8, rng)
        X = factorize_gram(Z)
        assert frobenius_norm(X @ X.T - Z) <= 1e-8 * 8
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            factorize_gram(np.diag([1.0, -0.5]))


class TestGwRound:
    def test_antipodal_edge_always_cut(self):
        Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        x, mean = gw_round(Z, A0, n_samples=50, seed=0)
        assert mean == pytest.approx(1.0)
        assert cut_value(A0, x) == pytest.approx(1.0)

    def test_orthogonal_rows_cut_half(self):
        # Grothendieck identity: <u, v> = 0 gives cut probability 1/2
        Z = np.eye(2)
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        n_samples = 10000
        _, mean = gw_round(Z, A0, n_samples=n_samples, seed=1)
        se = 0.5 / np.sqrt(n_samples)
        assert abs(mean - 0.5) <= 3 * se

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_matches_closed_form(self, seed):
        rng = np.random.default_rng(70 + seed)
        n = 6
        Z = random_unit_diag_psd(n, rng)
        A0 = (rng.random((n, n)) < 0.6).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        n_samples = 10000
        _, mean = gw_round(Z, A0, n_samples=n_samples, seed=seed)
        closed = expected_cut_closed_form(A0, Z)
        # binomial-style bound on the sd of one sampled cut value
        sd = A0.sum() / 2 / 2
        assert abs(mean - closed) <= 3 * max(sd, 0.25) / np.sqrt(n_samples) + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_one_sample_at_a_time(self, seed):
        rng = np.random.default_rng(80 + seed)
        n = 9
        Z = random_unit_diag_psd(n, rng)
        A0 = (rng.random((n, n)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        # reference: one draw, one sign vector and one cut per sample
        rows = factorize_gram(Z)
        sampler = _rng.stream(seed, _rng.STREAM_SOLVER)
        best_x, best_val, total = None, -np.inf, 0.0
        for _ in range(40):
            x = np.where(rows @ sampler.standard_normal(n) >= 0, 1.0, -1.0)
            val = float(0.25 * np.sum(A0 * (1.0 - np.outer(x, x))))
            total += val
            if val > best_val:
                best_x, best_val = x, val
        x, mean = gw_round(Z, A0, 40, seed=seed)
        assert np.array_equal(x, best_x) and mean == total / 40

    def test_rejects_complex_factor(self):
        Z = oracle_sync(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            gw_round(Z, np.ones((3, 3)) - np.eye(3), 10)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        Z = random_unit_diag_psd(5, rng)
        A0 = np.ones((5, 5)) - np.eye(5)
        x1, m1 = gw_round(Z, A0, 64, seed=9)
        x2, m2 = gw_round(Z, A0, 64, seed=9)
        assert np.array_equal(x1, x2) and m1 == m2


class TestExpectedCutClosedForm:
    def test_single_edge_antipodal(self):
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert expected_cut_closed_form(A0, Z) == pytest.approx(1.0)

    def test_single_edge_orthogonal(self):
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert expected_cut_closed_form(A0, np.eye(2)) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_gw_guarantee_inequality(self, seed):
        # 2/pi arccos(t) >= 0.878 (1 - t) summed against any nonneg graph
        rng = np.random.default_rng(100 + seed)
        n = 7
        Z = random_unit_diag_psd(n, rng)
        A0 = (rng.random((n, n)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        lhs = expected_cut_closed_form(A0, Z)
        rhs = 0.878 * 0.25 * np.vdot(A0, np.ones((n, n)) - Z).real
        assert lhs >= rhs - 1e-9

    def test_rejects_a_non_square_graph(self):
        with pytest.raises(InvalidInputError, match="graph must be square"):
            expected_cut_closed_form(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_a_complex_solution(self):
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="real solution"):
            expected_cut_closed_form(A0, 1j * np.ones((2, 2)))

    def test_rejects_a_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            expected_cut_closed_form(np.ones((2, 2)) - np.eye(2), np.eye(3))


class TestExtractPhases:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        phases = rng.uniform(0, 2 * np.pi, 10)
        Z = oracle_sync(phases)
        x_hat = extract_phases(Z)
        x_star = np.exp(1j * phases)
        assert phase_aligned_l2(x_hat, x_star) <= 1e-8

    def test_degenerate_identity_allowed(self):
        x = extract_phases(np.eye(5))
        assert abs(np.linalg.norm(x) - np.sqrt(5)) <= 1e-9

    def test_global_phase_equivariance(self):
        rng = np.random.default_rng(4)
        phases = rng.uniform(0, 2 * np.pi, 8)
        Z = oracle_sync(phases)
        shift = np.exp(1j * 1.234)
        e1 = phase_aligned_l2(extract_phases(Z), np.exp(1j * phases))
        e2 = phase_aligned_l2(extract_phases(Z), shift * np.exp(1j * phases))
        assert abs(e1 - e2) <= 1e-10

    def test_error_grows_with_noise(self):
        # paired Monte Carlo: noisier instances have larger aligned error
        wins = 0
        for seed in range(20):
            errs = []
            for sigma in (0.1, 0.5):
                inst = gen_sync(SyncParams(n=100, sigma=sigma), seed=seed)
                _, Z, _ = bm_solve(inst.observed, "max", BmConfig(seed=seed, restarts=1))
                x_star = np.exp(1j * inst.ground_truth)
                errs.append(phase_aligned_l2(extract_phases(Z), x_star))
            wins += errs[0] < errs[1]
        assert wins >= 18


class TestSpectralSync:
    def test_noiseless_recovery(self):
        inst = gen_sync(SyncParams(n=12, sigma=0.0), seed=1)
        x = spectral_sync(inst.observed)
        assert phase_aligned_l2(x, np.exp(1j * inst.ground_truth)) <= 1e-6

    def test_unit_modulus_output(self):
        inst = gen_sync(SyncParams(n=12, sigma=0.8), seed=2)
        x = spectral_sync(inst.observed)
        assert np.allclose(np.abs(x), 1.0, atol=1e-12)

    def test_comparable_to_sdp_pipeline(self):
        # cross-method Monte Carlo at sigma = 0.2
        ratios = []
        for seed in range(20):
            inst = gen_sync(SyncParams(n=200, sigma=0.2), seed=seed)
            mse_spec = sync_mse(np.angle(spectral_sync(inst.observed)), inst.ground_truth)
            _, Z, _ = bm_solve(inst.observed, "max", BmConfig(seed=seed, restarts=1))
            mse_sdp = sync_mse(np.angle(extract_phases(Z)), inst.ground_truth)
            ratios.append(mse_sdp / max(mse_spec, 1e-15))
        assert np.median(ratios) <= 2.0


class TestKrylovPhases:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_the_exact_path_on_the_bm_bundle(self, seed, monkeypatch):
        # the benchmark's sync instances (n=200, sigma 0.1 / 0.3 / 0.5): both
        # rounding steps are settled by Lanczos, and under the phase
        # convention they equal the eigvalsh path entrywise
        inst = gen_sync(SyncParams(n=200, sigma=(0.1, 0.3, 0.5)[seed]), seed=seed)
        _, Z, _ = bm_solve(inst.observed, "max", BmConfig(seed=seed, restarts=2, max_iters=20_000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_inverse_iteration_top", None)
            fast = extract_phases(Z), spectral_sync(inst.observed)
        monkeypatch.setattr(linalg, "_lanczos_top", lambda H: None)
        exact = extract_phases(Z), spectral_sync(inst.observed)
        for f, e in zip(fast, exact):
            assert np.max(np.abs(f - e)) <= 1e-9


class TestExtractCommunities:
    def test_exact_membership_matrix(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        Z = membership_matrix(labels)
        got = extract_communities(Z, 2, seed=0)
        from graphsdp.metrics import ari
        assert ari(got, labels) == pytest.approx(1.0)

    def test_all_ones_single_community(self):
        got = extract_communities(np.ones((5, 5)), 1, seed=0)
        assert got.tolist() == [0] * 5

    def test_solved_noiseless_ssbm_pipeline(self):
        inst = gen_ssbm(SsbmParams(n=40, n_clusters=5, p=1.0, q=0.0, delta=1.0), seed=0)
        Z, _ = pierra_signed(inst.observed, inst.params["alpha"])
        got = extract_communities(Z, 5, seed=0)
        from graphsdp.metrics import ari
        assert ari(got, inst.ground_truth) == pytest.approx(1.0)

    def test_k_bigger_than_n_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_communities(np.eye(3), 4)


class TestSeeds:
    # every seeded routine draws through _rng.seed_sequence, which checks the
    # seed where it enters: a float is not truncated, nor a bool read as 0 or 1
    ENTRIES = {
        "gen_ssbm": lambda seed: gen_ssbm(
            SsbmParams(n=8, n_clusters=2, p=0.8, q=0.2, delta=0.6), seed=seed),
        "kmeans": lambda seed: kmeans(np.eye(4), 2, seed=seed),
        "gw_round": lambda seed: gw_round(np.eye(4), np.ones((4, 4)) - np.eye(4), 4, seed=seed),
    }

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_bad_seed_names_the_param(self, entry, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            self.ENTRIES[entry](seed)

    def test_integer_seeds_of_any_type_draw_the_same_bits(self):
        draws = [_rng.stream(seed, _rng.STREAM_NOISE).standard_normal(4)
                 for seed in (7, np.int64(7), np.uint32(7))]
        assert all(np.array_equal(draws[0], d) for d in draws[1:])
