import numpy as np
import pytest

from graphsdp.linalg import InvalidInputError
from graphsdp.metrics import (
    BOUNDS,
    K_GROTHENDIECK,
    ari,
    bound_report,
    brute_force_maxcut,
    curvature_check_sync,
    cut_value,
    estimate_fixed_point,
    excess_risk,
    gv_rstar_bound,
    maxcut_rstar_bound,
    phase_aligned_l2,
    signed_error_rate,
    sync_excess_bound,
    sync_mse,
)
from graphsdp.models import (
    SsbmParams,
    SyncParams,
    gen_sbm,
    gen_ssbm,
    gen_sync,
    membership_matrix,
    sample_feasible,
)
from graphsdp.solvers import signed_atoms


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_label_permutation(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_hand_contingency_oracle(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        # contingency table is all ones: sum_ij C(1,2) = 0; a and b marginals
        # are (2,2): sum C(2,2) = 2 each; total pairs C(4,2) = 6.
        # ARI = (0 - 2*2/6) / (2 - 2*2/6) = -0.5
        assert ari(a, b) == pytest.approx((0 - 4 / 6) / (2 - 4 / 6))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ari([0, 1], [0, 1, 1])


class TestSignedErrorRate:
    def make_complete(self, labels):
        return 2.0 * membership_matrix(np.asarray(labels)) - 1.0

    def test_truth_scores_zero(self):
        labels = [0, 0, 1, 1, 2]
        assert signed_error_rate(labels, self.make_complete(labels)) == pytest.approx(0.0)

    def test_single_cluster_hand_count(self):
        truth = [0, 0, 1, 1]
        A_com = self.make_complete(truth)
        # everything in one cluster: the 8 off-block -1 entries are violations
        assert signed_error_rate([0, 0, 0, 0], A_com) == pytest.approx(8 / 16)

    def test_relabeling_invariance(self):
        truth = [0, 0, 1, 1, 2, 2]
        A_com = self.make_complete(truth)
        guess = [2, 2, 0, 0, 1, 1]
        assert signed_error_rate(guess, A_com) == pytest.approx(
            signed_error_rate(truth, A_com)
        )

    def test_rejects_non_sign_matrix(self):
        with pytest.raises(InvalidInputError):
            signed_error_rate([0, 1], np.array([[1.0, 0.5], [0.5, 1.0]]))

    @pytest.mark.parametrize("labels", [[0, 1, 1], [[0, 0, 1, 1]], [[0, 0], [1, 1]]])
    def test_needs_one_label_per_node(self, labels):
        with pytest.raises(InvalidInputError, match="labels length mismatch"):
            signed_error_rate(labels, self.make_complete([0, 0, 1, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pair_by_pair_count(self, seed):
        # random labelings against a random matrix of -1, 0 and +1 with an
        # arbitrary diagonal: count each ordered pair i != j that violates
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            labels = rng.integers(-3, 7, n)
            A = rng.integers(-1, 2, (n, n)).astype(float)
            A = np.triu(A, 1) + np.triu(A, 1).T + np.diag(rng.standard_normal(n))
            violations = sum(
                1 for i in range(n) for j in range(n) if i != j
                and (A[i, j] < 0 if labels[i] == labels[j] else A[i, j] > 0))
            assert signed_error_rate(labels, A) == violations / n**2


class TestSyncMse:
    def test_exact(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 2 * np.pi, 50)
        assert sync_mse(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_global_shift_invariant(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 2 * np.pi, 50)
        assert sync_mse(t + 0.83, t) == pytest.approx(0.0, abs=1e-10)

    def test_random_vs_fixed_is_nearly_four(self):
        rng = np.random.default_rng(2)
        n = 2000
        t = rng.uniform(0, 2 * np.pi, n)
        est = rng.uniform(0, 2 * np.pi, n)
        val = sync_mse(est, t)
        assert 3.8 <= val <= 4.0


class TestPhaseAligned:
    def test_zero_on_equal(self):
        x = np.exp(1j * np.linspace(0, 3, 7))
        assert phase_aligned_l2(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_on_global_rotation(self):
        x = np.exp(1j * np.linspace(0, 3, 7))
        assert phase_aligned_l2(np.exp(1j * 0.4) * x, x) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_beats_random_rotations(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        best = phase_aligned_l2(x, y)
        for _ in range(100):
            z = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert best <= np.linalg.norm(x - z * y) + 1e-12


class TestCutValue:
    def test_triangle(self):
        K3 = np.ones((3, 3)) - np.eye(3)
        assert cut_value(K3, np.array([1, 1, -1])) == pytest.approx(2.0)

    def test_empty_graph(self):
        assert cut_value(np.zeros((4, 4)), np.array([1, -1, 1, -1])) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_edge_crossing_count(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        A0 = (rng.random((n, n)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        x = rng.choice([-1.0, 1.0], n)
        crossing = sum(
            A0[i, j] for i in range(n) for j in range(i + 1, n) if x[i] != x[j]
        )
        assert cut_value(A0, x) == pytest.approx(crossing)


class TestBruteForce:
    def test_triangle(self):
        K3 = np.ones((3, 3)) - np.eye(3)
        val, x = brute_force_maxcut(K3)
        assert val == pytest.approx(2.0)

    def test_k4(self):
        K4 = np.ones((4, 4)) - np.eye(4)
        val, _ = brute_force_maxcut(K4)
        assert val == pytest.approx(4.0)

    def test_five_cycle(self):
        A = np.zeros((5, 5))
        for i in range(5):
            A[i, (i + 1) % 5] = A[(i + 1) % 5, i] = 1.0
        val, x = brute_force_maxcut(A)
        assert val == pytest.approx(4.0)
        assert cut_value(A, x) == pytest.approx(4.0)

    def test_refuses_large(self):
        with pytest.raises(InvalidInputError):
            brute_force_maxcut(np.zeros((21, 21)))

    def test_matches_slow_enumeration(self):
        rng = np.random.default_rng(6)
        A0 = (rng.random((8, 8)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        val, _ = brute_force_maxcut(A0)
        best = -np.inf
        for mask in range(1 << 7):
            x = np.array([1.0] + [1.0 if (mask >> i) & 1 == 0 else -1.0 for i in range(7)])
            best = max(best, cut_value(A0, x))
        assert val == pytest.approx(best)


class TestExcessRiskCurvature:
    def test_zero_at_oracle(self):
        inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=0.8), seed=0)
        assert excess_risk(inst.expected, inst.oracle, inst.oracle) == 0.0

    def test_signed_l1_identity(self):
        rng = np.random.default_rng(1)
        params = SsbmParams(n=16, n_clusters=4, p=0.8, q=0.2, delta=0.6)
        inst = gen_ssbm(params, seed=2)
        M = inst.expected - params.alpha * np.ones((16, 16))
        for _ in range(30):
            Z = sample_feasible("signed", 16, rng)
            lhs = excess_risk(M, inst.oracle, Z)
            rhs = params.theta * np.abs(inst.oracle - Z).sum()
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_community_l1_lower_bound(self):
        rng = np.random.default_rng(2)
        inst = gen_sbm(14, 2, 0.75, 0.25, seed=3)
        for _ in range(30):
            Z = sample_feasible("community", 14, rng, lam=inst.params["lam"])
            lhs = excess_risk(inst.expected, inst.oracle, Z)
            rhs = 0.5 * (0.75 - 0.25) * np.abs(inst.oracle - Z).sum()
            assert lhs >= rhs - 1e-9

    def test_sync_identity_and_inequality(self):
        rng = np.random.default_rng(3)
        inst = gen_sync(SyncParams(n=12, sigma=0.6), seed=4)
        for _ in range(30):
            Z = sample_feasible("sync", 12, rng)
            lhs, rhs_l2, extra_l1 = curvature_check_sync(inst.expected, inst.oracle, Z)
            assert lhs == pytest.approx(rhs_l2 + extra_l1, rel=1e-9, abs=1e-9)
            assert lhs >= rhs_l2 - 1e-9

    def test_sync_unit_modulus_entries_drop_l1_term(self):
        inst = gen_sync(SyncParams(n=6, sigma=0.3), seed=5)
        rng = np.random.default_rng(6)
        phases = rng.uniform(0, 2 * np.pi, 6)
        Z = np.outer(np.exp(1j * phases), np.exp(-1j * phases))
        lhs, rhs_l2, extra_l1 = curvature_check_sync(inst.expected, inst.oracle, Z)
        assert extra_l1 == pytest.approx(0.0, abs=1e-9)
        assert lhs == pytest.approx(rhs_l2, rel=1e-9, abs=1e-9)

    def test_oracle_triplet_is_zero(self):
        inst = gen_sync(SyncParams(n=6, sigma=0.3), seed=7)
        lhs, rhs_l2, extra_l1 = curvature_check_sync(inst.expected, inst.oracle, inst.oracle)
        assert (lhs, rhs_l2, extra_l1) == (pytest.approx(0.0, abs=1e-10),) * 3


class TestBounds:
    def test_maxcut_bound_p_one(self):
        n = 13
        assert maxcut_rstar_bound(n, 1.0) == pytest.approx(8 * n * np.log(4) / 3)

    def test_maxcut_bound_direct_evaluation(self):
        n, p = 500, 0.5
        want = 2 * n * np.sqrt(2 * np.log(4) * 0.5 * 499 / 0.5) + 8 * n * np.log(4) / 3
        got = maxcut_rstar_bound(n, p)
        assert got == pytest.approx(want)
        assert 3.8e4 <= got <= 4.0e4

    def test_maxcut_bound_monotone_in_p(self):
        vals = [maxcut_rstar_bound(100, p) for p in np.linspace(0.1, 1.0, 10)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_gv_bound_value(self):
        got = gv_rstar_bound(1000, 0.5)
        want = (8 / 3) * K_GROTHENDIECK * (2000 * np.log(2) + np.log(2.0))
        assert got == pytest.approx(want)
        assert 6.5e3 <= got <= 6.7e3

    def test_gv_bound_monotone_in_delta(self):
        assert gv_rstar_bound(100, 0.01) > gv_rstar_bound(100, 0.5)

    def test_sync_bound_zero_noise(self):
        bound, _ = sync_excess_bound(100, 0.0, 0.01)
        assert bound == 0.0

    def test_sync_bound_value(self):
        bound, valid = sync_excess_bound(200, 0.5, 0.01)
        assert bound == pytest.approx((128 / 3) * 0.1 * 0.5**4 * (200 * 199 / 2))
        assert valid  # sigma^2 = 0.25 <= log(0.01 * 200^4) ~ 16.9

    def test_sync_bound_validity_flag(self):
        _, valid = sync_excess_bound(5, 3.0, 0.001)
        assert not valid

    def test_bound_report_dispatch(self):
        rep = bound_report("maxcut_rstar", n=20, p=0.8)
        assert rep.value == pytest.approx(maxcut_rstar_bound(20, 0.8))
        with pytest.raises(InvalidInputError):
            bound_report("nope", n=1)

    def test_bound_report_takes_the_inputs_of_its_formula(self):
        assert list(BOUNDS) == ["maxcut_rstar", "gv_rstar", "sync_excess"]
        rep = bound_report("sync_excess", n=200, p=0.3, sigma=0.5, eps=0.01)
        assert rep.inputs == {"n": 200, "sigma": 0.5, "eps": 0.01}
        assert (rep.value, rep.valid) == sync_excess_bound(200, 0.5, 0.01)
        assert bound_report("gv_rstar", n=10, delta_prob=0.1).valid is None
        with pytest.raises(InvalidInputError, match=r"needs \['sigma', 'eps'\]"):
            bound_report("sync_excess", n=200, sigma=None)

    def test_bound_report_rejects_a_non_integer_n(self):
        # the report echoes the n it evaluated: an n it would have to round
        # (2.5 once evaluated as 2) raises instead
        for formula, inputs in (("maxcut_rstar", {"p": 0.5}), ("gv_rstar", {"delta_prob": 0.1}),
                                ("sync_excess", {"sigma": 0.5, "eps": 0.1})):
            for n in (2.5, 2.0, True, "2"):
                with pytest.raises(InvalidInputError, match="n must be an integer"):
                    bound_report(formula, n=n, **inputs)
            rep = bound_report(formula, n=np.int64(2), **inputs)
            assert rep.inputs["n"] == 2 and rep.value == bound_report(formula, n=2, **inputs).value

    @pytest.mark.parametrize("formula, evaluate, args", [
        ("maxcut_rstar", maxcut_rstar_bound, (0, 0.5)),
        ("gv_rstar", gv_rstar_bound, (-5, 0.1)),
        ("sync_excess", sync_excess_bound, (-2, 0.5, 0.1)),
    ])
    def test_rejects_n_below_one(self, formula, evaluate, args):
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            evaluate(*args)
        inputs = dict(zip(BOUNDS[formula][1], args))
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            bound_report(formula, **inputs)
        # n = 1 is the smallest graph
        assert np.isfinite(bound_report(formula, **{**inputs, "n": 1}).value)


class TestFixedPoint:
    def test_zero_noise_picks_first_grid_value(self):
        inst = gen_ssbm(SsbmParams(n=6, n_clusters=2, p=0.8, q=0.2, delta=0.9), seed=0)

        def generator(rng):
            return inst.expected, inst.expected, inst.oracle

        est = estimate_fixed_point(generator, signed_atoms(), "l1",
                                   delta_prob=0.05, n_mc=5,
                                   r_grid=[0.5, 1.0, 2.0], seed=0)
        assert est.r_hat == 0.5
        assert all(abs(q) <= 1e-7 for _, q in est.quantile_curve)
        assert not est.unresolved and not est.unreliable

    def test_signed_quantile_curve_monotone(self):
        params = SsbmParams(n=6, n_clusters=2, p=0.9, q=0.1, delta=0.8)

        def generator(rng):
            seed = int(rng.integers(0, 2**32))
            inst = gen_ssbm(params, seed=seed)
            return inst.observed, inst.expected, inst.oracle

        est = estimate_fixed_point(generator, signed_atoms(), "l1",
                                   delta_prob=0.1, n_mc=30,
                                   r_grid=[0.5, 1.0, 2.0, 4.0, 8.0], seed=1)
        qs = [q for _, q in est.quantile_curve]
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))
        assert est.n_effective == 30

    def test_bad_grid_rejected(self):
        gen = lambda rng: (np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(InvalidInputError):
            estimate_fixed_point(gen, signed_atoms(), "l1", 0.5, 2, [2.0, 1.0])
        with pytest.raises(InvalidInputError):
            estimate_fixed_point(gen, signed_atoms(), "nope", 0.5, 2, [1.0])
