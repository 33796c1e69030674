import dataclasses

import numpy as np
import pytest

from graphsdp import metrics, solvers
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
    apply_mask,
    gen_sbm,
    gen_ssbm,
    gen_sync,
    membership_matrix,
    sample_feasible,
)
from graphsdp.solvers import (
    BmConfig,
    PierraConfig,
    affine_halfspace,
    bm_solve,
    l1_ball_around,
    l2_ball_around,
    pierra_solve,
    signed_atoms,
    unit_diag_atoms,
)


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


def masked_maxcut(n, seed):
    """A masked MAX-CUT replicate (A, EA, Z*) and its noise W = A - EA."""
    rng = np.random.default_rng(seed)
    A0 = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    A0 = A0 + A0.T
    _, Z_star, _ = bm_solve(-A0, "max", BmConfig(seed=0))
    mask = np.triu(rng.random((n, n)) < 0.8, 1)
    A = -(A0 * (mask + mask.T)) / 0.8
    return (A, -A0, Z_star), A + A0


def spy_solves(monkeypatch):
    """Record the report of every localized solve the estimator runs: one
    per splitting solve (``report.solver == "pierra"``) and one per slice
    of a batched interior-point solve (``"ipm"``), patched where
    ``solvers.solve_localized`` looks them up."""
    reports = []
    ipm_slices = solvers._ipm_slices

    def split(*args, **kwargs):
        Z, report = pierra_solve(*args, **kwargs)
        reports.append(report)
        return Z, report

    def batch(*args, **kwargs):
        M, results = ipm_slices(*args, **kwargs)
        reports.extend(report for _, report in results)
        return M, results

    monkeypatch.setattr(solvers, "pierra_solve", split)
    monkeypatch.setattr(solvers, "_ipm_slices", batch)
    return reports


def work(reports, solver):
    """The iterations of the recorded solves by ``solver``."""
    return sum(r.iterations for r in reports if r.solver == solver)


class TestCertifiedCurve:
    """Each solved radius carries its certified upper bound ``objective + gap``."""

    @pytest.mark.parametrize("localization", metrics.LOCALIZATIONS)
    @pytest.mark.parametrize("problem", ["maxcut", "signed"])
    def test_curve_bounds_each_supremum_from_above(self, monkeypatch, problem, localization):
        if problem == "maxcut":
            replicate, W = masked_maxcut(8, 41)
            atoms = unit_diag_atoms()
        else:
            inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=0.8), seed=41)
            replicate, W = (inst.observed, inst.expected, inst.oracle), inst.observed - inst.expected
            atoms = signed_atoms()
        _, EA, Z_star = replicate
        radii = {"excess_risk": [2.0, 5.0, 10.0], "l1": [2.0, 5.0, 10.0], "l2": [0.5, 2.0, 4.0]}[localization]
        reports = spy_solves(monkeypatch)
        # delta 0.5 of one replicate: the curve is that replicate's suprema
        est = estimate_fixed_point(lambda _: replicate, atoms, localization, 0.5, 1, radii)
        offset = np.vdot(W, Z_star)
        interior = problem == "maxcut" and localization == "excess_risk"
        assert reports and {r.solver for r in reports} == {"ipm" if interior else "pierra"}
        for report in reports:
            # the gap is relative to the supremum read off Z*, not to <W, Z>
            assert report.converged
            assert 0.0 <= report.gap <= 1e-6 * (1.0 + abs(report.objective - offset))
        tight = PierraConfig(feas_tol=1e-10, obj_tol=1e-14)
        optima = [pierra_solve(W, atoms + [metrics._localization_atom(localization, EA, Z_star, r)],
                               tight)[1].objective - offset for r in radii]
        for (_, q), h in zip(est.quantile_curve, np.maximum.accumulate(optima)):
            assert h - 1e-9 * (1.0 + abs(h)) <= q <= h + 1e-6 * (1.0 + abs(q)) + 1e-9


class TestFixedPointSkip:
    """Radii at or past the unlocalized maximizer's locality distance take
    the certified BM value instead of a splitting solve."""

    @pytest.mark.parametrize("localization, n, seed", [
        ("excess_risk", 8, 21), ("l1", 10, 22), ("l2", 12, 23)])
    def test_curve_equals_cold_solves_across_the_slack_radius(self, monkeypatch, localization,
                                                              n, seed):
        replicate, W = masked_maxcut(n, seed)
        _, EA, Z_star = replicate
        _, Z_u, _ = bm_solve(W, "max")
        D = Z_star - Z_u
        e = {"excess_risk": np.vdot(EA, D), "l1": np.abs(D).sum(), "l2": np.vdot(D, D)}[localization]
        radii = [f * e for f in (0.25, 0.5, 0.9, 1.1, 2.0)]    # two radii past e
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: replicate, unit_diag_atoms(), localization,
                                   0.5, 1, radii)
        assert len(reports) == 3
        offset = np.vdot(W, Z_star)
        cold = []
        for r in radii:
            locality = {"excess_risk": lambda: affine_halfspace(-EA, r - np.vdot(EA, Z_star)),
                        "l1": lambda: l1_ball_around(Z_star, r),
                        "l2": lambda: l2_ball_around(Z_star, np.sqrt(r))}[localization]()
            _, report = pierra_solve(W, unit_diag_atoms() + [locality])
            assert report.converged
            cold.append(report.objective - offset)
        for (_, q), c in zip(est.quantile_curve, np.maximum.accumulate(cold)):
            assert abs(q - c) <= 1e-5 * (1 + abs(c))

    def test_counts_the_solves_it_runs(self, monkeypatch):
        # the replicate whose unlocalized maximizer is nearer Z* skips the
        # last two radii, the other solves all three
        replicates = [masked_maxcut(10, 30 + k) for k in range(2)]
        lo, hi = sorted(np.vdot(EA, Z_star - bm_solve(W, "max")[1])
                        for (_, EA, Z_star), W in replicates)
        assert lo < hi
        radii = [0.5 * lo, (2 * lo + hi) / 3, (lo + 2 * hi) / 3]
        stream = iter(replicate for replicate, _ in replicates)
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: next(stream), unit_diag_atoms(), "excess_risk",
                                   0.5, 2, radii)
        assert len(reports) == 3 + 1
        assert est.ipm_iterations == work(reports, "ipm") > 0 and est.sweeps == 0
        assert est.bm_solves == 2
        out = est.to_dict()
        assert (out["sweeps"], out["ipm_iterations"], out["bm_solves"]) == (0, est.ipm_iterations, 2)
        assert est.ipm_fallbacks == out["ipm_fallbacks"] == 0
        assert out["r_star"] == est.r_star and out["r_star_exact"] == est.r_star_exact

    def test_other_sets_solve_every_radius(self, monkeypatch):
        params = SsbmParams(n=6, n_clusters=2, p=0.9, q=0.1, delta=0.8)

        def generator(rng):
            inst = gen_ssbm(params, seed=int(rng.integers(0, 2**32)))
            return inst.observed, inst.expected, inst.oracle

        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(generator, signed_atoms(), "l1", 0.2, 3, [1.0, 100.0])
        assert len(reports) == 3 * 2 and est.sweeps == work(reports, "pierra")
        assert est.bm_solves == 0 and est.ipm_iterations == 0
        assert est.r_star is None and not est.r_star_exact
        assert est.to_dict()["r_star"] is None

    def test_uncertified_unlocalized_solve_skips_nothing(self, monkeypatch):
        replicate, _ = masked_maxcut(10, 22)
        radii = [1.0, 5.0, 40.0, 200.0, 1000.0]

        def estimate():
            return estimate_fixed_point(lambda _: replicate, unit_diag_atoms(), "excess_risk",
                                        0.5, 1, radii)

        certified = estimate()
        assert certified.r_star_exact

        def uncertified(M, sense, config=None):
            Y, Z, report = bm_solve(M, sense, config)
            return Y, Z, dataclasses.replace(report, termination="max_iters")

        monkeypatch.setattr(solvers, "bm_solve", uncertified)
        reports = spy_solves(monkeypatch)
        est = estimate()
        assert len(reports) == len(radii)
        assert est.ipm_iterations == work(reports, "ipm") > certified.ipm_iterations
        assert est.bm_solves == 1
        # the gap still bounds the supremum, but no radius is known to be slack
        assert est.r_star == certified.r_star and not est.r_star_exact
        for (_, q), (_, c) in zip(est.quantile_curve, certified.quantile_curve):
            assert abs(q - c) <= 1e-5 * (1 + abs(c))

    def test_excess_risk_on_the_unit_diagonal_set_runs_no_sweep(self, monkeypatch):
        # the interior-point route replaces the warm-started splitting chain
        replicates = [masked_maxcut(10, 50 + k)[0] for k in range(3)]
        stream = iter(replicates)
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: next(stream), unit_diag_atoms(), "excess_risk",
                                   0.5, 3, [1.0, 4.0, 16.0])
        assert reports and all(r.solver == "ipm" and r.converged for r in reports)
        assert est.sweeps == 0 and est.ipm_iterations == work(reports, "ipm") > 0
        assert est.n_flagged == 0

    @pytest.mark.parametrize("problem, localization", [
        ("maxcut", "l1"), ("maxcut", "l2"),
        ("signed", "excess_risk"), ("signed", "l1"), ("signed", "l2")])
    def test_balls_and_signed_sets_run_no_interior_point_solve(self, monkeypatch, problem,
                                                                localization):
        if problem == "maxcut":
            replicate, _ = masked_maxcut(8, 41)
            atoms = unit_diag_atoms()
        else:
            inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=0.8), seed=41)
            replicate, atoms = (inst.observed, inst.expected, inst.oracle), signed_atoms()
        radii = {"l2": [0.5, 2.0]}.get(localization, [2.0, 5.0])
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: replicate, atoms, localization, 0.5, 1, radii)
        assert reports and all(r.solver == "pierra" for r in reports)
        assert est.ipm_iterations == 0 and est.sweeps == work(reports, "pierra") > 0

    @staticmethod
    def run_one_solved_radius(monkeypatch):
        """Two replicates and two radii such that the replicate whose
        unlocalized maximizer is nearer Z* skips both radii and the other
        solves both: (estimate, reports of the solves)."""
        replicates = [masked_maxcut(10, 30 + k) for k in range(2)]
        lo, hi = sorted(np.vdot(EA, Z_star - bm_solve(W, "max")[1])
                        for (_, EA, Z_star), W in replicates)
        stream = iter(replicate for replicate, _ in replicates)
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: next(stream), unit_diag_atoms(), "excess_risk",
                                   0.5, 2, [(2 * lo + hi) / 3, (lo + 2 * hi) / 3])
        return est, reports

    def test_spent_interior_point_budget_solves_the_radius_by_splitting(self, monkeypatch):
        # the replicate's two radii run as one batch, then each falls back
        monkeypatch.setattr(solvers, "_IPM_MAX_ITERS", 2)
        est, reports = self.run_one_solved_radius(monkeypatch)
        assert [(r.solver, r.termination) for r in reports] == ([("ipm", "max_iters")] * 2
                                                                + [("pierra", "converged")] * 2)
        assert est.n_flagged == 0 and not est.unreliable
        assert est.ipm_iterations == 4 and est.sweeps == work(reports, "pierra") > 0
        assert est.ipm_fallbacks == est.to_dict()["ipm_fallbacks"] == 2

    def test_radius_neither_solver_certifies_flags_the_replicate(self, monkeypatch):
        monkeypatch.setattr(solvers, "_IPM_MAX_ITERS", 2)
        monkeypatch.setattr(solvers, "_FIXED_POINT_CONFIG", PierraConfig(max_iters=5, feas_tol=1e-6))
        est, reports = self.run_one_solved_radius(monkeypatch)
        # the batch spent both radii's budgets before the first fell back
        assert [(r.solver, r.termination) for r in reports] == [("ipm", "max_iters")] * 2 + [
            ("pierra", "max_iters")]
        assert est.n_flagged == 1 and est.n_effective == 1 and est.unreliable
        assert est.ipm_iterations == 4 and est.sweeps == 5 and est.ipm_fallbacks == 1

    def test_small_radius_the_interior_point_solve_leaves_uncertified(self, monkeypatch):
        # at r = 1e-3 on n = 60 the interior-point solve ends short of its
        # target; splitting certifies the radius, within the first bracket
        replicate, W = masked_maxcut(60, 3)
        reports = spy_solves(monkeypatch)
        est = estimate_fixed_point(lambda _: replicate, unit_diag_atoms(), "excess_risk",
                                   0.5, 1, [1e-3])
        ipm, split = reports
        assert (ipm.solver, ipm.converged, split.solver, split.converged) == ("ipm", False,
                                                                              "pierra", True)
        assert est.n_flagged == 0
        assert (est.ipm_iterations, est.sweeps) == (ipm.iterations, split.iterations)
        assert est.ipm_fallbacks == 1
        assert ipm.objective <= split.objective + split.gap
        assert split.objective <= ipm.objective + ipm.gap
        offset = float(np.vdot(W, replicate[2]))
        assert est.quantile_curve[0][1] == split.objective + split.gap - offset

    def test_exact_fixed_point_picks_the_first_grid_radius_past_it(self):
        # criterion 6's instance with 20 replicates and a grid around r*
        n, p = 20, 0.8
        rng = np.random.default_rng(123)
        A0 = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        A0 = A0 + A0.T
        _, Z_star, _ = bm_solve(-A0, "max", BmConfig(seed=0))

        def generator(rng):
            inst = apply_mask(A0, p, seed=int(rng.integers(0, 2**32)))
            return inst.rescaled, -A0, Z_star

        grid = [10.0, 20.0, 40.0, 60.0, 90.0, 110.0, 120.0, 125.0, 130.0, 180.0, 240.0]
        est = estimate_fixed_point(generator, unit_diag_atoms(), "excess_risk",
                                   delta_prob=4.0 ** (-n), n_mc=20, r_grid=grid, seed=7)
        assert est.r_star_exact and not est.unresolved
        assert est.r_star <= maxcut_rstar_bound(n, p)
        first = min(r for r in grid if r >= est.r_star)
        assert est.r_hat == first or abs(est.r_hat - est.r_star) <= 1e-5 * (1 + est.r_star)
        # every radius past r* is past each replicate's slack radius: the
        # curve is flat at r* / 2 there
        for r, q in est.quantile_curve:
            if r >= est.r_star:
                assert abs(q - est.r_star / 2) <= 1e-5 * (1 + est.r_star)
