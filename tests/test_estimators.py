import numpy as np
import pytest

from graphsdp.estimators import (
    SdpAngularSynchronization,
    SdpCommunityClustering,
    SdpMaxCut,
    SdpSignedClustering,
)
from graphsdp.linalg import InvalidInputError
from graphsdp.metrics import ari, brute_force_maxcut, sync_mse
from graphsdp.models import SsbmParams, SyncParams, gen_sbm, gen_ssbm, gen_sync
from graphsdp.solvers import BmConfig, bm_solve, community_atoms, pierra_signed, pierra_solve

# each estimator's get_params() and repr at its defaults: its model
# parameters and seed, no solver setting
_DEFAULTS = {
    SdpSignedClustering: ({"n_clusters": 2, "alpha": 0.0, "seed": 0},
                          "SdpSignedClustering(n_clusters=2, alpha=0.0, seed=0)"),
    SdpCommunityClustering: ({"n_clusters": 2, "lam": None, "seed": 0},
                             "SdpCommunityClustering(n_clusters=2, lam=None, seed=0)"),
    SdpAngularSynchronization: ({"seed": 0}, "SdpAngularSynchronization(seed=0)"),
    SdpMaxCut: ({"gw_samples": 200, "seed": 0}, "SdpMaxCut(gw_samples=200, seed=0)"),
}


class TestParamsProtocol:
    def test_get_set_round_trip(self):
        est = SdpSignedClustering(n_clusters=3, alpha=0.1)
        params = est.get_params()
        assert params["n_clusters"] == 3 and params["alpha"] == 0.1
        est.set_params(alpha=0.5)
        assert est.alpha == 0.5

    @pytest.mark.parametrize("name", ["bogus", "max_iters"])
    @pytest.mark.parametrize("cls", list(_DEFAULTS))
    def test_set_unknown_param_rejected(self, cls, name):
        # a solver setting is no estimator parameter
        with pytest.raises(InvalidInputError, match=name):
            cls().set_params(**{name: 1})

    @pytest.mark.parametrize("cls", list(_DEFAULTS))
    def test_repr_shows_params(self, cls):
        params, text = _DEFAULTS[cls]
        est = cls()
        assert list(est.get_params().items()) == list(params.items())
        assert repr(est) == text

    @pytest.mark.parametrize("cls, name, value", [
        (SdpSignedClustering, "n_clusters", 0),
        (SdpSignedClustering, "n_clusters", 7),
        (SdpSignedClustering, "n_clusters", 2.0),
        (SdpCommunityClustering, "n_clusters", 0),
        (SdpCommunityClustering, "n_clusters", 7),
        (SdpMaxCut, "gw_samples", 0),
        (SdpMaxCut, "gw_samples", 2.5),
        (SdpSignedClustering, "seed", -1),
        (SdpSignedClustering, "seed", 1.5),
        (SdpCommunityClustering, "seed", -1),
    ])
    def test_bad_count_rejected_before_solving(self, cls, name, value):
        # n = 6: a count outside [1, n] or not an integer, or a seed that is
        # not an integer >= 0, fails before the solve, so no report is left
        # behind
        A = np.roll(np.eye(6), 1, axis=1)
        est = cls(**{name: value})
        with pytest.raises(InvalidInputError, match=name):
            est.fit(A + A.T)
        assert not hasattr(est, "report_")


class TestSignedEstimator:
    def test_fit_predict_recovers_noiseless(self):
        inst = gen_ssbm(SsbmParams(n=20, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=0)
        est = SdpSignedClustering(n_clusters=2, alpha=inst.params["alpha"])
        labels = est.fit_predict(inst.observed)
        assert ari(labels, inst.ground_truth) == pytest.approx(1.0)
        assert est.report_.converged

    def test_rejects_complex(self):
        with pytest.raises(InvalidInputError):
            SdpSignedClustering().fit(np.eye(3, dtype=complex) * 1j)


class TestCommunityEstimator:
    def test_fit_predict(self):
        inst = gen_sbm(16, 2, 0.95, 0.05, seed=1)
        est = SdpCommunityClustering(n_clusters=2, lam=inst.params["lam"])
        labels = est.fit_predict(inst.observed)
        assert ari(labels, inst.ground_truth) == pytest.approx(1.0)

    def test_default_lambda_balanced(self):
        inst = gen_sbm(16, 2, 0.95, 0.05, seed=2)
        est = SdpCommunityClustering(n_clusters=2).fit(inst.observed)
        assert ari(est.labels_, inst.ground_truth) == pytest.approx(1.0)


class TestSyncEstimator:
    def test_noiseless(self):
        inst = gen_sync(SyncParams(n=30, sigma=0.0), seed=0)
        est = SdpAngularSynchronization(seed=0)
        phases = est.fit_predict(inst.observed)
        assert sync_mse(phases, inst.ground_truth) < 1e-6


class TestMaxCutEstimator:
    def test_fit_beats_878(self):
        rng = np.random.default_rng(3)
        n = 10
        A0 = (rng.random((n, n)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        est = SdpMaxCut(gw_samples=200, seed=0).fit(A0)
        opt, _ = brute_force_maxcut(A0)
        assert est.cut_value_ >= 0.878 * opt - 1.0
        assert set(np.unique(est.cut_vector_)) <= {-1, 1}

    @pytest.mark.parametrize("graph", [np.eye(5), np.full((6, 6), np.nan), np.ones((6, 5))])
    def test_bad_full_adjacency_rejected_before_solving(self, graph):
        A = np.roll(np.eye(6), 1, axis=1)
        est = SdpMaxCut()
        with pytest.raises(InvalidInputError, match="full_adjacency"):
            est.fit(A + A.T, full_adjacency=graph)
        assert not hasattr(est, "report_")


class TestSolvesThroughTheProblemTable:
    """Each estimator's solution is the direct solver call's, bit for bit."""

    def test_signed_and_community(self):
        signed = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=4)
        est = SdpSignedClustering(alpha=signed.params["alpha"]).fit(signed.observed)
        Z, report = pierra_signed(signed.observed, signed.params["alpha"])
        assert np.array_equal(est.denoised_, Z)
        assert est.report_.objective == report.objective
        com = gen_sbm(12, 2, 0.8, 0.2, seed=4)
        est = SdpCommunityClustering(lam=com.params["lam"]).fit(com.observed)
        Z, report = pierra_solve(com.observed, community_atoms(com.params["lam"]))
        assert np.array_equal(est.denoised_, Z)
        assert est.report_.objective == report.objective

    def test_single_precision_input_solves_in_double(self):
        # float32 data give the float64 data's solve, labels and objective
        signed = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=5)
        com = gen_sbm(12, 2, 0.8, 0.2, seed=5)
        for make, A in ((lambda: SdpSignedClustering(alpha=signed.params["alpha"]), signed.observed),
                        (lambda: SdpCommunityClustering(lam=com.params["lam"]), com.observed)):
            single, double = make().fit(A.astype(np.float32)), make().fit(A)
            assert single.denoised_.dtype == np.float64
            assert np.array_equal(single.denoised_, double.denoised_)
            assert np.array_equal(single.labels_, double.labels_)
            assert single.report_.objective == double.report_.objective

    def test_sync(self):
        inst = gen_sync(SyncParams(n=12, sigma=0.3), seed=4)
        est = SdpAngularSynchronization(seed=2).fit(inst.observed)
        _, Z, report = bm_solve(inst.observed, "max", BmConfig(seed=2))
        assert np.array_equal(est.gram_, Z)
        assert est.report_.objective == report.objective

    def test_maxcut_reports_the_maximization_of_minus_a(self):
        rng = np.random.default_rng(4)
        A = np.triu((rng.random((12, 12)) < 0.5).astype(float), 1)
        A = A + A.T
        est = SdpMaxCut(seed=2).fit(A)
        _, Z, report = bm_solve(A, "min", BmConfig(seed=2))
        assert np.array_equal(est.gram_, Z)
        assert (est.report_.iterations, est.report_.gap) == (report.iterations, report.gap)
        assert est.report_.objective == -report.objective == float(np.vdot(-A, est.gram_))
