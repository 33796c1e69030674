import numpy as np

from graphsdp.models import SsbmParams, SyncParams, apply_mask, gen_sbm, gen_ssbm, gen_sync
from graphsdp.problems import PROBLEMS
from graphsdp.solvers import BmConfig


class TestSolverChoice:
    def test_constraint_set_picks_the_solver(self):
        com = gen_sbm(8, 2, 0.9, 0.1, seed=0)
        signed = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=1.0), seed=0)
        sync = gen_sync(SyncParams(n=8, sigma=0.1), seed=0)
        masked = apply_mask(np.ones((8, 8)) - np.eye(8), 0.5, seed=1)
        cases = {
            "community": (com.observed, com.params, "pierra"),
            "signed": (signed.observed, signed.params, "pierra"),
            "sync": (sync.observed, sync.params, "bm"),
            "maxcut": (masked.observed, {"mask_prob": 0.5}, "bm"),
        }
        for name, (observed, params, solver) in cases.items():
            _, report = PROBLEMS[name].solve(observed, params)
            assert report.solver == solver, name
            assert report.converged, name
            # only a splitting solve has a state to warm-start from
            assert (report.state is None) == (solver == "bm"), name

    def test_maxcut_objective_is_the_masked_rescale(self):
        A0 = np.ones((6, 6)) - np.eye(6)
        inst = apply_mask(A0, 0.5, seed=1)
        maxcut = PROBLEMS["maxcut"]
        M = maxcut.objective(inst.observed, {"mask_prob": 0.5})
        assert np.array_equal(M, inst.rescaled)
        Z, report = maxcut.solve(inst.observed, {"mask_prob": 0.5},
                                 bm_config=BmConfig(seed=0))
        assert report.converged
        assert np.allclose(np.diag(Z), 1.0)
