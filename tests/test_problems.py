import numpy as np
import pytest

from graphsdp.linalg import InvalidInputError
from graphsdp.models import SsbmParams, apply_mask, gen_sbm, gen_ssbm
from graphsdp.problems import PROBLEMS
from graphsdp.solvers import BmConfig


class TestSolverChoice:
    def test_bm_rejected_outside_unit_diagonal_set(self):
        com = gen_sbm(8, 2, 0.9, 0.1, seed=0)
        signed = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=0.9, q=0.1, delta=1.0), seed=0)
        for name, inst in (("community", com), ("signed", signed)):
            with pytest.raises(InvalidInputError):
                PROBLEMS[name].solve(inst.observed, inst.params, "bm")

    def test_maxcut_objective_is_the_masked_rescale(self):
        A0 = np.ones((6, 6)) - np.eye(6)
        inst = apply_mask(A0, 0.5, seed=1)
        maxcut = PROBLEMS["maxcut"]
        M = maxcut.objective(inst.observed, {"mask_prob": 0.5})
        assert np.array_equal(M, inst.rescaled)
        Z, report = maxcut.solve(inst.observed, {"mask_prob": 0.5}, "bm",
                                 bm_config=BmConfig(seed=0))
        assert report.converged
        assert np.allclose(np.diag(Z), 1.0)
