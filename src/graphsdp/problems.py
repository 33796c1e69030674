"""The four SDP problems as one table.

Every problem here maximizes ``<M, Z>`` over a problem-specific constraint
set and then rounds the solution.  A :class:`Problem` entry holds what
differs between them: how to build the objective ``M`` from an observation
and its sidecar params, which constraint atoms to solve over, and how to
score a rounded answer against the ground truth.  The atoms also pick the
solver.  The command line, the estimators and the experiment cells read this
table instead of wiring each problem by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import ari, cut_value, phase_aligned_l2, signed_error_rate, sync_mse
from .models import membership_matrix, rescale_masked
from .solvers import (
    bm_solve,
    community_atoms,
    is_unit_diagonal,
    pierra_solve,
    signed_atoms,
    unit_diag_atoms,
)

__all__ = ["Problem", "PROBLEMS", "signed_ground_truth_matrix"]


def signed_ground_truth_matrix(labels: np.ndarray) -> np.ndarray:
    """Complete +-1 ground truth: +1 on diagonal blocks, -1 elsewhere."""
    return 2.0 * membership_matrix(labels) - 1.0


@dataclass(frozen=True)
class Problem:
    """One SDP: its objective, its constraint set and its score."""

    objective: Callable    # (observed, params) -> M
    atoms: Callable        # params -> list of ConstraintAtom
    score: Callable        # (answer, ground truth, graph) -> {metric: value}
    answer_key: str        # field of a round output holding the answer

    def solve(self, observed, params, pierra_config=None, bm_config=None):
        """Maximize the objective over the atoms; returns ``(Z_hat, SolveReport)``.

        The constraint set picks the solver: the certified low-rank one
        (``bm_config``) when the atoms are exactly the unit-diagonal set,
        the two-block ADMM (``pierra_config``) otherwise.
        """
        M = self.objective(observed, params)
        atoms = self.atoms(params)
        if is_unit_diagonal(atoms):
            return bm_solve(M, "max", bm_config)[1:]    # (Z, report) without the factor
        return pierra_solve(M, atoms, pierra_config)


def _score_communities(labels, truth, graph=None):
    return {"ari": ari(np.asarray(labels, dtype=int), np.asarray(truth, dtype=int))}


def _score_signed(labels, truth, graph=None):
    labels = np.asarray(labels, dtype=int)
    truth = np.asarray(truth, dtype=int)
    return {"ari": ari(labels, truth),
            "gamma": signed_error_rate(labels, signed_ground_truth_matrix(truth))}


def _score_phases(phases, truth, graph=None):
    phases = np.asarray(phases, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return {"mse": sync_mse(phases, truth),
            "aligned_l2": phase_aligned_l2(np.exp(1j * phases), np.exp(1j * truth))}


def _score_cut(x, truth, graph):
    """Cut value on ``graph`` (the full one when known), ARI against a planted cut."""
    x = np.asarray(x, dtype=float)
    scores = {"cut_full": cut_value(graph, x)}
    if truth is not None:
        scores["ari"] = ari((x > 0).astype(int), np.asarray(truth, dtype=int))
    return scores


PROBLEMS = {
    "community": Problem(
        objective=lambda A, params: A,
        atoms=lambda params: community_atoms(params["lam"]),
        score=_score_communities,
        answer_key="labels",
    ),
    "signed": Problem(
        objective=lambda A, params: A - params["alpha"] * np.ones_like(A),
        atoms=lambda params: signed_atoms(),
        score=_score_signed,
        answer_key="labels",
    ),
    "sync": Problem(
        objective=lambda A, params: A,
        atoms=lambda params: unit_diag_atoms(),
        score=_score_phases,
        answer_key="phases",
    ),
    "maxcut": Problem(
        objective=lambda A, params: rescale_masked(A, params["mask_prob"]),
        atoms=lambda params: unit_diag_atoms(),
        score=_score_cut,
        answer_key="cut_vector",
    ),
}
