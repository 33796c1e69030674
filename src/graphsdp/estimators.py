"""Estimator-style front end (fit / fit_predict / get_params / set_params).

Thin wrappers over ``PROBLEMS[name].solve`` (:func:`solvers.solve`, where
the constraint set picks the solver) and the rounding steps, so the four
programs compose with scikit-learn-style tooling without a scikit-learn
dependency.  Fitted attributes follow the trailing-underscore convention.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import (InvalidInputError, check_fields, check_square, frobenius_norm,
                     symmetrize_unchecked)
from .metrics import cut_value
from .problems import PROBLEMS
from .rounding import expected_cut_closed_form, extract_communities, extract_phases, gw_round
from .solvers import BmConfig

__all__ = [
    "SdpSignedClustering",
    "SdpCommunityClustering",
    "SdpAngularSynchronization",
    "SdpMaxCut",
]


class _SdpEstimatorBase:
    """Minimal scikit-learn-compatible parameter handling: the parameters are
    the fields of the estimator's dataclass, which also gives its repr."""

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for key, value in params.items():
            if key not in valid:
                raise InvalidInputError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        return self

    def _check_input(self, A, complex_ok=False):
        """``(A + A*) / 2`` after one finiteness scan of A (``check_square``);
        the solver scans the objective it is handed once more."""
        A = check_square(np.asarray(A), "input matrix")
        if np.iscomplexobj(A):
            if not complex_ok:
                raise InvalidInputError("this estimator expects a real symmetric matrix")
            if frobenius_norm(A - A.conj().T) > 1e-8 * (1.0 + frobenius_norm(A)):
                raise InvalidInputError("input must be Hermitian")
        return symmetrize_unchecked(A)


class _SdpClustering(_SdpEstimatorBase):
    """A clustering program of the problem table, labels read off its solution."""

    def _check_input(self, A, complex_ok=False):
        """The checked input, once ``n_clusters`` is known to be a count in
        [1, n] and ``seed`` an integer >= 0."""
        A = super()._check_input(A, complex_ok)
        check_fields(self, {"n_clusters": int, "seed": int}, positive=("n_clusters",),
                     nonnegative=("seed",))
        if self.n_clusters > A.shape[0]:
            raise InvalidInputError(
                f"n_clusters must be <= n = {A.shape[0]}, got {self.n_clusters!r}")
        return A

    def _fit(self, A, problem, params):
        self.denoised_, self.report_ = PROBLEMS[problem].solve(A, params)
        self.labels_ = extract_communities(self.denoised_, self.n_clusters, seed=self.seed)
        return self

    def fit_predict(self, A, y=None):
        return self.fit(A).labels_


@dataclass(eq=False)
class SdpSignedClustering(_SdpClustering):
    """Denoise a signed adjacency matrix by the clustering program
    max <A - alpha J, Z> over {Z psd, Z in [0,1], diag(Z) = 1}, then read
    communities off the top eigenvectors of the solution."""

    n_clusters: int = 2
    alpha: float = 0.0
    seed: int = 0

    def fit(self, A, y=None):
        return self._fit(self._check_input(A), "signed", {"alpha": self.alpha})


@dataclass(eq=False)
class SdpCommunityClustering(_SdpClustering):
    """Community detection via max <A, Z> over
    {Z psd, Z >= 0, diag(Z) <= 1, sum(Z) <= lam}; ``lam=None`` uses the
    balanced-community value n^2 / n_clusters."""

    n_clusters: int = 2
    lam: float | None = None
    seed: int = 0

    def fit(self, A, y=None):
        A = self._check_input(A)
        lam = self.lam if self.lam is not None else A.shape[0] ** 2 / self.n_clusters
        return self._fit(A, "community", {"lam": lam})


@dataclass(eq=False)
class SdpAngularSynchronization(_SdpEstimatorBase):
    """Phase recovery: max <A, Z> over Hermitian {Z psd, diag(Z) = 1} via the
    low-rank factorization solver, then the scaled top eigenvector."""

    seed: int = 0

    def fit(self, A, y=None):
        A = self._check_input(np.asarray(A, dtype=complex), complex_ok=True)
        self.gram_, self.report_ = PROBLEMS["sync"].solve(
            A, {}, bm_config=BmConfig(seed=self.seed))
        self.estimate_ = extract_phases(self.gram_)
        self.phases_ = np.angle(self.estimate_)
        return self

    def fit_predict(self, A, y=None):
        return self.fit(A).phases_


@dataclass(eq=False)
class SdpMaxCut(_SdpEstimatorBase):
    """Goemans-Williamson pipeline: max <-A, Z> over {Z psd, diag(Z) = 1} via the
    low-rank solver (``report_.objective`` is ``<-A, gram_>``), then hyperplane rounding."""

    gw_samples: int = 200
    seed: int = 0

    def fit(self, A, y=None, full_adjacency=None):
        A = self._check_input(np.asarray(A, dtype=float))
        check_fields(self, {"gw_samples": int}, positive=("gw_samples",))
        graph = A
        if full_adjacency is not None:
            graph = check_square(np.asarray(full_adjacency, dtype=float), "full_adjacency")
            if graph.shape != A.shape:
                raise InvalidInputError(
                    f"full_adjacency must have the input's shape {A.shape}, got {graph.shape}")
        self.gram_, self.report_ = PROBLEMS["maxcut"].solve(
            A, {"mask_prob": 1.0}, bm_config=BmConfig(seed=self.seed))
        self.cut_vector_, self.mean_cut_ = gw_round(
            self.gram_, graph, self.gw_samples, seed=self.seed
        )
        self.cut_value_ = cut_value(graph, self.cut_vector_)
        self.expected_cut_ = expected_cut_closed_form(graph, self.gram_)
        return self

    def fit_predict(self, A, y=None, full_adjacency=None):
        return self.fit(A, full_adjacency=full_adjacency).cut_vector_
