"""Estimator-style front end (fit / fit_predict / get_params / set_params).

Thin wrappers over ``PROBLEMS[name].solve`` (whose constraint set picks the
solver) and the rounding steps, so the four programs compose with
scikit-learn-style tooling without a scikit-learn dependency.  Fitted
attributes follow the trailing-underscore convention.
"""

from __future__ import annotations

import inspect

import numpy as np

from .linalg import InvalidInputError, check_square, is_hermitian, symmetrize_unchecked
from .metrics import cut_value
from .problems import PROBLEMS
from .rounding import expected_cut_closed_form, extract_communities, extract_phases, gw_round
from .solvers import BmConfig, PierraConfig

__all__ = [
    "SdpSignedClustering",
    "SdpCommunityClustering",
    "SdpAngularSynchronization",
    "SdpMaxCut",
]


class _SdpEstimatorBase:
    """Minimal scikit-learn-compatible parameter handling."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise InvalidInputError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _check_input(self, A, complex_ok=False):
        """``(A + A*) / 2`` after one finiteness scan of A (``check_square``);
        the solver scans the objective it is handed once more."""
        A = check_square(np.asarray(A), "input matrix")
        if np.iscomplexobj(A):
            if not complex_ok:
                raise InvalidInputError("this estimator expects a real symmetric matrix")
            if not is_hermitian(A, tol=1e-8):
                raise InvalidInputError("input must be Hermitian")
        return symmetrize_unchecked(A)

    def _bm_config(self):
        return BmConfig(max_iters=self.max_iters, grad_tol=self.grad_tol,
                        restarts=self.restarts, seed=self.seed)


class _SdpClustering(_SdpEstimatorBase):
    """A clustering program of the problem table, labels read off its solution."""

    def _fit(self, A, problem, params):
        config = PierraConfig(max_iters=self.max_iters, feas_tol=self.feas_tol,
                              obj_tol=self.obj_tol)
        self.denoised_, self.report_ = PROBLEMS[problem].solve(A, params, config)
        self.labels_ = extract_communities(self.denoised_, self.n_clusters, seed=self.seed)
        return self

    def fit_predict(self, A, y=None):
        return self.fit(A).labels_


class SdpSignedClustering(_SdpClustering):
    """Denoise a signed adjacency matrix by the clustering program
    max <A - alpha J, Z> over {Z psd, Z in [0,1], diag(Z) = 1}, then read
    communities off the top eigenvectors of the solution."""

    def __init__(self, n_clusters=2, alpha=0.0, max_iters=50_000, feas_tol=1e-7,
                 obj_tol=1e-9, seed=0):
        self.n_clusters = n_clusters
        self.alpha = alpha
        self.max_iters = max_iters
        self.feas_tol = feas_tol
        self.obj_tol = obj_tol
        self.seed = seed

    def fit(self, A, y=None):
        return self._fit(self._check_input(A), "signed", {"alpha": self.alpha})


class SdpCommunityClustering(_SdpClustering):
    """Community detection via max <A, Z> over
    {Z psd, Z >= 0, diag(Z) <= 1, sum(Z) <= lam}; ``lam=None`` uses the
    balanced-community value n^2 / n_clusters."""

    def __init__(self, n_clusters=2, lam=None, max_iters=50_000, feas_tol=1e-7,
                 obj_tol=1e-9, seed=0):
        self.n_clusters = n_clusters
        self.lam = lam
        self.max_iters = max_iters
        self.feas_tol = feas_tol
        self.obj_tol = obj_tol
        self.seed = seed

    def fit(self, A, y=None):
        A = self._check_input(A)
        lam = self.lam if self.lam is not None else A.shape[0] ** 2 / self.n_clusters
        return self._fit(A, "community", {"lam": lam})


class SdpAngularSynchronization(_SdpEstimatorBase):
    """Phase recovery: max <A, Z> over Hermitian {Z psd, diag(Z) = 1} via the
    low-rank factorization solver, then the scaled top eigenvector."""

    def __init__(self, max_iters=20_000, grad_tol=1e-7, restarts=3, seed=0):
        self.max_iters = max_iters
        self.grad_tol = grad_tol
        self.restarts = restarts
        self.seed = seed

    def fit(self, A, y=None):
        A = self._check_input(np.asarray(A, dtype=complex), complex_ok=True)
        self.gram_, self.report_ = PROBLEMS["sync"].solve(A, {}, bm_config=self._bm_config())
        self.estimate_ = extract_phases(self.gram_)
        self.phases_ = np.angle(self.estimate_)
        return self

    def fit_predict(self, A, y=None):
        return self.fit(A).phases_


class SdpMaxCut(_SdpEstimatorBase):
    """Goemans-Williamson pipeline: max <-A, Z> over {Z psd, diag(Z) = 1} via the
    low-rank solver (``report_.objective`` is ``<-A, gram_>``), then hyperplane rounding."""

    def __init__(self, gw_samples=200, max_iters=20_000, grad_tol=1e-7, restarts=3, seed=0):
        self.gw_samples = gw_samples
        self.max_iters = max_iters
        self.grad_tol = grad_tol
        self.restarts = restarts
        self.seed = seed

    def fit(self, A, y=None, full_adjacency=None):
        A = self._check_input(np.asarray(A, dtype=float))
        graph = A if full_adjacency is None else np.asarray(full_adjacency, dtype=float)
        self.gram_, self.report_ = PROBLEMS["maxcut"].solve(
            A, {"mask_prob": 1.0}, bm_config=self._bm_config())
        self.cut_vector_, self.mean_cut_ = gw_round(
            self.gram_, graph, self.gw_samples, seed=self.seed
        )
        self.cut_value_ = cut_value(graph, self.cut_vector_)
        self.expected_cut_ = expected_cut_closed_form(graph, self.gram_)
        return self

    def fit_predict(self, A, y=None, full_adjacency=None):
        return self.fit(A, full_adjacency=full_adjacency).cut_vector_
