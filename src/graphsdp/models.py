"""Seeded generators for the synthetic observation models.

Each generator returns either a :class:`ProblemInstance` (observed matrix,
exact expected matrix, oracle solution, ground truth, parameters, seed) or a
:class:`MaxCutInstance` for the masked max-cut pipeline.  Instances are
immutable and bit-reproducible: the same seed always yields the same arrays,
and independent substreams drive edge indicators, sampling masks and noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _rng
from .linalg import InvalidInputError, symmetrize

__all__ = [
    "SsbmParams",
    "SyncParams",
    "ProblemInstance",
    "MaxCutInstance",
    "membership_matrix",
    "oracle_sync",
    "default_sizes",
    "gen_sbm",
    "gen_ssbm",
    "gen_sync",
    "gen_bipartite_perturbed",
    "apply_mask",
    "rescale_masked",
    "sample_feasible",
]


def membership_matrix(labels: np.ndarray) -> np.ndarray:
    """0/1 matrix with a one wherever two nodes share a community."""
    labels = np.asarray(labels)
    return (labels[:, None] == labels[None, :]).astype(float)


def oracle_sync(phases: np.ndarray) -> np.ndarray:
    """Rank-one phase Gram matrix x x* with unit diagonal."""
    x = np.exp(1j * np.asarray(phases, dtype=float))
    Z = np.outer(x, x.conj())
    np.fill_diagonal(Z, 1.0)
    return Z


@dataclass(frozen=True)
class SsbmParams:
    """Signed stochastic block model parameters.

    Within-cluster edges carry sign +1 with probability ``p`` (across:
    ``q``), and every off-diagonal pair is observed independently with
    probability ``delta``.  The communities have the sizes
    :func:`default_sizes` gives.
    """

    n: int
    n_clusters: int
    p: float
    q: float
    delta: float

    def __post_init__(self):
        if not (0.0 <= self.q < 0.5 < self.p <= 1.0):
            raise InvalidInputError("need 0 <= q < 1/2 < p <= 1")
        if not (0.0 < self.delta <= 1.0):
            raise InvalidInputError("need 0 < delta <= 1")

    @property
    def alpha(self) -> float:
        return self.delta * (self.p + self.q - 1.0)

    @property
    def theta(self) -> float:
        return self.delta * (self.p - self.q)


@dataclass(frozen=True)
class SyncParams:
    """Angular synchronization observation model.

    ``noise_model`` is ``"gaussian"`` (offset plus sigma * N(0,1)) or
    ``"outlier"`` (offset exact with probability 1-gamma, uniform on the
    circle otherwise).  Pairs are observed independently with probability
    ``sample_prob``; unobserved entries enter the data matrix as zeros.
    The true phases are drawn from the instance's seed.
    """

    n: int
    sigma: float = 0.0
    noise_model: str = "gaussian"
    gamma: float = 0.0
    sample_prob: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be >= 1")
        if self.sigma < 0:
            raise InvalidInputError("sigma must be >= 0")
        if self.noise_model not in ("gaussian", "outlier"):
            raise InvalidInputError("noise_model must be 'gaussian' or 'outlier'")
        if not (0.0 <= self.gamma <= 1.0):
            raise InvalidInputError("gamma must be in [0, 1]")
        if not (0.0 < self.sample_prob <= 1.0):
            raise InvalidInputError("sample_prob must be in (0, 1]")

    @property
    def signal_factor(self) -> float:
        """Modulus of the expected off-diagonal entry, before sampling."""
        if self.noise_model == "gaussian":
            return float(np.exp(-self.sigma**2 / 2.0))
        return 1.0 - self.gamma


@dataclass(frozen=True)
class ProblemInstance:
    """One generated observation with its exact population quantities, data
    only: ``problems.PROBLEMS[problem].atoms(params)`` is its constraint set."""

    problem: str                 # "community" | "signed" | "sync"
    observed: np.ndarray
    expected: np.ndarray
    oracle: np.ndarray
    ground_truth: np.ndarray
    params: dict
    seed: int


@dataclass(frozen=True)
class MaxCutInstance:
    """Masked max-cut observation: full graph, mask, and rescaled data."""

    full_adjacency: np.ndarray
    observed: np.ndarray
    mask_prob: float
    rescaled: np.ndarray         # B = -(1/p) * observed, so E[B] = -A0
    ground_truth_partition: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        A0 = np.asarray(self.full_adjacency, dtype=float)
        if np.any(np.diagonal(A0) != 0):
            raise InvalidInputError("full adjacency must have zero diagonal")


def default_sizes(n: int, K: int) -> tuple:
    """Near-equal community sizes; the first n % K communities get one extra."""
    if K < 1 or K > n:
        raise InvalidInputError("need 1 <= K <= n")
    base = n // K
    rem = n % K
    return tuple(base + 1 if k < rem else base for k in range(K))


def _block_labels(sizes: Sequence[int]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def _bernoulli_symmetric(prob: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Symmetric 0/1 matrix with independent Bernoulli(prob) upper triangle."""
    n = prob.shape[0]
    draw = (rng.random((n, n)) < prob).astype(float)
    upper = np.triu(draw, 1)
    return upper + upper.T


def gen_sbm(n, K, p, q, seed=0) -> ProblemInstance:
    """Stochastic block model on communities of :func:`default_sizes`:
    within-community edge probability p, across q, self-loops always
    present.  The oracle is the membership matrix."""
    if not (0.0 <= q < p <= 1.0):
        raise InvalidInputError("need 0 <= q < p <= 1")
    sizes = default_sizes(n, K)
    labels = _block_labels(sizes)
    Zstar = membership_matrix(labels)
    expected = np.where(Zstar > 0, p, q)
    np.fill_diagonal(expected, 1.0)
    A = _bernoulli_symmetric(expected, _rng.stream(seed, _rng.STREAM_EDGES))
    np.fill_diagonal(A, 1.0)
    lam = float(np.sum(np.asarray(sizes, dtype=float) ** 2))
    return ProblemInstance(
        problem="community",
        observed=A,
        expected=expected,
        oracle=Zstar,
        ground_truth=labels,
        params={"n": n, "K": K, "p": p, "q": q, "sizes": list(sizes), "lam": lam},
        seed=seed,
    )


def gen_ssbm(params: SsbmParams, seed=0) -> ProblemInstance:
    """Signed stochastic block model; entries in {-1, 0, +1}, unit diagonal."""
    sizes = default_sizes(params.n, params.n_clusters)
    labels = _block_labels(sizes)
    Zstar = membership_matrix(labels)
    within = Zstar > 0
    sign_prob = np.where(within, params.p, params.q)
    B = _bernoulli_symmetric(sign_prob, _rng.stream(seed, _rng.STREAM_EDGES))
    S = _bernoulli_symmetric(np.full_like(sign_prob, params.delta), _rng.stream(seed, _rng.STREAM_MASK))
    A = S * (2.0 * B - 1.0)
    np.fill_diagonal(A, 1.0)
    expected = np.where(
        within,
        params.delta * (2.0 * params.p - 1.0),
        params.delta * (2.0 * params.q - 1.0),
    )
    np.fill_diagonal(expected, 1.0)
    return ProblemInstance(
        problem="signed",
        observed=A,
        expected=expected,
        oracle=Zstar,
        ground_truth=labels,
        params={
            "n": params.n,
            "K": params.n_clusters,
            "p": params.p,
            "q": params.q,
            "delta": params.delta,
            "sizes": list(sizes),
            "alpha": params.alpha,
            "theta": params.theta,
        },
        seed=seed,
    )


def gen_sync(params: SyncParams, seed=0) -> ProblemInstance:
    """Angular synchronization observations A_ij = exp(i(theta_i - theta_j + noise)).

    The expected matrix is ``c * sample_prob`` times the phase Gram matrix
    off the diagonal (c the noise attenuation factor) and 1 on it.
    """
    n = params.n
    phases = _rng.stream(seed, _rng.STREAM_PHASES).uniform(0.0, 2.0 * np.pi, n)
    x = np.exp(1j * phases)
    offsets = phases[:, None] - phases[None, :]
    noise_rng = _rng.stream(seed, _rng.STREAM_NOISE)
    if params.noise_model == "gaussian":
        g = noise_rng.standard_normal((n, n))
        noisy = offsets + params.sigma * g
    else:
        u = noise_rng.uniform(0.0, 2.0 * np.pi, (n, n))
        is_outlier = noise_rng.random((n, n)) < params.gamma
        noisy = np.where(is_outlier, u, offsets)
    upper = np.zeros((n, n), complex)
    strict = np.triu_indices(n, 1)
    upper[strict] = np.exp(1j * noisy[strict])
    if params.sample_prob < 1.0:
        keep = _rng.stream(seed, _rng.STREAM_MASK).random((n, n)) < params.sample_prob
        upper = upper * np.triu(keep, 1)
    A = np.conjugate(upper.T, out=np.empty_like(upper))     # one contiguous pass
    A += upper
    np.fill_diagonal(A, 1.0)
    expected = params.signal_factor * params.sample_prob * np.outer(x, x.conj())
    np.fill_diagonal(expected, 1.0)
    return ProblemInstance(
        problem="sync",
        observed=A,
        expected=expected,
        oracle=oracle_sync(phases),
        ground_truth=phases,
        params={
            "n": n,
            "sigma": params.sigma,
            "noise_model": params.noise_model,
            "gamma": params.gamma,
            "sample_prob": params.sample_prob,
        },
        seed=seed,
    )


def gen_bipartite_perturbed(n, eta, delta, seed=0) -> MaxCutInstance:
    """Complete bipartite graph on two n/2 halves, perturbed by Bernoulli(eta)
    edges within each half, then masked by an Erdos-Renyi(delta) observation."""
    if n < 2 or n % 2 != 0:
        raise InvalidInputError(f"n must be even and >= 2, got {n}")
    if not (0.0 <= eta <= 1.0) or not (0.0 < delta <= 1.0):
        raise InvalidInputError("need eta in [0,1] and delta in (0,1]")
    half = n // 2
    partition = np.repeat([0, 1], half)
    across = (partition[:, None] != partition[None, :]).astype(float)
    within_noise = _bernoulli_symmetric(
        np.full((n, n), eta), _rng.stream(seed, _rng.STREAM_EDGES)
    ) * (1.0 - across)
    A0 = across + within_noise
    np.fill_diagonal(A0, 0.0)
    return _masked_instance(A0, delta, seed, ground_truth=partition)


def apply_mask(A0: np.ndarray, p: float, seed=0) -> MaxCutInstance:
    """Keep each edge independently with probability p; rescale B = -(1/p) A."""
    if not (0.0 < p <= 1.0):
        raise InvalidInputError("mask probability must be in (0, 1]")
    A0 = symmetrize(np.asarray(A0, dtype=float))
    if np.any(np.diagonal(A0) != 0):
        raise InvalidInputError("adjacency must have zero diagonal")
    return _masked_instance(A0, p, seed, ground_truth=None)


def rescale_masked(A: np.ndarray, p: float) -> np.ndarray:
    """B = -(1/p) * A: under an Erdos-Renyi(p) mask of A0, E[B] = -A0."""
    return -A / p


def _masked_instance(A0, p, seed, ground_truth) -> MaxCutInstance:
    n = A0.shape[0]
    keep = _bernoulli_symmetric(np.full((n, n), p), _rng.stream(seed, _rng.STREAM_MASK))
    A = A0 * keep
    return MaxCutInstance(
        full_adjacency=A0,
        observed=A,
        mask_prob=p,
        rescaled=rescale_masked(A, p),
        ground_truth_partition=ground_truth,
        seed=seed,
    )


def sample_feasible(problem: str, n: int, rng: np.random.Generator, lam=None) -> np.ndarray:
    """Random member of the problem's constraint set (for oracle/curvature checks).

    Uses Gram matrices of random unit rows: nonnegative rows give entries in
    [0,1] with unit diagonal (signed / community after scaling), complex rows
    give Hermitian psd matrices with unit diagonal (sync).
    """
    k = max(2, n // 2)
    if problem == "sync":
        rows = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        Z = rows @ rows.conj().T
        np.fill_diagonal(Z, 1.0)
        return Z
    rows = np.abs(rng.standard_normal((n, k)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    Z = rows @ rows.T
    np.fill_diagonal(Z, 1.0)
    Z = symmetrize(Z)
    if problem == "signed":
        return Z
    if problem == "community":
        Z = Z * rng.uniform(0.2, 1.0)
        if lam is not None and Z.sum() > lam:
            Z = Z * (lam / Z.sum())
        return Z
    if problem == "maxcut":
        signs = rng.choice([-1.0, 1.0], size=n)
        mixed = Z * np.outer(signs, signs)
        np.fill_diagonal(mixed, 1.0)
        return mixed
    raise InvalidInputError(f"unknown problem '{problem}'")
