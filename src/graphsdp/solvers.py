"""SDP solvers: product-space projection splitting and low-rank factorization.

Two solver families cover every program in the library:

* :func:`pierra_solve` maximizes ``<M, Z>`` over an intersection of convex
  constraint atoms.  The constraint set is lifted to a product space (one
  copy of Z per atom); each sweep applies the per-atom proximal update
  ``P_Sj(B_j + eps/(2J) * M)`` followed by diagonal-space averaging.  The
  auxiliary components are driven by the Douglas-Rachford recursion, which
  converges to the exact constrained maximizer at a fixed step weight
  (plain re-averaging stalls at an O(eps) feasibility floor).
* :func:`bm_solve` optimizes ``<M, Y Y*>`` over unit-norm rows of a low-rank
  factor Y (Riemannian gradient descent on a product of spheres/circles),
  for the special constraint set {Z psd, diag(Z) = 1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    InvalidInputError,
    check_square,
    frobenius_norm,
    project_psd,
    symmetrize,
)

__all__ = [
    "ConstraintAtom",
    "psd",
    "nonneg",
    "box01",
    "diag_leq_one",
    "diag_eq_one",
    "total_sum_leq",
    "affine_halfspace",
    "l1_ball_around",
    "l2_ball_around",
    "PierraConfig",
    "BmConfig",
    "SolveReport",
    "pierra_solve",
    "pierra_community",
    "pierra_signed",
    "bm_solve",
    "bm_rank",
]


# ---------------------------------------------------------------------------
# constraint atoms


@dataclass(frozen=True)
class ConstraintAtom:
    """One convex constraint with an exact Euclidean projection."""

    kind: str
    lam: float = 0.0
    matrix: Optional[np.ndarray] = None   # halfspace normal or ball center
    bound: float = 0.0                    # halfspace offset or ball radius

    @property
    def label(self) -> str:
        return self.kind

    def project(self, Z: np.ndarray) -> np.ndarray:
        return _PROJECTIONS[self.kind](self, Z)

    def residual(self, Z: np.ndarray) -> float:
        return frobenius_norm(self.project(Z) - Z)


def psd() -> ConstraintAtom:
    return ConstraintAtom("psd")


def nonneg() -> ConstraintAtom:
    return ConstraintAtom("nonneg")


def box01() -> ConstraintAtom:
    return ConstraintAtom("box01")


def diag_leq_one() -> ConstraintAtom:
    return ConstraintAtom("diag_leq_one")


def diag_eq_one() -> ConstraintAtom:
    return ConstraintAtom("diag_eq_one")


def total_sum_leq(lam: float) -> ConstraintAtom:
    return ConstraintAtom("total_sum_leq", lam=float(lam))


def affine_halfspace(C: np.ndarray, bound: float) -> ConstraintAtom:
    """Half-space {Z : Re <C, Z> <= bound}."""
    C = np.asarray(C)
    if frobenius_norm(C) == 0.0:
        raise InvalidInputError("half-space normal must be nonzero")
    return ConstraintAtom("affine_halfspace", matrix=C, bound=float(bound))


def l1_ball_around(center: np.ndarray, radius: float) -> ConstraintAtom:
    if radius < 0:
        raise InvalidInputError("l1 ball radius must be >= 0")
    return ConstraintAtom("l1_ball", matrix=np.asarray(center), bound=float(radius))


def l2_ball_around(center: np.ndarray, radius: float) -> ConstraintAtom:
    if radius < 0:
        raise InvalidInputError("l2 ball radius must be >= 0")
    return ConstraintAtom("l2_ball", matrix=np.asarray(center), bound=float(radius))


def _proj_psd(_atom, Z):
    return project_psd(Z)


def _proj_nonneg(_atom, Z):
    return np.maximum(Z, 0.0)


def _proj_box01(_atom, Z):
    return np.clip(Z, 0.0, 1.0)


def _proj_diag_leq_one(_atom, Z):
    out = Z.copy()
    d = np.diagonal(out).copy()
    np.fill_diagonal(out, np.minimum(d, 1.0))
    return out


def _proj_diag_eq_one(_atom, Z):
    out = Z.copy()
    np.fill_diagonal(out, 1.0)
    return out


def _proj_total_sum_leq(atom, Z):
    s = float(np.real(Z.sum()))
    if s <= atom.lam:
        return Z
    return Z - (s - atom.lam) / Z.size


def _proj_affine_halfspace(atom, Z):
    C = atom.matrix
    v = float(np.real(np.vdot(C, Z)))
    excess = v - atom.bound
    if excess <= 0:
        return Z
    return Z - excess * C / (frobenius_norm(C) ** 2)


def _shrink_moduli(D: np.ndarray, tau: float) -> np.ndarray:
    mag = np.abs(D)
    keep = mag > tau
    out = np.zeros_like(D)
    out[keep] = D[keep] * (1.0 - tau / mag[keep])
    return out


def _proj_l1_ball(atom, Z):
    D = Z - atom.matrix
    mag = np.abs(D).ravel()
    total = float(mag.sum())
    if total <= atom.bound:
        return Z
    if atom.bound == 0.0:
        return atom.matrix.copy()
    # sort-and-threshold soft shrink of the entry moduli
    u = np.sort(mag)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    valid = u > (css - atom.bound) / k
    k_star = int(np.nonzero(valid)[0][-1]) + 1
    tau = (css[k_star - 1] - atom.bound) / k_star
    return atom.matrix + _shrink_moduli(D, tau)


def _proj_l2_ball(atom, Z):
    D = Z - atom.matrix
    nd = frobenius_norm(D)
    if nd <= atom.bound:
        return Z
    return atom.matrix + D * (atom.bound / nd)


_PROJECTIONS = {
    "psd": _proj_psd,
    "nonneg": _proj_nonneg,
    "box01": _proj_box01,
    "diag_leq_one": _proj_diag_leq_one,
    "diag_eq_one": _proj_diag_eq_one,
    "total_sum_leq": _proj_total_sum_leq,
    "affine_halfspace": _proj_affine_halfspace,
    "l1_ball": _proj_l1_ball,
    "l2_ball": _proj_l2_ball,
}


# ---------------------------------------------------------------------------
# configuration and reporting


@dataclass(frozen=True)
class PierraConfig:
    """Projection-splitting knobs.

    ``epsilon`` is the objective step weight; ``None`` auto-scales it to
    ``sqrt(n) / ||M||_F``, which keeps the per-sweep drift commensurate with
    the feasible set's diameter.
    """

    epsilon: Optional[float] = None
    max_iters: int = 50_000
    feas_tol: float = 1e-7
    obj_tol: float = 1e-9

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise InvalidInputError("epsilon must be > 0")
        if self.feas_tol <= 0 or self.obj_tol <= 0:
            raise InvalidInputError("tolerances must be > 0")


@dataclass(frozen=True)
class BmConfig:
    """Low-rank factorization knobs; ``rank=None`` uses :func:`bm_rank`."""

    rank: Optional[int] = None
    max_iters: int = 20_000
    grad_tol: float = 1e-7
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rank is not None and self.rank < 1:
            raise InvalidInputError("rank must be >= 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")


@dataclass
class SolveReport:
    solver: str
    iterations: int
    termination: str                     # "converged" | "max_iters"
    objective: float
    objective_trace: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "iterations": int(self.iterations),
            "termination": self.termination,
            "objective": float(self.objective),
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "objective_trace": [float(v) for v in self.objective_trace],
        }


# ---------------------------------------------------------------------------
# projection splitting

_CHECK_EVERY = 10


def _auto_epsilon(M: np.ndarray) -> float:
    nm = frobenius_norm(M)
    if nm == 0.0:
        return 1.0
    return float(np.sqrt(M.shape[0])) / nm


def _residuals(atoms: Sequence[ConstraintAtom], Z: np.ndarray) -> dict:
    scale = 1.0 + frobenius_norm(Z)
    return {f"{i}:{a.label}": a.residual(Z) / scale for i, a in enumerate(atoms)}


def _final_sweep(atoms: Sequence[ConstraintAtom], Z: np.ndarray) -> np.ndarray:
    ordered = [a for a in atoms if a.kind != "psd"] + [a for a in atoms if a.kind == "psd"]
    for atom in ordered:
        Z = atom.project(Z)
    return Z


def _splitting_engine(M, atoms, config, X0=None):
    """Core product-space recursion; returns (Ybar, X, iterations, termination, trace).

    ``X0`` warm-starts the auxiliary components (continuation across related
    constraint sets); callers outside this module use :func:`pierra_solve`.
    """
    J = len(atoms)
    eps = config.epsilon if config.epsilon is not None else _auto_epsilon(M)
    drift = (eps / (2.0 * J)) * M
    X = [x.copy() for x in X0] if X0 is not None else [np.zeros_like(M) for _ in range(J)]
    trace = []
    termination = "max_iters"
    iterations = config.max_iters
    Ybar = np.zeros_like(M)
    for it in range(1, config.max_iters + 1):
        Y = [atom.project(X[j] + drift) for j, atom in enumerate(atoms)]
        avg_reflected = sum(2.0 * Y[j] - X[j] for j in range(J)) / J
        X = [X[j] + avg_reflected - Y[j] for j in range(J)]
        Ybar = sum(Y) / J
        trace.append(float(np.real(np.vdot(M, Ybar))))
        if it % _CHECK_EVERY == 0:
            resid = max(_residuals(atoms, Ybar).values())
            stable = False
            if len(trace) > _CHECK_EVERY:
                prev = trace[-1 - _CHECK_EVERY]
                stable = abs(trace[-1] - prev) <= config.obj_tol * (1.0 + abs(trace[-1]))
            if resid <= config.feas_tol and stable:
                termination = "converged"
                iterations = it
                break
    return Ybar, X, iterations, termination, trace


def pierra_solve(M: np.ndarray, atoms: Sequence[ConstraintAtom], config: PierraConfig | None = None):
    """Maximize ``Re <M, Z>`` over the intersection of ``atoms``.

    Returns ``(Z_hat, SolveReport)``.  Terminates once the scaled feasibility
    residual of the averaged iterate drops below ``feas_tol`` and the
    objective has moved by at most ``obj_tol`` (relative) over 10 iterations;
    the returned matrix is the average after one last sweep through all
    projections with the psd cone applied last.
    """
    config = config or PierraConfig()
    M = check_square(np.asarray(M), "objective")
    if not atoms:
        raise InvalidInputError("need at least one constraint atom")
    M = symmetrize(M)
    Ybar, _, iterations, termination, trace = _splitting_engine(M, atoms, config)
    Z_hat = _final_sweep(atoms, Ybar)
    report = SolveReport(
        solver="pierra",
        iterations=iterations,
        termination=termination,
        objective=float(np.real(np.vdot(M, Z_hat))),
        objective_trace=np.asarray(trace),
        residuals=_residuals(atoms, Z_hat),
    )
    return Z_hat, report


def community_atoms(lam: float) -> list[ConstraintAtom]:
    if lam <= 0:
        raise InvalidInputError("lam must be > 0")
    return [psd(), nonneg(), diag_leq_one(), total_sum_leq(lam)]


def signed_atoms() -> list[ConstraintAtom]:
    return [psd(), box01(), diag_eq_one()]


def unit_diag_atoms() -> list[ConstraintAtom]:
    return [psd(), diag_eq_one()]


def pierra_community(A: np.ndarray, lam: float, config: PierraConfig | None = None):
    """Community detection program: maximize <A, Z> over
    {Z psd, Z >= 0, diag(Z) <= 1, sum(Z) <= lam}."""
    return pierra_solve(A, community_atoms(lam), config)


def pierra_signed(A: np.ndarray, alpha: float, config: PierraConfig | None = None):
    """Signed clustering program: maximize <A - alpha*J, Z> over
    {Z psd, Z in [0,1], diag(Z) = 1}."""
    A = check_square(np.asarray(A, dtype=float))
    M = A - alpha * np.ones_like(A)
    return pierra_solve(M, signed_atoms(), config)


# ---------------------------------------------------------------------------
# low-rank factorization on the product of spheres / circles


def bm_rank(n: int) -> int:
    """Factorization rank ceil(sqrt(2n)), above the barrier where every local
    optimum of the factorized program is global for almost all objectives."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return int(np.ceil(np.sqrt(2.0 * n)))


def _retract_rows(Y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(Y, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return Y / norms


def _riemannian_grad(M: np.ndarray, Y: np.ndarray, sense: float) -> np.ndarray:
    G = 2.0 * sense * (M @ Y)
    radial = np.real(np.sum(G * Y.conj(), axis=1, keepdims=True))
    return G - radial * Y


def _bm_objective(M: np.ndarray, Y: np.ndarray, sense: float) -> float:
    return sense * float(np.real(np.vdot(Y, M @ Y)))


def _bm_descend(M, Y, sense, grad_tol, max_iters, step0, trace):
    """Armijo backtracking descent; returns (Y, value, iterations, converged)."""
    value = _bm_objective(M, Y, sense)
    step_init = step0
    it = 0
    while it < max_iters:
        it += 1
        G = _riemannian_grad(M, Y, sense)
        sq = float(np.real(np.vdot(G, G)))
        if np.sqrt(sq) <= grad_tol:
            return Y, value, it, True
        t = step_init
        accepted = False
        for _ in range(60):
            Y_new = _retract_rows(Y - t * G)
            v_new = _bm_objective(M, Y_new, sense)
            if v_new <= value - 1e-4 * t * sq:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return Y, value, it, False
        Y, value = Y_new, v_new
        trace.append(value)
        step_init = 2.0 * t
    return Y, value, it, False


_MAX_ESCAPES = 20


def bm_solve(M: np.ndarray, sense: str = "max", config: BmConfig | None = None):
    """Optimize ``Re <M, Y Y*>`` over unit-norm rows of Y (rank p factor).

    The feasible Gram matrices are exactly {Z psd, diag(Z) = 1}; complex
    objectives run on the product of unit circles, real ones on unit
    spheres.  After each converged descent a small random tangent kick is
    applied and the descent restarted; the kick is kept only when it
    improves the objective beyond 1e-8 relative (saddle escape).  Best over
    ``config.restarts`` seeded restarts wins, ties to the lowest index.

    Returns ``(Y, Z_hat, SolveReport)`` with ``Z_hat = Y @ Y*``.
    """
    if sense not in ("max", "min"):
        raise InvalidInputError("sense must be 'max' or 'min'")
    config = config or BmConfig()
    M = check_square(np.asarray(M), "objective")
    M = symmetrize(M)
    n = M.shape[0]
    p = config.rank if config.rank is not None else bm_rank(n)
    if p < 1:
        raise InvalidInputError("rank must be >= 1")
    sgn = 1.0 if sense == "min" else -1.0
    scale = frobenius_norm(M)
    grad_tol = config.grad_tol * (1.0 + scale)
    step0 = 1.0 / (2.0 * scale) if scale > 0 else 1.0
    complex_valued = np.iscomplexobj(M)

    root = np.random.SeedSequence(config.seed, spawn_key=(0,))
    best = None
    total_iters = 0
    for restart, child in enumerate(root.spawn(config.restarts)):
        rng = np.random.default_rng(child)
        if complex_valued:
            Y = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        else:
            Y = rng.standard_normal((n, p))
        Y = _retract_rows(Y)
        trace = [_bm_objective(M, Y, sgn)]
        Y, value, its, converged = _bm_descend(
            M, Y, sgn, grad_tol, config.max_iters, step0, trace
        )
        total_iters += its
        for _ in range(_MAX_ESCAPES):
            if complex_valued:
                xi = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
            else:
                xi = rng.standard_normal((n, p))
            radial = np.real(np.sum(xi * Y.conj(), axis=1, keepdims=True))
            xi = xi - radial * Y
            nx = np.linalg.norm(xi)
            if nx == 0:
                break
            xi *= 1e-3 * np.linalg.norm(Y) / nx
            Y_kick = _retract_rows(Y + xi)
            kick_trace = []
            Y_kick, v_kick, its_kick, conv_kick = _bm_descend(
                M, Y_kick, sgn, grad_tol, config.max_iters, step0, kick_trace
            )
            total_iters += its_kick
            if v_kick < value - 1e-8 * (1.0 + abs(value)):
                Y, value, converged = Y_kick, v_kick, conv_kick
                trace.extend(kick_trace)
            else:
                break
        if best is None or value < best[1]:
            best = (Y, value, converged, trace)

    Y, value, converged, trace = best
    Z = symmetrize(Y @ Y.conj().T)
    diag_err = float(np.max(np.abs(np.diagonal(Z) - 1.0)))
    report = SolveReport(
        solver="bm",
        iterations=total_iters,
        termination="converged" if converged else "max_iters",
        objective=float(np.real(np.vdot(M, Z))),
        objective_trace=np.asarray([sgn * v for v in trace]),
        residuals={"0:psd": 0.0, "1:diag_eq_one": diag_err},
    )
    return Y, Z, report
