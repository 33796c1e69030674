"""SDP solvers: two-block ADMM over the psd cone and low-rank factorization.

Two solver families cover every program in the library:

* :func:`pierra_solve` maximizes ``<M, Z>`` over an intersection of convex
  constraint atoms.  The psd cone is one block; every other atom together
  forms a set P with a cheap projection (entrywise bounds plus at most one
  half-space, projected exactly by a clip and a 1-D multiplier search;
  any other list by Dykstra's algorithm).  Each sweep is one
  Douglas-Rachford / ADMM step ``X = P_psd(Z - U + eps*M)``,
  ``Z = P_P(X + U)``, ``U += X - Z``, and the penalty ``1/eps`` is
  rebalanced every 10 sweeps so that the primal and dual residuals stay
  within a factor 10 of each other.
* :func:`bm_solve` optimizes ``<M, Y Y*>`` over unit-norm rows of a low-rank
  factor Y (Riemannian gradient descent on a product of spheres/circles),
  for the special constraint set {Z psd, diag(Z) = 1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    # a point on the sphere can give tau = -roundoff: zero moduli would then
    # pass the shrink and divide by zero
    tau = max((css[k_star - 1] - atom.bound) / k_star, 0.0)
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
    """ADMM knobs.

    ``epsilon`` is the initial objective step ``1/rho_0`` (the inverse of
    the starting penalty); ``None`` auto-scales it to ``sqrt(n) / ||M||_F``,
    which keeps the per-sweep drift commensurate with the feasible set's
    diameter.  The penalty then adapts every 10 sweeps.
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
    # "converged" | "max_iters" (budget spent) | "stalled" (BM line search failed)
    termination: str
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
# two-block ADMM: the psd cone against one projection onto the other atoms

_CHECK_EVERY = 10
_RHO_BALANCE = 10.0      # residual ratio that triggers a penalty change
_DYKSTRA_PASSES = 1000
_MULTIPLIER_STEPS = 100

# per-entry bounds of the entrywise atoms: (off-diagonal lo, hi, diagonal lo, hi)
_ENTRY_BOUNDS = {
    "nonneg": (0.0, np.inf, 0.0, np.inf),
    "box01": (0.0, 1.0, 0.0, 1.0),
    "diag_leq_one": (-np.inf, np.inf, -np.inf, 1.0),
    "diag_eq_one": (-np.inf, np.inf, 1.0, 1.0),
}
_HALFSPACES = ("total_sum_leq", "affine_halfspace")


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


def _halfspace_multiplier(V, C, lo, hi, bound, tau):
    """tau >= 0 with <C, clip(V - tau*C, lo, hi)> = bound, from a first guess.

    The left side falls piecewise linearly in tau: an entry contributes
    slope -c^2 while V - tau*C is inside its bounds.  Newton steps on the
    current piece, kept inside a bracket of the root by bisection, end
    once a step lands on the piece it was computed on, where it is exact.
    """
    sq = C * C
    left, right = 0.0, np.inf
    stepped_from = None
    for _ in range(_MULTIPLIER_STEPS):
        Y = V - tau * C
        Z = np.clip(Y, lo, hi)
        gap = float(np.vdot(C, Z)) - bound
        piece = np.sign(Z - Y)          # -1 / +1 clamped at hi / lo, 0 inside
        if gap == 0 or np.array_equal(piece, stepped_from):
            break
        if gap > 0:
            left = tau
        else:
            right = tau
        slope = float(sq[piece == 0].sum())
        step = tau + gap / slope if slope > 0 else np.inf
        if left < step < right:
            tau, stepped_from = step, piece
        else:
            tau, stepped_from = (0.5 * (left + right) if right < np.inf else 2.0 * tau + 1.0), None
    return tau


def _dykstra(projections, V):
    """Projection onto an intersection by Dykstra's algorithm, given the
    projection onto each set."""
    if len(projections) == 1:
        return projections[0](V)
    Z = V
    increments = [np.zeros_like(V) for _ in projections]
    for _ in range(_DYKSTRA_PASSES):
        Z_start = Z
        for j, project in enumerate(projections):
            Y = Z + increments[j]
            Z = project(Y)
            increments[j] = Y - Z
        if frobenius_norm(Z - Z_start) <= 1e-13 * (1.0 + frobenius_norm(Z)):
            break
    return Z


def _box_halfspace_projection(entrywise, halfspace, shape):
    """Exact projection onto entrywise bounds intersected with at most one
    half-space: clip, and if the half-space is violated, clip ``V - tau*C``
    at the multiplier tau found by :func:`_halfspace_multiplier`."""
    lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
    if entrywise:
        bounds = np.array([_ENTRY_BOUNDS[a.kind] for a in entrywise])
        lo[:], hi[:] = bounds[:, 0].max(), bounds[:, 1].min()
        np.fill_diagonal(lo, bounds[:, 2].max())
        np.fill_diagonal(hi, bounds[:, 3].min())
    if halfspace is None:
        return lambda V: np.clip(V, lo, hi)
    if halfspace.kind == "total_sum_leq":
        C, bound = np.ones(shape), halfspace.lam
    else:
        C, bound = np.asarray(halfspace.matrix, dtype=float), halfspace.bound

    last = [0.0]    # the multiplier moves little from one sweep to the next

    def project(V):
        Z = np.clip(V, lo, hi)
        if float(np.vdot(C, Z)) <= bound:
            return Z
        last[0] = _halfspace_multiplier(V, C, lo, hi, bound, last[0])
        return np.clip(V - last[0] * C, lo, hi)

    return project


def _set_projection(atoms, M):
    """Projection onto the intersection of the non-psd atoms, for iterates
    shaped like ``M``.

    For a real ``M`` the entrywise atoms and the first half-space form one
    exactly projected block; that covers every set the library builds.
    Atoms left over (balls, further half-spaces) and complex objectives go
    through Dykstra's algorithm.
    """
    others = [a for a in atoms if a.kind != "psd"]
    if not others:
        return lambda V: V
    entrywise = [a for a in others if a.kind in _ENTRY_BOUNDS]
    halfspace = next((a for a in others if a.kind in _HALFSPACES), None)
    rest = [a.project for a in others if a.kind not in _ENTRY_BOUNDS and a is not halfspace]
    if np.iscomplexobj(M) or len(rest) == len(others):
        return partial(_dykstra, [a.project for a in others])
    return partial(_dykstra, [_box_halfspace_projection(entrywise, halfspace, M.shape)] + rest)


def _splitting_engine(M, atoms, config, X0=None):
    """Two-block ADMM; returns (Z, state, iterations, termination, trace).

    ``Z`` is the last iterate in the non-psd atoms' set.  ``state`` is
    ``(Z, U, rho)``: the iterate, the scaled dual and the penalty; passed
    back as ``X0`` it warm-starts a solve over a related constraint set
    (continuation).  Callers outside this module use :func:`pierra_solve`.
    """
    project_set = _set_projection(atoms, M)
    has_cone = any(a.kind == "psd" for a in atoms)
    if X0 is not None:
        Z, U, rho = X0
    else:
        eps = config.epsilon if config.epsilon is not None else _auto_epsilon(M)
        Z, U, rho = np.zeros_like(M), np.zeros_like(M), 1.0 / eps
    trace = []
    termination = "max_iters"
    iterations = config.max_iters
    for it in range(1, config.max_iters + 1):
        V = Z - U + M / rho
        X = project_psd(V) if has_cone else V
        Z_prev = Z
        Z = project_set(X + U)
        U = U + X - Z
        trace.append(float(np.real(np.vdot(M, Z))))
        if it % _CHECK_EVERY:
            continue
        if len(trace) > _CHECK_EVERY:
            prev = trace[-1 - _CHECK_EVERY]
            if (abs(trace[-1] - prev) <= config.obj_tol * (1.0 + abs(trace[-1]))
                    and max(_residuals(atoms, Z).values()) <= config.feas_tol):
                termination = "converged"
                iterations = it
                break
        primal = frobenius_norm(X - Z)
        dual = rho * frobenius_norm(Z - Z_prev)
        if primal > _RHO_BALANCE * dual:
            rho, U = 2.0 * rho, U / 2.0
        elif dual > _RHO_BALANCE * primal:
            rho, U = rho / 2.0, 2.0 * U
    return Z, (Z, U, rho), iterations, termination, trace


def pierra_solve(M: np.ndarray, atoms: Sequence[ConstraintAtom], config: PierraConfig | None = None):
    """Maximize ``Re <M, Z>`` over the intersection of ``atoms``.

    Returns ``(Z_hat, SolveReport)``.  Terminates once the scaled feasibility
    residual of the iterate drops below ``feas_tol`` and the objective has
    moved by at most ``obj_tol`` (relative) over 10 iterations; the returned
    matrix is the iterate after one last sweep through all projections with
    the psd cone applied last.
    """
    config = config or PierraConfig()
    M = check_square(np.asarray(M), "objective")
    if not atoms:
        raise InvalidInputError("need at least one constraint atom")
    M = symmetrize(M)
    Z, _, iterations, termination, trace = _splitting_engine(M, atoms, config)
    Z_hat = _final_sweep(atoms, Z)
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
    """Armijo backtracking descent; returns (Y, value, iterations, termination)."""
    value = _bm_objective(M, Y, sense)
    step_init = step0
    it = 0
    while it < max_iters:
        it += 1
        G = _riemannian_grad(M, Y, sense)
        sq = float(np.real(np.vdot(G, G)))
        if np.sqrt(sq) <= grad_tol:
            return Y, value, it, "converged"
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
            return Y, value, it, "stalled"
        Y, value = Y_new, v_new
        trace.append(value)
        step_init = 2.0 * t
    return Y, value, it, "max_iters"


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
        Y, value, its, termination = _bm_descend(
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
            Y_kick, v_kick, its_kick, term_kick = _bm_descend(
                M, Y_kick, sgn, grad_tol, config.max_iters, step0, kick_trace
            )
            total_iters += its_kick
            if v_kick < value - 1e-8 * (1.0 + abs(value)):
                Y, value, termination = Y_kick, v_kick, term_kick
                trace.extend(kick_trace)
            else:
                break
        if best is None or value < best[1]:
            best = (Y, value, termination, trace)

    Y, value, termination, trace = best
    Z = symmetrize(Y @ Y.conj().T)
    diag_err = float(np.max(np.abs(np.diagonal(Z) - 1.0)))
    report = SolveReport(
        solver="bm",
        iterations=total_iters,
        termination=termination,
        objective=float(np.real(np.vdot(M, Z))),
        objective_trace=np.asarray([sgn * v for v in trace]),
        residuals={"0:psd": 0.0, "1:diag_eq_one": diag_err},
    )
    return Y, Z, report
