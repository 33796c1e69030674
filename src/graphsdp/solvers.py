"""SDP solvers: two-block ADMM over the psd cone and low-rank factorization.

Two solver families cover every program in the library:

* :func:`pierra_solve` maximizes ``<M, Z>`` over the psd cone intersected
  with a set P given as convex constraint atoms.  The cone is always one
  block and P the other; P must be entrywise bounds plus at most one
  half-space, l1 ball or l2 ball, projected exactly by a clip and a 1-D
  multiplier search; a set of any other shape raises.  Each sweep is one
  Douglas-Rachford / ADMM step ``X = P_psd(Z - U + eps*M)``,
  ``Z = P_P(X + U)``, ``U += X - Z``, and the penalty ``1/eps`` is
  rebalanced every 10 sweeps so that the relative primal and dual
  residuals (Wohlberg 2017), ``||X - Z|| / max(||X||, ||Z||)`` and
  ``||Z - Z_prev|| / ||U||``, stay within a factor 10 of each other; the
  test does not depend on n or on the scale of M.  The sweeps are a
  fixed-point map on ``Z + U``, and type-II Anderson acceleration over the
  last 10 steps extrapolates it.  A safeguard rejects an extrapolated point
  whose fixed-point residual exceeds the last accepted one and takes the
  plain step instead.  The memory is cleared on a rejection and on a penalty
  change.  The returned matrix is the psd projection of the last iterate,
  which lies in P, and the reported residuals are measured on it.
* :func:`bm_solve` optimizes ``<M, Y Y*>`` over unit-norm rows of a low-rank
  factor Y (Barzilai-Borwein gradient descent with a nonmonotone line
  search on a product of spheres/circles), for the special constraint set
  {Z psd, diag(Z) = 1}, and stops on a dual certificate that bounds the gap
  to the optimum.  The factor starts at rank 4 and gains columns only when
  the certificate rejects a full-rank factor, up to the cap
  :func:`bm_rank`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    InvalidInputError,
    check_fields,
    check_square,
    frobenius_norm,
    has_cholesky,
    project_psd,
    project_psd_hermitian,
    psd_residual,
    symmetrize,
    symmetrize_unchecked,
)

__all__ = [
    "ConstraintAtom",
    "nonneg",
    "box01",
    "diag_leq_one",
    "diag_eq_one",
    "is_unit_diagonal",
    "total_sum_leq",
    "affine_halfspace",
    "l1_ball_around",
    "l2_ball_around",
    "PierraConfig",
    "BmConfig",
    "SolveReport",
    "pierra_solve",
    "pierra_signed",
    "bm_solve",
    "bm_rank",
]


# ---------------------------------------------------------------------------
# constraint atoms


@dataclass(frozen=True)
class ConstraintAtom:
    """One convex constraint of the set P, a plain record: :func:`pierra_solve`
    builds the projections onto the atoms it is given (see ``_set_projection``)."""

    kind: str
    matrix: Optional[np.ndarray] = None   # halfspace normal or ball center
    bound: float = 0.0                    # total-sum cap, halfspace offset or ball radius


def nonneg() -> ConstraintAtom:
    return ConstraintAtom("nonneg")


def box01() -> ConstraintAtom:
    return ConstraintAtom("box01")


def diag_leq_one() -> ConstraintAtom:
    return ConstraintAtom("diag_leq_one")


def diag_eq_one() -> ConstraintAtom:
    return ConstraintAtom("diag_eq_one")


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def total_sum_leq(lam: float) -> ConstraintAtom:
    return ConstraintAtom("total_sum_leq", bound=_finite(lam, "total-sum cap"))


def affine_halfspace(C: np.ndarray, bound: float) -> ConstraintAtom:
    """Half-space {Z : <C, Z> <= bound}."""
    C = check_square(C, "half-space normal")
    if frobenius_norm(C) == 0.0:
        raise InvalidInputError("half-space normal must be nonzero")
    return ConstraintAtom("affine_halfspace", matrix=C, bound=_finite(bound, "half-space offset"))


def _ball(kind: str, center: np.ndarray, radius: float) -> ConstraintAtom:
    name = kind.replace("_", " ") + " radius"
    radius = _finite(radius, name)
    if radius < 0:
        raise InvalidInputError(f"{name} must be >= 0")
    return ConstraintAtom(kind, matrix=check_square(center, "ball center"), bound=radius)


def l1_ball_around(center: np.ndarray, radius: float) -> ConstraintAtom:
    """Ball {Z : the entries |Z - center| sum to at most radius}."""
    return _ball("l1_ball", center, radius)


def l2_ball_around(center: np.ndarray, radius: float) -> ConstraintAtom:
    """Frobenius ball {Z : ||Z - center||_F <= radius}."""
    return _ball("l2_ball", center, radius)


# per-entry bounds of the entrywise atoms: (off-diagonal lo, hi, diagonal lo, hi)
_ENTRY_BOUNDS = {
    "nonneg": (0.0, np.inf, 0.0, np.inf),
    "box01": (0.0, 1.0, 0.0, 1.0),
    "diag_leq_one": (-np.inf, np.inf, -np.inf, 1.0),
    "diag_eq_one": (-np.inf, np.inf, 1.0, 1.0),
}


# ---------------------------------------------------------------------------
# configuration and reporting


@dataclass(frozen=True)
class PierraConfig:
    """ADMM knobs.

    A cold solve starts at the penalty ``||M||_F / sqrt(n)``, which keeps
    the per-sweep drift commensurate with the feasible set's diameter, and
    the penalty then doubles or halves every 10 sweeps while the relative
    primal residual ``||X - Z|| / max(||X||, ||Z||)`` and the relative dual
    residual ``||Z - Z_prev|| / ||U||`` differ by more than a factor 10.
    The sweeps are always Anderson-accelerated, with a memory fixed at 10
    steps and a safeguard that falls back to the plain step whenever an
    extrapolated point raises the fixed-point residual; ``max_iters``
    counts every sweep, rejected ones included.
    """

    max_iters: int = 50_000
    feas_tol: float = 1e-7
    obj_tol: float = 1e-9

    def __post_init__(self):
        kinds = {"max_iters": int, "feas_tol": float, "obj_tol": float}
        check_fields(self, kinds, positive=kinds)


@dataclass(frozen=True)
class BmConfig:
    """Low-rank factorization knobs.

    Each restart starts with ``min(4, bm_rank(n))`` columns, which grow
    only when the certificate rejects a full-rank factor, never beyond the
    cap :func:`bm_rank`.  ``restarts`` is the most seeded starts that
    run: the first one whose dual certificate proves it optimal to
    ``grad_tol * (1 + |objective|)`` ends the solve.  ``max_iters`` is one
    restart's budget, shared by its first descent and the descents after
    its escapes and rank increases.  ``grad_tol`` also stops each descent
    once the gradient norm is at most ``grad_tol * (1 + ||M||_F)``.
    """

    max_iters: int = 20_000
    grad_tol: float = 1e-7
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"max_iters": int, "grad_tol": float, "restarts": int, "seed": int},
                     positive=("max_iters", "grad_tol", "restarts"),
                     nonnegative=("seed",))


_TRACE_ENTRIES = 1000    # most objective_trace entries a serialized report holds


def _thin(trace) -> np.ndarray:
    """At most ``_TRACE_ENTRIES`` evenly spaced entries, first and last kept."""
    trace = np.asarray(trace)
    if trace.size <= _TRACE_ENTRIES:
        return trace
    return trace[np.linspace(0, trace.size - 1, _TRACE_ENTRIES).round().astype(int)]


@dataclass
class SolveReport:
    solver: str
    iterations: int
    # "converged" (BM: certified to ``gap``) | "max_iters" (budget spent) |
    # "stalled" (BM: not certified and no escape decreases the objective)
    termination: str
    objective: float
    objective_trace: np.ndarray     # complete; ``to_dict`` thins it to 1000 entries
    residuals: dict = field(default_factory=dict)
    # BM: certified bound on the distance from objective to optimum, from a
    # Cholesky factor of the dual slack (2 n^2 eps ||S||_F, or at most the stop
    # target from a factor at the shift target / (2n)) when that meets the
    # stop target, else from its eigenvalues; None for splitting
    gap: Optional[float] = None
    # splitting: the end state (Z, U, rho), for ``pierra_solve(warm_start=...)``; not serialized
    state: Optional[tuple] = field(default=None, repr=False, compare=False)
    # splitting: extrapolations accepted and rejected by the safeguard,
    # penalty changes and the final penalty rho; BM: restarts run, escapes
    # and rank increases taken, objective evaluations, certificates settled
    # without eigh (by a Cholesky factor, or a zero dual slack) and by eigh,
    # and the final rank
    counters: dict = field(default_factory=dict)

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
            "gap": None if self.gap is None else float(self.gap),
            "counters": dict(sorted(self.counters.items())),
            "objective_trace": [float(v) for v in _thin(self.objective_trace)],
        }


# ---------------------------------------------------------------------------
# two-block ADMM: the psd cone against one projection onto the atoms' set P

_CHECK_EVERY = 10
_ANDERSON_MEMORY = 10    # (delta T(y), delta g) pairs kept by the acceleration
_ANDERSON_REG = 1e-10    # Tikhonov weight, relative to the trace of the Gram matrix
_RHO_BALANCE = 10.0      # residual ratio that triggers a penalty change
_MULTIPLIER_STEPS = 100


def _auto_epsilon(M: np.ndarray) -> float:
    nm = frobenius_norm(M)
    if nm == 0.0:
        return 1.0
    return float(np.sqrt(M.shape[0])) / nm


def _clip(V, lo, hi):
    """``np.clip(V, lo, hi)``, the same to the bit (NaN and signed zeros
    included), without the wrapper that costs more than the clip at n=20."""
    Z = np.maximum(V, lo)
    return np.minimum(Z, hi, out=Z)


def _multiplier(V, N, sq, L, H, value, l2, tau):
    """The multiplier tau >= 0 where ``value(clip(V - s*N, L, H))`` is 0,
    from a first guess; s = tau, or ``tau / (1 + tau)`` for the l2 ball.

    ``value`` does not increase with tau.  On one piece, the pattern of
    entries held at L or H, it has a closed form: linear in tau with slope
    ``-sum(sq)`` over the free entries, or for the l2 ball that sum over
    ``(1 + tau)^2`` plus a constant.  Steps to its zero there, kept inside
    a bracket of the root by bisection, end once a step lands on the piece
    it was computed on, where it is exact, or does not move tau.  Returns
    ``(tau, Z)``; Z is None when the ``_MULTIPLIER_STEPS`` cap ends the
    search, since the last step has then moved tau past the last clipped
    point.
    """
    left, right = 0.0, np.inf
    stepped_from = None
    for _ in range(_MULTIPLIER_STEPS):
        Y = V - (tau / (1.0 + tau) if l2 else tau) * N
        Z = _clip(Y, L, H)
        gap = value(Z)
        piece = np.subtract(Z, Y, out=Y)
        np.sign(piece, out=piece)       # -1 / +1 clamped at H / L, 0 inside
        if gap == 0 or (stepped_from is not None and (piece == stepped_from).all()):
            return tau, Z
        if gap > 0:
            left = tau
        else:
            right = tau
        free = float(sq[piece == 0].sum())
        if not l2:
            step = tau + gap / free if free > 0 else np.inf
        else:
            # on the piece the gap at t is free / (1 + t)^2 less rest, b^2
            # less the clamped entries' share; its zero as an increment on
            # tau, which a tiny gap still moves
            u = free / (1.0 + tau) ** 2
            rest = u - gap
            step = (tau + (1.0 + tau) * gap / (math.sqrt(rest) * (math.sqrt(u) + math.sqrt(rest)))
                    if rest > 0 else np.inf)
        if step == tau:     # the piece's zero is tau to working precision
            return tau, Z
        if left < step < right:
            tau, stepped_from = step, piece
        else:
            tau, stepped_from = (0.5 * (left + right) if right < np.inf else 2.0 * tau + 1.0), None
    return tau, None


def _set_projection(atoms, M):
    """Exact projection onto the intersection of the atoms, for real
    C-contiguous iterates shaped like ``M``.

    The atoms must be entrywise bounds plus at most one half-space, l1 ball
    or l2 ball, whose matrix is real and exactly symmetric; every set the
    library builds has that shape, and any other kind or shape raises.  The
    projection clips V to the bounds.  When that point violates the other
    atom, it clips instead ``V - tau*N`` at a multiplier tau found by
    :func:`_multiplier`: N = C for the half-space {<C, Z> <= b}; for the l1
    ball around c, N = sign(V - c) entrywise and each entry stops at
    c (clipped to the bounds), which is ``clip(c + soft(V - c, tau))``;
    for the l2 ball, N = V - c and tau enters as ``tau / (1 + tau)``, which
    is ``clip(c + (V - c) / (1 + tau))``.  Each step is entrywise or
    applies one scalar to every entry, so a symmetric V projects to a
    symmetric point.
    """
    for a in atoms:
        if a.kind not in (*_ENTRY_BOUNDS, "total_sum_leq", "affine_halfspace", "l1_ball", "l2_ball"):
            raise InvalidInputError(f"unknown atom kind {a.kind!r}; the psd cone is always included")
    entrywise = [a for a in atoms if a.kind in _ENTRY_BOUNDS]
    extra = [a for a in atoms if a.kind not in _ENTRY_BOUNDS]
    if len(extra) > 1:
        raise InvalidInputError("a constraint set takes at most one half-space or ball "
                                "besides entrywise bounds, got " + ", ".join(a.kind for a in extra))
    lo, hi = np.full(M.shape, -np.inf), np.full(M.shape, np.inf)
    if entrywise:
        bounds = np.array([_ENTRY_BOUNDS[a.kind] for a in entrywise])
        lo[:], hi[:] = bounds[:, 0].max(), bounds[:, 1].min()
        np.fill_diagonal(lo, bounds[:, 2].max())
        np.fill_diagonal(hi, bounds[:, 3].min())
    if not extra:
        return lambda V: _clip(V, lo, hi)
    (atom,) = extra
    A = np.ones(M.shape) if atom.kind == "total_sum_leq" else atom.matrix
    if np.shape(A) != M.shape:    # a hand-built atom may have no matrix
        raise InvalidInputError(f"{atom.kind} matrix has shape {np.shape(A)}, the objective {M.shape}")
    if A.dtype.kind == "c" or not np.array_equal(A, A.T):
        raise InvalidInputError(f"{atom.kind} matrix must be real and exactly symmetric")
    A = np.ascontiguousarray(A, dtype=M.dtype)
    l2 = atom.kind == "l2_ball"
    if atom.kind == "l1_ball":
        stop = _clip(A, lo, hi)

        def value(Z):
            return float(np.abs(Z - A).sum()) - atom.bound

        def direction(V):
            N = np.sign(V - A)
            return (N, N * N, np.maximum(lo, np.where(N > 0, stop, -np.inf)),
                    np.minimum(hi, np.where(N < 0, stop, np.inf)))
    elif l2:
        def value(Z):
            E = Z - A
            return float(np.vdot(E, E)) - atom.bound * atom.bound

        def direction(V):
            D = V - A
            return D, D * D, lo, hi
    else:
        def value(Z):
            return float(np.vdot(A, Z)) - atom.bound

        fixed = A, A * A, lo, hi

        def direction(V):
            return fixed

    last = [0.0]    # the multiplier moves little from one sweep to the next

    def project(V):
        Z = _clip(V, lo, hi)
        if value(Z) <= 0:
            return Z
        N, sq, L, H = direction(V)
        last[0], Z = _multiplier(V, N, sq, L, H, value, l2, last[0])
        if Z is None:
            Z = _clip(V - (last[0] / (1.0 + last[0]) if l2 else last[0]) * N, L, H)
        return Z

    return project


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map T on matrices.

    ``step(F, g)`` takes ``F = T(y)`` and ``g = F - y`` at an accepted
    point y and returns the next point ``F - dF @ gamma``, where dF and dG
    hold the differences of F and g between the last accepted points and
    gamma minimizes ``||g - dG @ gamma||^2 + reg * ||gamma||^2``.  The
    differences sit in preallocated ring buffers and their Gram matrix is
    updated one row per step.
    """

    def __init__(self, template: np.ndarray):
        shape = (_ANDERSON_MEMORY,) + template.shape
        self.dF = np.empty(shape, template.dtype)
        self.dG = np.empty(shape, template.dtype)
        # one row per slot, for the inner products
        self._dF = self.dF.reshape(_ANDERSON_MEMORY, -1)
        self._dG = self.dG.reshape(_ANDERSON_MEMORY, -1)
        self.gram = np.empty((_ANDERSON_MEMORY, _ANDERSON_MEMORY))
        self._eye = np.eye(_ANDERSON_MEMORY)
        self.clear()

    def clear(self):
        """Forget every pair and the last point."""
        self.pairs = 0
        self.slot = 0
        self.F = self.g = None               # T(y) and g at the last accepted y

    def step(self, F: np.ndarray, g: np.ndarray):
        """Record the accepted pair; returns ``(next point, extrapolated)``."""
        if self.F is not None:
            j = self.slot
            np.subtract(F, self.F, out=self.dF[j])
            np.subtract(g, self.g, out=self.dG[j])
            self.pairs = min(self.pairs + 1, _ANDERSON_MEMORY)
            self.slot = (j + 1) % _ANDERSON_MEMORY
            row = self._dG[:self.pairs] @ self._dG[j]
            self.gram[j, :self.pairs] = row
            self.gram[:self.pairs, j] = row
        self.F, self.g = F, g                # held, not copied: callers make new arrays
        k = self.pairs
        gram = self.gram[:k, :k]
        reg = _ANDERSON_REG * gram.trace()
        if reg == 0.0:          # no pair, or g has not changed
            return F, False
        gamma = np.linalg.solve(gram + reg * self._eye[:k, :k],
                                self._dG[:k] @ g.reshape(-1))
        correction = (gamma @ self._dF[:k]).reshape(F.shape)
        return np.subtract(F, correction, out=correction), True


def pierra_solve(M: np.ndarray, atoms: Sequence[ConstraintAtom], config: PierraConfig | None = None,
                 warm_start=None):
    """Maximize ``<M, Z>`` for a real ``M`` over the psd cone intersected
    with the set P that ``atoms`` name (none: the cone alone), entrywise
    bounds and at most one half-space, l1 ball or l2 ball whose matrix is
    real and exactly symmetric; a complex ``M`` or any other set raises
    InvalidInputError.  Complex unit-diagonal programs are :func:`bm_solve`'s.

    Returns ``(Z_hat, SolveReport)``.  Runs two-block ADMM with Anderson
    acceleration and terminates once the scaled feasibility residual of the
    iterate drops below ``feas_tol`` and the objective has moved by at most
    ``obj_tol`` (relative) over 10 iterations.  ``Z_hat`` is the psd
    projection of the last iterate, which lies in P; the report's objective
    and residuals (``"0:psd"``, then ``"i:<kind>"`` for atom i from 1) are
    measured on it.  ``warm_start``, an earlier report's ``state``, resumes
    the sweeps where that solve ended (continuation over a related set).

    The sweep is the Douglas-Rachford map on ``y = Z + U``:
    ``Z = P_P(y)``, ``X = P_psd(2Z - y + M/rho)``, ``T(y) = y + X - Z``.
    Every accepted point feeds :class:`_Anderson`, which proposes the next
    point from the last ``_ANDERSON_MEMORY`` steps.  A proposed point whose
    residual ``||X - Z||`` exceeds the last accepted one is rejected: the
    solve falls back to the plain step ``T(y)`` from the last accepted
    point and the memory is cleared, as it is whenever the penalty changes.
    Every 10th sweep takes the plain step, so the stop rule and the penalty
    test only ever judge points reached from an accepted one.  The penalty
    test balances relative residuals: the primal ``||X - Z||`` over
    ``max(||X||, ||Z||)`` against the dual ``rho ||Z - Z_prev||`` over
    ``||rho U||`` for the scaled dual ``U = y - Z``; ``rho`` doubles when
    the primal exceeds 10 times the dual, halves in the opposite case, and
    stays when either reference norm is zero.  The set
    projection, and one projection per atom for the residuals, are built
    once per solve.

    The report's ``state`` is ``(Z, U, rho)``: the last iterate in P, the
    scaled dual and the penalty.  Its ``counters`` count the extrapolated
    points accepted and rejected, the penalty changes, and hold the final
    penalty ``rho``.

    No sweep checks its matrices.  V is built in one buffer and handed to
    the unchecked psd kernel, whose ``eigh`` reads one triangle of it.  V is
    exactly symmetric at every sweep: M is symmetrized, every atom matrix
    is exactly symmetric, and both projections and the acceleration keep
    symmetric matrices symmetric.  M is finite, so
    only a broken iterate is not: the scalar test of ``||X - Z||`` (and
    ``eigh`` failing on a non-finite V) raises the InvalidInputError that
    :func:`project_psd` raises on non-finite input.
    """
    config = config or PierraConfig()
    M = check_square(M, "objective")
    if M.dtype.kind == "c":
        raise InvalidInputError("the splitting solver takes a real objective; "
                                "bm_solve solves complex unit-diagonal programs")
    # the sweeps run in double precision
    M = symmetrize_unchecked(M.astype(float, copy=False))
    project_set = _set_projection(atoms, M)
    # one projection per atom, for its residual ||P(Z) - Z||_F; the cone's
    # residual comes from its eigenvalues alone
    projections = {f"{i}:{a.kind}": _set_projection([a], M) for i, a in enumerate(atoms, 1)}

    def residuals(Z):
        scale = 1.0 + frobenius_norm(Z)
        return {"0:psd": psd_residual(Z) / scale,
                **{key: frobenius_norm(project(Z) - Z) / scale for key, project in projections.items()}}

    if warm_start is not None:
        Z, U, rho = warm_start
    else:
        Z, U, rho = np.zeros_like(M), np.zeros_like(M), 1.0 / _auto_epsilon(M)
    y = Z + U
    accel = _Anderson(y)
    V = np.empty_like(M)    # 2Z - y + M/rho
    M_rho = M / rho
    counters = dict.fromkeys(("extrapolations_accepted", "extrapolations_rejected",
                              "penalty_changes"), 0)
    extrapolated = False       # whether y came from the acceleration
    accepted_norm = np.inf     # ||g|| at the last accepted point
    trace = []
    termination = "max_iters"
    iterations = config.max_iters
    for it in range(1, config.max_iters + 1):
        np.multiply(Z, 2.0, out=V)
        V -= y
        V += M_rho
        try:
            X = project_psd_hermitian(V)
        except np.linalg.LinAlgError:
            if np.isfinite(V).all():
                raise
            X = V          # eigh fails on some non-finite input: the test below raises
        g = X - Z
        g_norm = frobenius_norm(g)
        if not math.isfinite(g_norm):
            raise InvalidInputError("matrix has non-finite entries")
        if extrapolated and g_norm > accepted_norm:
            counters["extrapolations_rejected"] += 1
            y, extrapolated = accel.F, False
            accel.clear()
        else:
            counters["extrapolations_accepted"] += extrapolated
            accepted_norm = g_norm
            y, extrapolated = accel.step(y + g, g)
            if it % _CHECK_EVERY == 0:
                # the stop rule and the penalty test judge a plain step
                y, extrapolated = accel.F, False
        Z_prev = Z
        Z = project_set(y)
        trace.append(float(np.vdot(M, Z)))
        if it % _CHECK_EVERY:
            continue
        if len(trace) > _CHECK_EVERY:
            prev = trace[-1 - _CHECK_EVERY]
            if (abs(trace[-1] - prev) <= config.obj_tol * (1.0 + abs(trace[-1]))
                    and max(residuals(Z).values()) <= config.feas_tol):
                termination = "converged"
                iterations = it
                break
        # relative residuals (Wohlberg 2017), free of the scale of n and M;
        # a zero reference norm (X = Z = 0, or U = 0) leaves rho as it is
        primal_ref = max(frobenius_norm(X), frobenius_norm(Z))
        dual_ref = frobenius_norm(y - Z)
        if primal_ref == 0.0 or dual_ref == 0.0:
            continue
        primal = frobenius_norm(X - Z) / primal_ref
        dual = frobenius_norm(Z - Z_prev) / dual_ref
        if primal > _RHO_BALANCE * dual:
            scale = 2.0
        elif dual > _RHO_BALANCE * primal:
            scale = 0.5
        else:
            continue
        # the scaled dual U = y - Z follows the penalty; T changes with it
        rho, y = scale * rho, Z + (y - Z) / scale
        M_rho = M / rho
        counters["penalty_changes"] += 1
        accel.clear()
    Z_hat = project_psd(Z)
    report = SolveReport(
        solver="pierra",
        iterations=iterations,
        termination=termination,
        objective=float(np.vdot(M, Z_hat)),
        objective_trace=np.asarray(trace),
        residuals=residuals(Z_hat),
        state=(Z, y - Z, rho),
        counters={**counters, "rho": rho},
    )
    return Z_hat, report


def community_atoms(lam: float) -> list[ConstraintAtom]:
    if lam <= 0:
        raise InvalidInputError("lam must be > 0")
    return [nonneg(), diag_leq_one(), total_sum_leq(lam)]


def signed_atoms() -> list[ConstraintAtom]:
    return [box01(), diag_eq_one()]


def unit_diag_atoms() -> list[ConstraintAtom]:
    return [diag_eq_one()]


def is_unit_diagonal(atoms: Sequence[ConstraintAtom]) -> bool:
    """Whether the atoms name exactly the unit-diagonal set {Z psd, diag(Z) = 1},
    the set :func:`bm_solve` solves over."""
    return {a.kind for a in atoms} == {a.kind for a in unit_diag_atoms()}


def pierra_signed(A: np.ndarray, alpha: float):
    """Signed clustering program: maximize <A - alpha*J, Z> over
    {Z psd, Z in [0,1], diag(Z) = 1} at the default :class:`PierraConfig`."""
    A = np.asarray(A, dtype=float)
    M = A - alpha * np.ones_like(A)     # pierra_solve checks it
    return pierra_solve(M, signed_atoms())


# ---------------------------------------------------------------------------
# low-rank factorization on the product of spheres / circles

_BM_START_RANK = 4            # columns a restart starts with
_BM_REFERENCE_WEIGHT = 0.85   # eta of the descent's Zhang-Hager reference value
# a factor has full column rank when the least eigenvalue of Y* Y exceeds
# this share of the largest
_FULL_RANK = 1e-8


def bm_rank(n: int) -> int:
    """Factorization rank ceil(sqrt(2n)), above the barrier where every local
    optimum of the factorized program is global for almost all objectives;
    the most columns an adaptive :func:`bm_solve` grows to."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return int(np.ceil(np.sqrt(2.0 * n)))


def _retract_rows(Y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(Y, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return Y / norms


def _tangent(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project X onto the tangent space at Y (drop each row's radial part)."""
    radial = np.real(np.sum(X * Y.conj(), axis=1, keepdims=True))
    return X - radial * Y


def _bm_objective(Y: np.ndarray, CY: np.ndarray) -> float:
    return float(np.real(np.vdot(Y, CY)))


def _bm_descend(C, Y, grad_tol, max_iters, step0, trace, counters):
    """Minimize ``<C, Y Y*>`` by Riemannian gradient descent with
    Barzilai-Borwein trial steps and the nonmonotone line search of Zhang &
    Hager (2004): each trial is backtracked until it passes the Armijo test,
    with a strict decrease, against a reference value, the mean of the
    accepted values with weights that fall by ``_BM_REFERENCE_WEIGHT`` per
    step.  A trial whose first-order decrease ``t ||G||^2`` is below
    ``n eps (1 + |value|)``, a bound on the objective's roundoff, must
    instead decrease the value itself, and if it does not, no smaller step
    is tried: at that floor the values differ by noise.

    Stops once the gradient norm is at most grad_tol, or when no step
    passes or max_iters iterations have run (returning the best point
    seen); returns ``(Y, CY, value, iterations)``.  Appends the objective at
    the start and at every accepted step to trace, and counts every
    evaluation of the objective in ``counters["evaluations"]``."""
    n = Y.shape[0]
    CY = C @ Y
    value = _bm_objective(Y, CY)
    counters["evaluations"] += 1
    trace.append(value)
    G = _tangent(Y, 2.0 * CY)
    best = (Y, CY, value)
    reference, weight = value, 1.0
    roundoff = n * np.finfo(float).eps
    t = step0
    for it in range(1, max_iters + 1):
        sq = float(np.real(np.vdot(G, G)))
        if np.sqrt(sq) <= grad_tol:
            return Y, CY, value, it
        floor = roundoff * (1.0 + abs(value))
        passed = False
        for _ in range(60):
            Y_new = _retract_rows(Y - t * G)
            CY_new = C @ Y_new
            v_new = _bm_objective(Y_new, CY_new)
            counters["evaluations"] += 1
            if t * sq <= floor:
                passed = v_new < value
                break
            if v_new < reference and v_new <= reference - 1e-4 * t * sq:
                passed = True
                break
            t *= 0.5
        if not passed:
            break
        G_new = _tangent(Y_new, 2.0 * CY_new)
        s, d = Y_new - Y, G_new - G
        sd = abs(float(np.real(np.vdot(s, d))))
        t = float(np.real(np.vdot(s, s))) / sd if sd > 0 else 2.0 * t
        Y, CY, value, G = Y_new, CY_new, v_new, G_new
        trace.append(value)
        kept = _BM_REFERENCE_WEIGHT * weight
        weight = kept + 1.0
        reference = (kept * reference + value) / weight
        if value < best[2]:
            best = (Y, CY, value)
    return (*best, it)


def _certificate(C, Y, CY, target):
    """Dual certificate of ``min <C, Z>`` over {Z psd, diag(Z) = 1} at Z = Y Y*.

    With lam = Re diag(C Z), ``S = C - Diag(lam)`` is dual feasible once it
    is psd, so ``n * max(0, -lambda_min(S))`` bounds the gap between
    ``<C, Z>`` and the optimum; a roundoff allowance ``slack`` is added to
    ``-lambda_min`` so that roundoff cannot certify.  First Cholesky factors,
    with ``slack = n * eps * ||S||_F`` (never below ``n * eps * ||S||_2``)
    and only when ``2 n slack <= target``: a factor of ``S + slack I``
    shows ``lambda_min(S) >= -slack``, so the gap is at most ``2 n slack``;
    failing that, a factor of ``S + tau I`` with ``tau = target / (2 n)``
    (finite targets only) bounds it by ``n (tau + slack) <= target``.  This
    second factor settles the descents that stop with ``lambda_min(S)`` a
    little below ``-slack``, as on real Gaussian objectives.  Otherwise one
    ``eigh(S)`` gives the exact ``n * max(0, slack - lambda_min(S))`` with
    ``slack = n * eps * ||S||_2`` (the eigensolver's backward error), and
    its eigenvectors with eigenvalues below ``-slack`` (the bottom one at
    least), in ascending order, are where ``_escape`` steps.

    An exactly zero S (a zero objective, for one) is psd as it stands, and
    certifies a zero gap with no factor.

    Returns ``(gap, V)``: V is None when no eigh was needed."""
    n = C.shape[0]
    lam = np.real(np.sum(CY * Y.conj(), axis=1))
    S = C - np.diag(lam)
    eps = np.finfo(float).eps
    slack = n * eps * frobenius_norm(S)
    if slack == 0.0:    # S = 0
        return 0.0, None
    if 2 * n * slack <= target:
        if has_cholesky(S, slack):
            return 2 * n * slack, None
        tau = target / (2 * n)
        if np.isfinite(tau) and has_cholesky(S, tau):
            return n * (tau + slack), None
    w, V = np.linalg.eigh(S)
    slack = n * eps * max(abs(w[0]), abs(w[-1]))
    return n * max(0.0, slack - w[0]), V[:, :max(1, int(np.sum(w < -slack)))]


def _escape(C, Y, V, value, cap, counters):
    """Step from a point that the certificate rejects, along the bottom
    eigenvectors V of S (see ``_certificate``); returns the new factor, or
    None when no step decreases the objective.

    A factor with full column rank and fewer than ``cap`` columns grows: it
    gains up to ``min(p, cap - p)`` columns along the leading columns of V,
    the block form of the rank increment of Journee, Bach, Absil &
    Sepulchre (2010), and the objective drops like ``t^2`` times the sum of
    their eigenvalues.  Any other factor steps along ``v u*``: v the bottom
    eigenvector, u the right singular vector of Y with the least singular
    value (a null vector of Y when Y is rank deficient, where the objective
    drops like ``t^2 lambda_min(S)``).  Backtracks from t = 1 to the first
    strict decrease, counting every trial in ``counters["evaluations"]``."""
    n, p = Y.shape
    w, U = np.linalg.eigh(Y.conj().T @ Y)
    if p < cap and w[0] > _FULL_RANK * w[-1]:
        k = min(p, cap - p, V.shape[1])
        Y = np.hstack([Y, np.zeros((n, k), Y.dtype)])
        D = np.zeros_like(Y)
        D[:, p:] = V[:, :k]
    else:
        D = _tangent(Y, np.outer(V[:, 0], U[:, 0].conj()))
    t = 1.0
    for _ in range(60):
        Y_new = _retract_rows(Y + t * D)
        counters["evaluations"] += 1
        if _bm_objective(Y_new, C @ Y_new) < value:
            return Y_new
        t *= 0.5
    return None


def _bm_restart(C, Y, cap, config, grad_tol, step0, trace, counters):
    """Descend from Y, then certify, or escape or grow up to ``cap`` columns
    and descend again; every descent takes at least one iteration of the
    ``config.max_iters`` budget.

    Returns ``(Y, value, gap, iterations, termination)``: "converged" once
    the gap bound is at most ``config.grad_tol * (1 + |value|)``,
    "max_iters" when the budget is spent, "stalled" when no escape
    decreases the objective.  Tallies certificates, escapes, rank increases
    and evaluations in ``counters``."""
    budget = config.max_iters
    while True:
        Y, CY, value, its = _bm_descend(C, Y, grad_tol, budget, step0, trace, counters)
        budget -= its
        target = config.grad_tol * (1.0 + abs(value))
        gap, V = _certificate(C, Y, CY, target)
        counters["certificates_cholesky" if V is None else "certificates_eigh"] += 1
        if gap <= target:
            return Y, value, gap, config.max_iters - budget, "converged"
        if budget <= 0:
            return Y, value, gap, config.max_iters - budget, "max_iters"
        Y_next = _escape(C, Y, V, value, cap, counters)
        if Y_next is None:
            return Y, value, gap, config.max_iters - budget, "stalled"
        counters["rank_increases" if Y_next.shape[1] > Y.shape[1] else "escapes"] += 1
        Y = Y_next


def bm_solve(M: np.ndarray, sense: str = "max", config: BmConfig | None = None):
    """Optimize ``Re <M, Y Y*>`` over unit-norm rows of an n x p factor Y.

    The feasible Gram matrices are exactly {Z psd, diag(Z) = 1}; complex
    objectives run on the product of unit circles, real ones on unit
    spheres.  Each restart starts from a seeded random Y and runs
    Barzilai-Borwein gradient descent with a nonmonotone line search.  The
    stop is a dual certificate:
    with ``S = Diag(Re diag(M Z)) - M`` (``M -> -M`` for ``sense="min"``)
    the objective is within ``n * max(0, -lambda_min(S))`` of the optimum,
    and the solve is ``converged`` once that gap is at most
    ``grad_tol * (1 + |objective|)``.  A Cholesky factor of S plus a
    roundoff shift bounds the gap by ``2 n^2 eps ||S||_F`` without an
    eigensolver; where that factor does not exist, a factor of
    ``S + target / (2 n) I`` bounds it by at most the target.  Only when
    neither settles the stop does ``eigh(S)`` give the exact gap.  A
    restart that is not certified
    escapes along the bottom eigenvector of S and descends again; the
    descents and escapes of one restart share its ``max_iters`` budget.

    Each restart starts with ``min(4, bm_rank(n))`` columns, and a factor
    that the certificate rejects while it has full column rank (a
    rank-deficient one escapes instead) gains columns along the bottom
    eigenvectors of S, up to twice its rank and never beyond the cap
    ``bm_rank(n)``, where the guarantee that every local optimum is global
    holds.  At most ``config.restarts`` restarts run: the first certified
    one ends the solve, otherwise the best one wins, ties to the lowest
    index.

    Returns ``(Y, Z_hat, SolveReport)`` with ``Z_hat = Y @ Y*``; the
    report's ``gap`` is the bound of the returned point, and its
    ``counters`` hold the restarts run, the escapes and rank increases
    taken, the certificates settled by a Cholesky factor and by ``eigh``,
    the objective evaluations and the final ``rank`` (Y's columns).
    """
    if sense not in ("max", "min"):
        raise InvalidInputError("sense must be 'max' or 'min'")
    config = config or BmConfig()
    M = symmetrize(M, "objective")
    n = M.shape[0]
    cap = bm_rank(n)
    p = min(_BM_START_RANK, cap)
    sgn = 1.0 if sense == "min" else -1.0
    C = sgn * M
    scale = frobenius_norm(M)
    grad_tol = config.grad_tol * (1.0 + scale)
    step0 = 1.0 / (2.0 * scale) if scale > 0 else 1.0
    complex_valued = np.iscomplexobj(M)

    root = np.random.SeedSequence(config.seed, spawn_key=(0,))
    counters = dict.fromkeys(("restarts", "escapes", "rank_increases", "evaluations",
                              "certificates_cholesky", "certificates_eigh"), 0)
    best = None
    total_iters = 0
    for child in root.spawn(config.restarts):
        rng = np.random.default_rng(child)
        if complex_valued:
            Y = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        else:
            Y = rng.standard_normal((n, p))
        trace = []
        counters["restarts"] += 1
        Y, value, gap, its, termination = _bm_restart(
            C, _retract_rows(Y), cap, config, grad_tol, step0, trace, counters)
        total_iters += its
        if best is None or value < best[1]:
            best = (Y, value, gap, termination, trace)
        if termination == "converged":
            break

    Y, value, gap, termination, trace = best
    Z = symmetrize(Y @ Y.conj().T)
    diag_err = float(np.max(np.abs(np.diagonal(Z) - 1.0)))
    report = SolveReport(
        solver="bm",
        iterations=total_iters,
        termination=termination,
        objective=float(np.real(np.vdot(M, Z))),
        objective_trace=np.asarray([sgn * v for v in trace]),
        residuals={"0:psd": 0.0, "1:diag_eq_one": diag_err},
        gap=gap,
        counters={**counters, "rank": Y.shape[1]},
    )
    return Y, Z, report
