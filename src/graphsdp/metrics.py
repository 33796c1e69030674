"""Quality metrics, curvature checks, closed-form bounds and the empirical
fixed-point complexity estimator.

The bound evaluators report conservative theoretical quantities; the
fixed-point estimator measures the same radius empirically by solving
localized noise-maximization programs over Monte Carlo replicates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _rng
from .linalg import InvalidInputError, check_square, check_value, symmetrize
from .solvers import (
    ConstraintAtom,
    affine_halfspace,
    is_unit_diagonal,
    l1_ball_around,
    l2_ball_around,
    solve,
    solve_localized,
)

__all__ = [
    "K_GROTHENDIECK",
    "ari",
    "signed_error_rate",
    "sync_mse",
    "phase_aligned_l2",
    "cut_value",
    "brute_force_maxcut",
    "excess_risk",
    "curvature_check_sync",
    "maxcut_rstar_bound",
    "gv_rstar_bound",
    "sync_excess_bound",
    "BOUNDS",
    "BoundReport",
    "FixedPointEstimate",
    "estimate_fixed_point",
]

# Published upper bound on the real Grothendieck constant; any valid upper
# bound keeps the evaluated bounds conservative.
K_GROTHENDIECK = 1.7822


def ari(a, b) -> float:
    """Adjusted Rand Index between two partitions (permutation-model form)."""
    la, lb = np.asarray(a, dtype=int), np.asarray(b, dtype=int)
    if la.shape != lb.shape:
        raise InvalidInputError("partition length mismatch")
    n = la.size
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    contingency = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(contingency, (ia, ib), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def signed_error_rate(labels, A_com: np.ndarray) -> float:
    """Fraction of intra-cluster negative-edge and inter-cluster positive-edge
    violations against the complete +-1 ground-truth matrix, normalized by n^2.

    Both counts run over ordered pairs i != j: a same-cluster pair violates
    on a negative entry, a cross-cluster pair on a positive one.  Self-loops
    never count as violations.
    """
    labels = np.asarray(labels, dtype=int)
    A_com = check_square(np.asarray(A_com, dtype=float))
    n = A_com.shape[0]
    if labels.shape != (n,):
        raise InvalidInputError("labels length mismatch")
    off = A_com.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(np.abs(off[np.abs(off) > 0]) != 1.0):
        raise InvalidInputError("ground-truth matrix must be +-1 off the diagonal")
    same = labels[:, None] == labels[None, :]
    violations = np.count_nonzero(off[same] < 0) + np.count_nonzero(off[~same] > 0)
    return float(violations) / n**2


def _rotation(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def sync_mse(est_phases: np.ndarray, true_phases: np.ndarray) -> float:
    """Registration-invariant mean squared error between angle sets.

    Angles map to their 2x2 rotation matrices h_i; with
    Q = (1/n) sum_i hhat_i h_i', the optimally aligned error is
    4 - 2 (sigma_1(Q) + sigma_2(Q)).
    """
    est = np.asarray(est_phases, dtype=float)
    true = np.asarray(true_phases, dtype=float)
    if est.shape != true.shape:
        raise InvalidInputError("phase vector length mismatch")
    h_est = _rotation(est)
    h_true = _rotation(true)
    Q = np.einsum("nij,nkj->ik", h_est, h_true) / est.size
    s = np.linalg.svd(Q, compute_uv=False)
    return max(0.0, float(4.0 - 2.0 * (s[0] + s[1])))


def phase_aligned_l2(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    """min over unit-modulus z of ||x_hat - z x_star||_2 (closed form)."""
    x_hat = np.asarray(x_hat)
    x_star = np.asarray(x_star)
    if x_hat.shape != x_star.shape:
        raise InvalidInputError("vector length mismatch")
    inner = complex(np.sum(x_hat * x_star.conj()))
    z = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(x_hat - z * x_star))


def cut_value(A0: np.ndarray, x: np.ndarray):
    """cut(G, x) = (1/4) sum_ij A0_ij (1 - x_i x_j) = (sum(A0) - x' A0 x) / 4.

    A 2-d ``x`` holds one sign vector per row and gets one cut value per row.
    """
    A0 = check_square(np.asarray(A0, dtype=float))
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != A0.shape[0]:
        raise InvalidInputError("sign vector length mismatch")
    cuts = 0.25 * (np.sum(A0) - np.sum((x @ A0) * x, axis=-1))
    return float(cuts) if x.ndim == 1 else cuts


def brute_force_maxcut(A0: np.ndarray):
    """Exhaustive maximum cut over all 2^(n-1) sign patterns (x_1 fixed to +1).

    Deterministic: the first maximizer in lexicographic pattern order wins.
    Refuses n > 20.
    """
    A0 = check_square(np.asarray(A0, dtype=float))
    n = A0.shape[0]
    if n > 20:
        raise InvalidInputError("brute force limited to n <= 20")
    best_val = -np.inf
    best_x = None
    n_free = n - 1
    chunk = 1 << min(n_free, 14)
    bits = np.arange(n_free)
    for start in range(0, 1 << n_free, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n_free))
        X = np.ones((masks.size, n))
        X[:, 1:] = 1.0 - 2.0 * ((masks[:, None] >> bits[None, :]) & 1)
        vals = cut_value(A0, X)
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_x = X[local].astype(int)
    return best_val, best_x


def excess_risk(expected_obj: np.ndarray, Z_star: np.ndarray, Z: np.ndarray) -> float:
    """<expected objective, Z* - Z>; the caller supplies the problem's
    population objective matrix (shifted for signed clustering)."""
    expected_obj = np.asarray(expected_obj)
    if expected_obj.shape != np.asarray(Z).shape:
        raise InvalidInputError("dimension mismatch")
    return float(np.real(np.vdot(expected_obj, np.asarray(Z_star) - np.asarray(Z))))


def curvature_check_sync(EA: np.ndarray, Z_star: np.ndarray, Z: np.ndarray):
    """Decompose the synchronization excess risk into its curvature terms.

    Returns ``(lhs, rhs_l2, extra_l1)`` where ``lhs = <EA, Z* - Z>``,
    ``rhs_l2 = theta ||Z* - Z||_2^2`` and
    ``extra_l1 = theta || |Z*|^2 - |Z|^2 ||_1`` with theta half the modulus
    of the expected off-diagonal entry.  For feasible Z the identity
    ``lhs = rhs_l2 + extra_l1`` holds exactly.
    """
    EA = check_square(np.asarray(EA))
    Z = np.asarray(Z)
    Z_star = np.asarray(Z_star)
    n = EA.shape[0]
    if n < 2:
        raise InvalidInputError("need n >= 2 to infer the noise attenuation")
    if np.max(np.abs(np.diagonal(Z) - 1.0)) > 1e-8:
        raise InvalidInputError("Z must have unit diagonal")
    theta = float(np.abs(EA[0, 1])) / 2.0
    lhs = float(np.real(np.vdot(EA, Z_star - Z)))
    rhs_l2 = theta * float(np.linalg.norm(Z_star - Z) ** 2)
    extra_l1 = theta * float(np.sum(np.abs(np.abs(Z_star) ** 2 - np.abs(Z) ** 2)))
    return lhs, rhs_l2, extra_l1


# ---------------------------------------------------------------------------
# closed-form bound evaluators


def maxcut_rstar_bound(n: int, p: float) -> float:
    """High-probability localization radius for the masked max-cut program:
    2n sqrt((2 log 4)(1-p)(n-1)/p) + 8n log(4)/3."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidInputError("p must be in (0, 1]")
    log4 = np.log(4.0)
    return float(2.0 * n * np.sqrt(2.0 * log4 * (1.0 - p) * (n - 1) / p) + 8.0 * n * log4 / 3.0)


def gv_rstar_bound(n: int, delta_prob: float) -> float:
    """Global (cut-norm) localization radius for community detection:
    (8/3) K_G (2n log 2 + log(1/Delta))."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0.0 < delta_prob < 1.0):
        raise InvalidInputError("delta_prob must be in (0, 1)")
    return float((8.0 / 3.0) * K_GROTHENDIECK * (2.0 * n * np.log(2.0) + np.log(1.0 / delta_prob)))


def sync_excess_bound(n: int, sigma: float, eps: float):
    """Synchronization excess-risk bound (128/3) sqrt(eps) sigma^4 n(n-1)/2,
    with a validity flag for the regime sigma^2 <= log(eps * n^4)."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must be in (0, 1)")
    if sigma < 0:
        raise InvalidInputError("sigma must be >= 0")
    N = n * (n - 1) / 2.0
    bound = float((128.0 / 3.0) * np.sqrt(eps) * sigma**4 * N)
    valid = np.log(eps * float(n) ** 4) >= sigma**2
    return bound, bool(valid)


@dataclass(frozen=True)
class BoundReport:
    formula: str
    value: float
    inputs: dict
    valid: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {"formula": self.formula, "value": float(self.value),
               "inputs": {k: self.inputs[k] for k in sorted(self.inputs)}}
        if self.valid is not None:
            out["valid"] = self.valid
        return out


# each formula's evaluator and the inputs it takes, in argument order
BOUNDS = {
    "maxcut_rstar": (maxcut_rstar_bound, ("n", "p")),
    "gv_rstar": (gv_rstar_bound, ("n", "delta_prob")),
    "sync_excess": (sync_excess_bound, ("n", "sigma", "eps")),
}


def bound_report(formula: str, **inputs) -> BoundReport:
    """``formula`` on the inputs ``BOUNDS`` names for it; the others are ignored."""
    if formula not in BOUNDS:
        raise InvalidInputError(f"unknown bound formula '{formula}'")
    evaluate, names = BOUNDS[formula]
    missing = [k for k in names if inputs.get(k) is None]
    if missing:
        raise InvalidInputError(f"bound {formula} needs {missing}")
    check_value("n", inputs["n"], int)
    inputs = {k: inputs[k] for k in names}
    value = evaluate(*inputs.values())
    # sync_excess also returns its validity flag
    value, valid = value if isinstance(value, tuple) else (value, None)
    return BoundReport(formula, value, inputs, valid=valid)


# ---------------------------------------------------------------------------
# empirical fixed-point complexity estimator

LOCALIZATIONS = ("excess_risk", "l1", "l2")


@dataclass(frozen=True)
class FixedPointEstimate:
    """Empirical localization radius and the quantile curve behind it.

    ``r_star`` is a certified upper bound on the fixed point from the
    unlocalized solves (None off the unit-diagonal set), and exact to the
    solves' gaps when ``r_star_exact``; ``sweeps`` counts the splitting
    iterations of the localized solves (on the interior-point route, those
    of the radii it left uncertified), ``ipm_iterations`` the
    interior-point steps of the localized solves, ``ipm_fallbacks`` the
    radii that splitting solved again after an uncertified interior-point
    solve, and ``bm_solves`` the unlocalized solves run.
    """

    r_hat: float
    delta: float
    n_mc: int
    quantile_curve: tuple          # pairs (r, (1-delta)-quantile of the sup)
    n_effective: int
    n_flagged: int
    unresolved: bool
    unreliable: bool
    r_star: Optional[float]
    r_star_exact: bool
    sweeps: int
    ipm_iterations: int
    ipm_fallbacks: int
    bm_solves: int

    def to_dict(self) -> dict:
        return {
            "r_hat": float(self.r_hat),
            "delta": float(self.delta),
            "n_mc": int(self.n_mc),
            "n_effective": int(self.n_effective),
            "n_flagged": int(self.n_flagged),
            "unresolved": self.unresolved,
            "unreliable": self.unreliable,
            "r_star": None if self.r_star is None else float(self.r_star),
            "r_star_exact": self.r_star_exact,
            "sweeps": int(self.sweeps),
            "ipm_iterations": int(self.ipm_iterations),
            "ipm_fallbacks": int(self.ipm_fallbacks),
            "bm_solves": int(self.bm_solves),
            "quantile_curve": [[float(r), float(q)] for r, q in self.quantile_curve],
        }


def _localization_atom(kind: str, EA, Z_star, r: float) -> ConstraintAtom:
    if kind == "excess_risk":
        # <EA, Z* - Z> <= r  rewritten as  <-EA, Z> <= r - <EA, Z*>
        bound = r - float(np.real(np.vdot(EA, Z_star)))
        return affine_halfspace(-np.asarray(EA), bound)
    if kind == "l1":
        return l1_ball_around(Z_star, r)
    if kind == "l2":
        # locality {||Z - Z*||_2^2 <= r}: Frobenius ball of radius sqrt(r)
        return l2_ball_around(Z_star, float(np.sqrt(r)))
    raise InvalidInputError(f"unknown localization '{kind}'")


def _locality_distance(kind: str, EA, Z_star, Z) -> float:
    """The least radius whose locality ``kind`` (see ``_localization_atom``) holds Z."""
    if kind == "excess_risk":
        return excess_risk(EA, Z_star, Z)
    D = np.asarray(Z_star) - Z
    return float(np.abs(D).sum()) if kind == "l1" else float(np.real(np.vdot(D, D)))


def estimate_fixed_point(
    generator: Callable[[np.random.Generator], tuple],
    atoms: Sequence[ConstraintAtom],
    localization: str,
    delta_prob: float,
    n_mc: int,
    r_grid: Sequence[float],
    seed: int = 0,
) -> FixedPointEstimate:
    """Monte Carlo estimate of the localization fixed point.

    ``generator(rng)`` must yield one replicate ``(A, EA, Z_star)``.  For
    each replicate and each radius in the ascending grid, the localized
    noise supremum ``h(r) = sup <A - EA, Z - Z*>`` over the constraint set
    intersected with the chosen locality is bounded by a certified solve;
    the curve of empirical (1-delta) quantiles is then scanned for the
    first radius dominating twice the supremum (``r_hat``, a grid point).
    Replicates whose inner solve does not converge are excluded and
    counted; above 10% exclusions the estimate is flagged unreliable, and a
    grid that never resolves is flagged unresolved.

    Each replicate's radii are solved by :func:`solvers.solve_localized`
    as nested cuts of the set, anchored at Z*, a point of every locality;
    the set's shape picks the solver there.  The unit-diagonal set under
    the ``excess_risk`` half-space, which has n + 1 linear constraints,
    takes one interior-point stack per replicate (``ipm_iterations``), and
    a radius it leaves uncertified near 1e-3 is solved again by splitting
    (``ipm_fallbacks``), so no radius certifies less often than on the
    splitting route alone.  Every other set and locality takes splitting
    solves warm-started along the ascending grid (``sweeps``).  Each solve
    stops on a certified gap of at most 1e-6 (1 + |q|), q the supremum read
    off Z*, and each solved radius carries its certified upper bound
    ``objective + gap`` (less the offset ``<A - EA, Z*>``): the curve holds
    upper bounds on the suprema, within that gap of them.

    When the atoms are exactly the unit-diagonal set, each replicate first
    solves its unlocalized program by :func:`solvers.solve`, certified BM
    at the default config: value s with gap g, and maximizer Z_u at
    locality distance e from Z*.  Z_u is feasible for every radius r >= e,
    so h(r) lies in [s, s + g] there, and such radii are not solved: they
    carry the upper value s + g.  An uncertified BM solve skips nothing.
    Over the effective replicates, with Q the curve's order statistic:

    * h(r) <= s + g for every r, so q(r) <= Q(s + g), and every
      r >= 2 Q(s + g) passes the test: ``r_star = 2 Q(s + g)`` bounds the
      fixed point r* = inf{r > 0 : q(r) <= r/2} from above.
    * h is the value of a convex program whose right-hand side is r, so it
      is concave, and h(0) >= 0 as Z* is feasible.  With R = 2 Q(s) above
      every e, each r < R has h(r) >= min(r/e, 1) s >= (r/R) s, strictly
      where s > 0, so q(r) > (r/R) Q(s) = r/2: no radius below R passes,
      and r* lies in [2 Q(s), r_star].  ``r_star_exact`` records this test,
      which needs every effective replicate's BM solve certified.

    Other sets solve every radius and leave ``r_star`` None.
    """
    if localization not in LOCALIZATIONS:
        raise InvalidInputError(f"localization must be one of {LOCALIZATIONS}")
    if not (0.0 < delta_prob < 1.0):
        raise InvalidInputError("delta_prob must be in (0, 1)")
    if n_mc < 1:
        raise InvalidInputError("n_mc must be >= 1")
    r_grid = [float(r) for r in r_grid]
    if not r_grid or any(r <= 0 for r in r_grid) or sorted(r_grid) != r_grid:
        raise InvalidInputError("r_grid must be positive and sorted ascending")

    unit_diagonal = is_unit_diagonal(atoms)
    sups = []
    unlocalized = []    # (s, s + g, e) of each effective replicate
    n_flagged = bm_solves = 0
    work = Counter()
    for rep in range(n_mc):
        rng = _rng.stream(seed, _rng.STREAM_NOISE, rep)
        A, EA, Z_star = generator(rng)
        W = symmetrize(np.asarray(A) - np.asarray(EA))
        offset = float(np.real(np.vdot(W, Z_star)))
        slack_from = np.inf    # the least radius past which the locality is slack
        if unit_diagonal:
            Z_u, bm = solve(W, atoms)
            bm_solves += 1
            lower = bm.objective - offset
            upper = lower + bm.gap
            if bm.converged:
                slack_from = _locality_distance(localization, EA, Z_star, Z_u)
        # the grid ascends, so the radii to solve are the ones before slack_from
        cuts = [_localization_atom(localization, EA, Z_star, r) for r in r_grid if r < slack_from]
        reports, tally = solve_localized(W, atoms, cuts, Z_star)
        work.update(tally)
        if reports and not reports[-1].converged:
            n_flagged += 1
            continue
        row = []
        for k in range(len(r_grid)):
            value = reports[k].objective + reports[k].gap - offset if k < len(cuts) else upper
            # nested suprema: enforce monotonicity along the grid
            row.append(max(value, row[-1]) if row else value)
        sups.append(row)
        if unit_diagonal:
            unlocalized.append((lower, upper, slack_from))

    n_effective = len(sups)
    if n_effective == 0:
        raise InvalidInputError("every replicate was flagged; no estimate available")
    idx = int(np.ceil((1.0 - delta_prob) * n_effective))
    idx = min(max(idx, 1), n_effective)

    def quantile(table):
        return np.sort(np.asarray(table), axis=0)[idx - 1]

    quantiles = quantile(sups)
    r_star, r_star_exact = None, False
    if unit_diagonal:
        lower, upper, slack_from = np.asarray(unlocalized).T
        r_star = 2.0 * float(quantile(upper))
        r_star_exact = bool(2.0 * quantile(lower) > slack_from.max())

    r_hat = None
    for r, q in zip(r_grid, quantiles):
        if q <= r / 2.0:
            r_hat = r
            break
    unresolved = r_hat is None
    if unresolved:
        r_hat = r_grid[-1]
    return FixedPointEstimate(
        r_hat=float(r_hat),
        delta=float(delta_prob),
        n_mc=int(n_mc),
        quantile_curve=tuple((r, float(q)) for r, q in zip(r_grid, quantiles)),
        n_effective=n_effective,
        n_flagged=n_flagged,
        unresolved=unresolved,
        unreliable=n_flagged > 0.1 * n_mc,
        r_star=r_star,
        r_star_exact=r_star_exact,
        sweeps=work["sweeps"],
        ipm_iterations=work["ipm_iterations"],
        ipm_fallbacks=work["ipm_fallbacks"],
        bm_solves=bm_solves,
    )
