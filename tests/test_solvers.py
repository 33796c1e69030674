from collections import Counter

import numpy as np
import pytest

from graphsdp import solvers
from graphsdp.linalg import InvalidInputError, frobenius_norm, project_psd, psd_residual, symmetrize
from graphsdp.metrics import estimate_fixed_point
from graphsdp.models import (
    SsbmParams,
    SyncParams,
    gen_bipartite_perturbed,
    gen_sbm,
    gen_ssbm,
    gen_sync,
    sample_feasible,
)
from graphsdp.solvers import (
    BmConfig,
    ConstraintAtom,
    PierraConfig,
    SolveReport,
    _Anderson,
    _bm_descend,
    _bm_objective,
    _bm_restart,
    _certificate,
    _escape,
    _set_projection,
    affine_halfspace,
    bm_rank,
    bm_solve,
    box01,
    community_atoms,
    diag_eq_one,
    diag_leq_one,
    l1_ball_around,
    l2_ball_around,
    nonneg,
    pierra_signed,
    pierra_solve,
    signed_atoms,
    total_sum_leq,
    unit_diag_atoms,
)


def all_atoms_for_tests(n, rng):
    center = rng.standard_normal((n, n))
    center = (center + center.T) / 2
    normal = rng.standard_normal((n, n))
    normal = (normal + normal.T) / 2
    return [
        nonneg(),
        box01(),
        diag_leq_one(),
        diag_eq_one(),
        total_sum_leq(3.0),
        affine_halfspace(normal, 1.5),
        l1_ball_around(center, 2.0),
        l2_ball_around(center, 1.3),
    ]


def fix_rank(monkeypatch, k):
    """Hold every factor of ``bm_solve`` at k columns: it starts at k and
    the cap is k."""
    monkeypatch.setattr(solvers, "bm_rank", lambda n: k)
    monkeypatch.setattr(solvers, "_BM_START_RANK", k)


def cold_start(M, epsilon):
    """A warm start equal to a cold solve's, at the initial step ``epsilon``."""
    return np.zeros(np.shape(M)), np.zeros(np.shape(M)), 1.0 / epsilon


def project_atom(atom, Z):
    """The exact projection onto one atom: the one-atom case of the set
    projection."""
    return _set_projection([atom], Z)(Z)


class TestAtomProjections:
    def test_box01_clamps(self):
        Z = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(project_atom(box01(), Z), np.eye(2))

    def test_nonneg_clamps_every_entry(self):
        Z = np.array([[-2.0, 0.5], [-1.0, 3.0]])
        assert np.array_equal(project_atom(nonneg(), Z), np.array([[0.0, 0.5], [0.0, 3.0]]))

    def test_diag_eq_one(self):
        assert np.array_equal(project_atom(diag_eq_one(), np.diag([3.0, 5.0])), np.eye(2))

    def test_diag_leq_one_leaves_offdiag(self):
        Z = np.array([[3.0, 0.4], [0.4, 0.2]])
        out = project_atom(diag_leq_one(), Z)
        assert out[0, 0] == 1.0 and out[1, 1] == 0.2 and out[0, 1] == 0.4

    def test_total_sum_projection_matches_halfspace_oracle(self):
        # sum(J2) = 4 > 2: the half-space {<J, Z> <= lam} has projection
        # Z - (sum - lam)/n^2 * J; verify optimality via the KKT form.
        Z = np.ones((2, 2))
        out = project_atom(total_sum_leq(2.0), Z)
        assert np.allclose(out, np.full((2, 2), 0.5))
        oracle = project_atom(affine_halfspace(np.ones((2, 2)), 2.0), Z)
        assert np.allclose(out, oracle, atol=1e-12)

    def test_l1_ball_projection_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        center = np.zeros((3, 3))
        atom = l1_ball_around(center, 1.0)
        Z = rng.standard_normal((3, 3))
        out = project_atom(atom, Z)
        assert abs(np.abs(out).sum() - 1.0) <= 1e-9
        # oracle: projection minimizes distance among a dense sample of the ball
        best = None
        for _ in range(3000):
            cand = rng.standard_normal((3, 3))
            cand *= rng.uniform(0, 1.0) / max(np.abs(cand).sum(), 1e-12)
            d = frobenius_norm(cand - Z)
            best = d if best is None else min(best, d)
        assert frobenius_norm(out - Z) <= best + 1e-9

    def test_l2_ball_radius(self):
        atom = l2_ball_around(np.zeros((2, 2)), 1.0)
        Z = np.full((2, 2), 2.0)
        out = project_atom(atom, Z)
        assert abs(frobenius_norm(out) - 1.0) <= 1e-12

    @pytest.mark.parametrize("idx", range(1, 9))
    def test_idempotent_and_nonexpansive(self, idx):
        # each atom keeps seed 40 + idx; seed 40, the cone's, is test_linalg's
        # TestProjectPsd::test_idempotent_and_nonexpansive_on_its_draws
        rng = np.random.default_rng(40 + idx)
        atom = all_atoms_for_tests(4, rng)[idx - 1]
        for trial in range(5):
            Z = rng.standard_normal((4, 4))
            W = rng.standard_normal((4, 4))
            PZ, PW = project_atom(atom, Z), project_atom(atom, W)
            assert frobenius_norm(project_atom(atom, PZ) - PZ) <= 1e-12 * (1 + frobenius_norm(PZ))
            assert frobenius_norm(PZ - PW) <= frobenius_norm(Z - W) + 1e-12


def dykstra_oracle(atoms, V, passes=20_000):
    """Projection onto the intersection of the atoms, one atom at a time.
    Stops once a pass moves neither the point nor any increment: the point
    alone can stand still for a pass while the increments still move."""
    Z, increments = V, [np.zeros_like(V) for _ in atoms]
    for _ in range(passes):
        start = [Z] + increments
        for j, atom in enumerate(atoms):
            Y = Z + increments[j]
            Z = project_atom(atom, Y)
            increments[j] = Y - Z
        if all(frobenius_norm(a - b) <= 1e-15 for a, b in zip([Z] + increments, start)):
            break
    return Z


def _symmetric(n, rng):
    G = rng.standard_normal((n, n))
    return (G + G.T) / 2


def real_embedding(M):
    """``[[Re M, -Im M], [Im M, Re M]]``: a Hermitian M's real symmetric
    2n x 2n form.  Over the unit-diagonal set its optimum is twice M's: a
    complex feasible Z embeds the same way as a feasible point of value
    ``2 Re <M, Z>``, and a real optimum ``[[A, B], [B^T, D]]`` gives the
    complex feasible point ``(A + D)/2 + i (B^T - B)/2`` of half its value."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


# each of the constraint sets the library builds, from (n, rng); the
# half-spaces and balls are tight enough that random inputs violate them
LIBRARY_SETS = {
    "signed": lambda n, rng: signed_atoms(),
    "unit_diag": lambda n, rng: unit_diag_atoms(),
    "excess_risk": lambda n, rng: unit_diag_atoms() + [affine_halfspace(-_symmetric(n, rng), -1.0)],
    "community": lambda n, rng: community_atoms(2.0),
    # the fixed-point estimator's ball localizations around a feasible point
    "l1": lambda n, rng: signed_atoms() + [l1_ball_around(sample_feasible("signed", n, rng), 2.0)],
    "l2": lambda n, rng: signed_atoms() + [l2_ball_around(sample_feasible("signed", n, rng), 1.0)],
}


HERMITIAN_CASES = ("signed", "community", "excess_risk", "l1", "l2", "complex_unit_diag")


def hermitian_case(name):
    """(objective, atoms) of one small solve per kind of constraint set the
    library builds: the two problem sets, the three localizations of the
    fixed-point estimator and a complex unit-diagonal program, as its real
    embedding."""
    if name == "community":
        inst = gen_sbm(16, 2, 0.8, 0.1, seed=0)
        return inst.observed, community_atoms(float(np.sum(inst.oracle)))
    if name == "complex_unit_diag":
        return real_embedding(gen_sync(SyncParams(n=12, sigma=0.5), seed=1).observed), unit_diag_atoms()
    if name == "excess_risk":
        rng = np.random.default_rng(21)
        A0 = np.triu((rng.random((8, 8)) < 0.5).astype(float), 1)
        A0 = A0 + A0.T
        _, Z_star, _ = bm_solve(-A0, "max", BmConfig(seed=0))
        mask = np.triu(rng.random((8, 8)) < 0.8, 1)
        W = A0 - A0 * (mask + mask.T) / 0.8
        return W, unit_diag_atoms() + [affine_halfspace(A0, 3.0 + np.vdot(A0, Z_star))]
    inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=1)
    M = inst.observed - inst.params["alpha"]
    ball = {"signed": [], "l1": [l1_ball_around(np.eye(12), 20.0)],
            "l2": [l2_ball_around(np.eye(12), 4.0)]}[name]
    return M, signed_atoms() + ball


class TestSetProjection:
    @pytest.mark.parametrize("name", LIBRARY_SETS)
    def test_matches_dykstra_idempotent_nonexpansive(self, name):
        rng = np.random.default_rng(list(LIBRARY_SETS).index(name))
        n = 5
        atoms = LIBRARY_SETS[name](n, rng)
        project = _set_projection(atoms, np.zeros((n, n)))
        cut = 0     # points where the ball cuts the rest of the set
        for _ in range(5):
            V, W = (2.0 * _symmetric(n, rng) for _ in "VW")
            PV, PW = project(V), project(W)
            cut += not np.allclose(PV, dykstra_oracle(atoms[:-1], V))
            assert frobenius_norm(PV - dykstra_oracle(atoms, V)) <= 1e-10
            assert frobenius_norm(project(PV) - PV) <= 1e-12 * (1 + frobenius_norm(PV))
            assert frobenius_norm(PV - PW) <= frobenius_norm(V - W) + 1e-12
        assert cut >= 3 or not name.endswith(("l1", "l2"))
        # a solve over the set measures the cone's residual first, from its
        # eigenvalues, then each atom's on the returned matrix, as one
        # projection onto that atom alone does, with projections it built once
        Z, report = pierra_solve(V, atoms, PierraConfig(max_iters=2000))
        scale = 1.0 + frobenius_norm(Z)
        assert list(report.residuals) == ["0:psd"] + [f"{i}:{a.kind}" for i, a in enumerate(atoms, 1)]
        assert abs(report.residuals["0:psd"] - psd_residual(Z) / scale) <= 1e-12
        for (key, value), atom in zip(list(report.residuals.items())[1:], atoms):
            residual = frobenius_norm(project_atom(atom, Z) - Z)
            assert abs(value - residual / scale) <= 1e-12, key

    def test_newton_step_across_an_entry_range(self):
        # the first step from tau = 0 carries the diagonal from above its
        # bounds to below them; the multiplier is 9, not that step's 10
        V = np.array([[3.0, 10.0], [10.0, 3.0]])
        out = _set_projection(community_atoms(2.0), V)(V)
        assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert frobenius_norm(out - dykstra_oracle(community_atoms(2.0), V)) <= 1e-10

    def test_clip_matches_np_clip_to_the_bit(self):
        # signed zeros, infinities and NaN, against bounds that are zero of
        # either sign, finite, infinite or equal
        values = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, np.inf, -np.inf, np.nan])
        V = np.random.default_rng(0).choice(values, size=(12, 12))
        for lo, hi in ((0.0, 1.0), (-0.0, 0.0), (-np.inf, np.inf), (1.0, 1.0), (-np.inf, -0.0)):
            lo, hi = np.full(V.shape, lo), np.full(V.shape, hi)
            assert solvers._clip(V, lo, hi).tobytes() == np.clip(V, lo, hi).tobytes()

    @staticmethod
    def box_halfspace_case(seed):
        """A point outside box01 intersected with a half-space it violates."""
        rng = np.random.default_rng(seed)
        V = 2.0 * _symmetric(12, rng)
        C = rng.random((12, 12))
        C = (C + C.T) / 2
        lo, hi = np.zeros((12, 12)), np.ones((12, 12))
        return V, C, lo, hi, 0.3 * float(np.vdot(C, np.clip(V, lo, hi)))

    @staticmethod
    def spy_multiplier(monkeypatch):
        """The (tau, Z) of every multiplier search, as the searches return them."""
        found, search = [], solvers._multiplier

        def spy(*args):
            found.append(search(*args))
            return found[-1]

        monkeypatch.setattr(solvers, "_multiplier", spy)
        return found

    @pytest.mark.parametrize("seed", range(4))
    def test_multiplier_returns_the_clipped_point(self, monkeypatch, seed):
        V, C, lo, hi, bound = self.box_halfspace_case(seed)
        found = self.spy_multiplier(monkeypatch)
        out = _set_projection([box01(), affine_halfspace(C, bound)], V)(V)
        [(tau, Z)] = found
        assert Z.tobytes() == np.clip(V - tau * C, lo, hi).tobytes()
        assert abs(float(np.vdot(C, Z)) - bound) <= 1e-12 * bound
        assert out.tobytes() == Z.tobytes()

    def test_multiplier_cap_leaves_the_clip_to_the_projection(self, monkeypatch):
        # a search cut by the step cap has moved tau past its last clipped
        # point: it returns none, and the projection clips at the final tau
        monkeypatch.setattr(solvers, "_MULTIPLIER_STEPS", 1)
        V, C, lo, hi, bound = self.box_halfspace_case(0)
        found = self.spy_multiplier(monkeypatch)
        out = _set_projection([box01(), affine_halfspace(C, bound)], V)(V)
        [(tau, Z)] = found
        assert Z is None and tau > 0
        assert out.tobytes() == np.clip(V - tau * C, lo, hi).tobytes()

    def test_search_ends_at_a_root_within_roundoff(self, monkeypatch):
        # a root that the closed form puts at tau itself ends the search: a
        # point one ulp outside the l2 ball (the root is at tau = 1e-16), and
        # an l1-localized signed solve whose search once bisected to the
        # step cap toward a root it had already reached
        evaluations, search = [], solvers._multiplier

        def spy(V, N, sq, L, H, value, l2, tau):
            calls = []

            def counted(Z):
                calls.append(Z)
                return value(Z)

            out = search(V, N, sq, L, H, counted, l2, tau)
            evaluations.append(len(calls))
            return out

        monkeypatch.setattr(solvers, "_multiplier", spy)
        V = np.diag([2.0, 3e-8])
        assert float(np.vdot(V, V)) - 4.0 > 0
        assert np.allclose(project_atom(l2_ball_around(np.zeros((2, 2)), 2.0), V), V, rtol=0, atol=1e-15)
        assert evaluations == [2]
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=4)
        _, report = pierra_solve(inst.observed - inst.params["alpha"],
                                 signed_atoms() + [l1_ball_around(inst.oracle, 2.0)])
        assert report.converged and max(evaluations) <= 10

    def test_two_atoms_besides_entrywise_bounds_raise(self):
        # no library caller builds such a set: it has no exact projection here
        M = np.zeros((4, 4))
        for extra in ([affine_halfspace(np.eye(4), 1.0), l2_ball_around(np.eye(4), 1.0)],
                      [total_sum_leq(2.0), affine_halfspace(np.eye(4), 1.0)],
                      [l1_ball_around(np.eye(4), 1.0), l2_ball_around(np.eye(4), 1.0)]):
            with pytest.raises(InvalidInputError, match="at most one"):
                _set_projection(signed_atoms() + extra, M)
            with pytest.raises(InvalidInputError, match="at most one"):
                pierra_solve(M, signed_atoms() + extra)


class TestPierra:
    def test_null_objective_returns_feasible_point(self):
        # at the first penalty test X = Z and U = 0, so a reference norm of
        # the relative residuals is zero: the test must skip, not divide
        for atoms in (unit_diag_atoms(), signed_atoms(), community_atoms(3.0)):
            with np.errstate(all="raise"):
                Z, report = pierra_solve(np.zeros((4, 4)), atoms)
            assert report.converged
            assert max(report.residuals.values()) <= PierraConfig().feas_tol
            assert np.linalg.eigvalsh(Z).min() >= -1e-8
            assert np.allclose(report.objective_trace, 0.0)

    def test_two_node_matches_grid_search_oracle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        Z, report = pierra_solve(A, unit_diag_atoms())
        # oracle: feasible set is {[[1, t], [t, 1]] : |t| <= 1}; <A, Z> = 2t
        ts = np.linspace(-1, 1, 20001)
        best_t = ts[np.argmax(2 * ts)]
        assert abs(Z[0, 1] - best_t) <= 1e-5
        assert abs(report.objective - 2.0) <= 1e-5

    def test_noiseless_signed_recovers_oracle(self):
        inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=0)
        Z, report = pierra_signed(inst.observed, inst.params["alpha"])
        assert report.converged
        assert np.max(np.abs(Z - inst.oracle)) <= 1e-3

    def test_signed_output_in_box(self):
        inst = gen_ssbm(SsbmParams(n=10, n_clusters=2, p=0.9, q=0.1, delta=0.7), seed=3)
        Z, _ = pierra_signed(inst.observed, inst.params["alpha"])
        assert Z.min() >= -1e-6 and Z.max() <= 1.0 + 1e-6

    def test_signed_objective_at_least_oracle_value(self):
        # feed the oracle itself as data: optimum must score at least as high
        inst = gen_ssbm(SsbmParams(n=8, n_clusters=2, p=1.0, q=0.0, delta=1.0), seed=1)
        A = inst.oracle
        Z, report = pierra_signed(A, 0.0)
        assert report.objective >= np.vdot(A, inst.oracle).real - 1e-6

    def test_noiseless_community_recovers_membership(self):
        inst = gen_sbm(8, 2, 1.0 - 1e-12, 1e-12, seed=0)
        Z, report = pierra_solve(inst.observed, community_atoms(inst.params["lam"]))
        assert np.max(np.abs(Z - inst.oracle)) <= 1e-3

    def test_community_vacuous_cap_diagonal_objective(self):
        n = 6
        Z, report = pierra_solve(np.eye(n), community_atoms(float(n * n)))
        assert abs(report.objective - n) <= 1e-4

    def test_community_feasibility_residuals(self):
        inst = gen_sbm(10, 2, 0.9, 0.1, seed=2)
        Z, report = pierra_solve(inst.observed, community_atoms(inst.params["lam"]))
        assert report.converged
        assert max(report.residuals.values()) <= 1e-6

    def test_optimality_against_random_feasible_points(self):
        rng = np.random.default_rng(11)
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=3, p=0.8, q=0.2, delta=0.8), seed=5)
        M = inst.observed - inst.params["alpha"] * np.ones((12, 12))
        Z, report = pierra_solve(M, signed_atoms())
        slack = 10 * 1e-7 * frobenius_norm(M)
        for _ in range(50):
            Zf = sample_feasible("signed", 12, rng)
            assert np.vdot(M, Z).real >= np.vdot(M, Zf).real - slack

    def test_deterministic(self):
        inst = gen_ssbm(SsbmParams(n=10, n_clusters=2, p=0.85, q=0.15, delta=0.9), seed=9)
        Z1, r1 = pierra_signed(inst.observed, inst.params["alpha"])
        Z2, r2 = pierra_signed(inst.observed, inst.params["alpha"])
        assert np.array_equal(Z1, Z2)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    @pytest.mark.parametrize("single, double", [(np.float32, np.float64)])
    def test_single_precision_objective_solves_in_double(self, single, double):
        # the sweeps run in double precision: a single-precision objective is
        # solved as its exact double-precision copy
        rng = np.random.default_rng(6)
        M = rng.standard_normal((8, 8)).astype(single)
        atoms = unit_diag_atoms()
        Z, report = pierra_solve(M, atoms)
        Z64, report64 = pierra_solve(M.astype(double), atoms)
        assert Z.dtype == double and np.array_equal(Z, Z64)
        assert report.objective == report64.objective and report.converged

    def test_no_atoms_solve_over_the_cone_alone(self):
        # the cone is always one block: max <-I, Z> over it is 0, at Z = 0
        Z, report = pierra_solve(-np.eye(3), [])
        assert report.converged and list(report.residuals) == ["0:psd"]
        assert np.allclose(Z, 0.0, atol=1e-6) and abs(report.objective) <= 1e-6

    UNKNOWN_ATOMS = {
        "psd": (ConstraintAtom("psd"), "'psd'; the psd cone is always included"),
        "foo": (ConstraintAtom("foo"), "unknown atom kind 'foo'"),
        "halfspace_without_matrix": (ConstraintAtom("affine_halfspace"), "affine_halfspace matrix"),
    }

    @pytest.mark.parametrize("case", UNKNOWN_ATOMS)
    def test_unknown_atom_kind_names_it(self, monkeypatch, case):
        # an atom of a kind the set projection does not know, the cone's
        # included, or a hand-built half-space with no normal raises the
        # input error naming the kind before any sweep, whose psd kernel
        # is None here
        atom, message = self.UNKNOWN_ATOMS[case]
        monkeypatch.setattr(solvers, "project_psd_hermitian", None)
        for atoms in ([atom], [atom, box01(), diag_eq_one()]):
            with pytest.raises(InvalidInputError, match=message):
                pierra_solve(-np.eye(3), atoms)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            pierra_solve(np.full((2, 2), np.nan), unit_diag_atoms())
        with pytest.raises(InvalidInputError):
            pierra_solve(np.eye(2), community_atoms(0.0))
        # JSON overrides can carry strings, lists or booleans
        for bad in ({"max_iters": "5"}, {"max_iters": 5.0}, {"max_iters": True},
                    {"feas_tol": "1e-7"}, {"obj_tol": None},
                    {"max_iters": -5}, {"max_iters": 0}):
            with pytest.raises(InvalidInputError, match=next(iter(bad))):
                PierraConfig(**bad)
        assert PierraConfig(max_iters=np.int64(5), feas_tol=1).max_iters == 5

    MALFORMED_ATOMS = {
        "l1_radius_nan": lambda: l1_ball_around(np.eye(4), np.nan),
        "l2_radius_inf": lambda: l2_ball_around(np.eye(4), np.inf),
        "l2_radius_negative": lambda: l2_ball_around(np.eye(4), -1.0),
        "cap_nan": lambda: total_sum_leq(np.nan),
        "offset_inf": lambda: affine_halfspace(np.eye(4), np.inf),
        "normal_nan": lambda: affine_halfspace(np.full((4, 4), np.nan), 1.0),
        "normal_3x3": lambda: affine_halfspace(np.eye(3), 1.0),
        "l1_center_3x3": lambda: l1_ball_around(np.eye(3), 1.0),
        "l2_center_3x3": lambda: l2_ball_around(np.eye(3), 1.0),
        "normal_not_symmetric": lambda: affine_halfspace(np.triu(np.ones((4, 4))), 1.0),
        "normal_one_ulp_off": lambda: affine_halfspace(
            np.ones((4, 4)) + np.diag([np.spacing(1.0)] * 3, 1), 1.0),
        "normal_complex": lambda: affine_halfspace(np.ones((4, 4), complex), 1.0),
        "l1_center_not_symmetric": lambda: l1_ball_around(np.triu(np.ones((4, 4))), 1.0),
        "l2_center_complex": lambda: l2_ball_around(1j * np.eye(4), 1.0),
    }

    @pytest.mark.parametrize("case", MALFORMED_ATOMS)
    def test_malformed_atoms_raise(self, case):
        # a non-finite bound, a matrix of another shape than the objective, or
        # one that is complex or not exactly symmetric: each sweep hands its
        # point to an eigh that reads one triangle
        with pytest.raises(InvalidInputError):
            pierra_solve(np.eye(4), [self.MALFORMED_ATOMS[case]()])

    def test_complex_objective_raises(self):
        # the one complex program, synchronization, is bm_solve's; a complex
        # objective with a zero imaginary part is still complex
        M = gen_sync(SyncParams(n=8, sigma=0.3), seed=0).observed
        for objective in (M, M.real.astype(complex)):
            for atoms in (unit_diag_atoms(), signed_atoms(),
                          unit_diag_atoms() + [l2_ball_around(np.eye(8), 2.0)]):
                with pytest.raises(InvalidInputError, match="real objective.*bm_solve"):
                    pierra_solve(objective, atoms)

    @pytest.mark.parametrize("atom", [nonneg, box01])
    def test_complex_objective_takes_no_off_diagonal_bounds(self, atom):
        # np.clip orders complex numbers lexicographically: such a "bound"
        # would clip the real part and drop the imaginary one
        M = gen_sync(SyncParams(n=8, sigma=0.3), seed=0).observed
        with pytest.raises(InvalidInputError, match="real objective"):
            pierra_solve(M, [atom()])

    def test_signed_sweep_guard(self):
        inst = gen_ssbm(SsbmParams(n=100, n_clusters=5, p=0.8, q=0.2, delta=0.4), seed=0)
        _, report = pierra_signed(inst.observed, inst.params["alpha"])
        assert report.converged
        assert report.iterations <= 400

    def test_relative_penalty_sweep_guard(self):
        # 480 sweeps when the penalty test compares absolute residuals, which
        # halves a good starting penalty at this scale
        inst = gen_ssbm(SsbmParams(n=100, n_clusters=5, p=0.8, q=0.2, delta=0.4), seed=18)
        _, report = pierra_signed(inst.observed, inst.params["alpha"])
        assert report.converged
        assert report.iterations <= 300

    def test_small_signed_sweep_guard(self):
        # 15,850 sweeps without the acceleration
        inst = gen_ssbm(SsbmParams(n=16, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=1)
        _, report = pierra_signed(inst.observed, inst.params["alpha"])
        assert report.converged
        assert report.iterations <= 5000

    def test_safeguard_rejects_bad_extrapolations(self, monkeypatch):
        # an accelerator that proposes a far-off point at every step: each
        # proposal must be rejected for the plain step, so the solve still
        # converges to the same optimum
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=2)
        _, default = pierra_signed(inst.observed, inst.params["alpha"])
        rng = np.random.default_rng(0)
        step = _Anderson.step

        def hostile(self, F, g):
            step(self, F, g)
            return F + 100.0 * rng.standard_normal(F.shape), True

        monkeypatch.setattr(_Anderson, "step", hostile)
        M = inst.observed - inst.params["alpha"] * np.ones_like(inst.observed)
        _, report = pierra_solve(M, signed_atoms(), PierraConfig(max_iters=10_000))
        assert report.converged
        assert abs(report.objective - default.objective) <= 1e-6 * (1 + abs(default.objective))
        assert default.counters["extrapolations_accepted"] > 0
        assert report.counters["extrapolations_accepted"] == 0
        assert report.counters["extrapolations_rejected"] >= report.iterations // 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_iterate_raises(self, monkeypatch, value):
        # no sweep scans its matrices: a broken iterate shows in ||X - Z||,
        # or in eigh failing on it, and raises the input error
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=2)
        step = _Anderson.step

        def broken(self, F, g):
            step(self, F, g)
            return np.full_like(F, value), True

        monkeypatch.setattr(_Anderson, "step", broken)
        with pytest.raises(InvalidInputError, match="non-finite"):
            pierra_signed(inst.observed, inst.params["alpha"])

    @pytest.mark.parametrize("n, delta, seed, factor, budget", [
        (12, 0.8, 0, 1e-2, 1000),
        (50, 0.6, 2, 1e-3, 5000),
    ])
    def test_poor_initial_step_reaches_the_optimum(self, n, delta, seed, factor, budget):
        # a step far below the default halves the penalty many times; when
        # extrapolated points reach the stop rule and the penalty test, the
        # n=50 case does not converge within 20,000 sweeps
        inst = gen_ssbm(SsbmParams(n=n, n_clusters=2, p=0.8, q=0.2, delta=delta), seed=seed)
        M = inst.observed - inst.params["alpha"]
        epsilon = factor * np.sqrt(n) / frobenius_norm(M)
        _, report = pierra_solve(M, signed_atoms(), PierraConfig(max_iters=budget),
                                 warm_start=cold_start(M, epsilon))
        _, default = pierra_signed(inst.observed, inst.params["alpha"])
        assert report.converged
        assert abs(report.objective - default.objective) <= 1e-6 * abs(default.objective)

    @pytest.mark.parametrize("factor", [1e-2, 1e2])
    def test_penalty_change_leaves_no_acceleration_state(self, factor):
        # a penalty change alters the map, so the acceleration forgets every
        # pair: the solve then goes on exactly as one warm-started from
        # (Z, U, rho) at that sweep
        inst = gen_ssbm(SsbmParams(n=30, n_clusters=3, p=0.8, q=0.2, delta=0.6), seed=0)
        M = symmetrize(inst.observed - inst.params["alpha"])
        epsilon = factor * np.sqrt(30) / frobenius_norm(M)
        config = lambda k: PierraConfig(max_iters=k)
        start = cold_start(M, epsilon)
        state = pierra_solve(M, signed_atoms(), config(10), warm_start=start)[1].state
        assert state[2] != 1.0 / epsilon
        full = pierra_solve(M, signed_atoms(), config(40), warm_start=start)[1].objective_trace
        resumed = pierra_solve(M, signed_atoms(), config(30), warm_start=state)[1].objective_trace
        assert np.allclose(full[10:], resumed, rtol=1e-12, atol=0)

    def test_adaptive_penalty_corrects_a_poor_initial_step(self):
        # with the penalty held at 1/epsilon this step does not converge
        # within 20000 sweeps
        inst = gen_ssbm(SsbmParams(n=12, n_clusters=2, p=0.8, q=0.2, delta=0.8), seed=0)
        M = inst.observed - inst.params["alpha"]
        epsilon = 100 * np.sqrt(12) / frobenius_norm(M)
        _, report = pierra_solve(M, signed_atoms(), PierraConfig(max_iters=10_000),
                                 warm_start=cold_start(M, epsilon))
        assert report.converged
        assert report.counters["penalty_changes"] > 0
        assert report.counters["rho"] != 1.0 / epsilon
        assert report.to_dict()["counters"] == report.counters

    def test_warm_started_curve_equals_cold_solves(self):
        rng = np.random.default_rng(21)
        n = 8
        A0 = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        A0 = A0 + A0.T
        _, Z_star, _ = bm_solve(-A0, "max", BmConfig(seed=0))
        mask = np.triu(rng.random((n, n)) < 0.8, 1)
        A = -(A0 * (mask + mask.T)) / 0.8
        radii = [1.0, 3.0, 6.0, 10.0, 20.0]
        est = estimate_fixed_point(lambda _: (A, -A0, Z_star), unit_diag_atoms(),
                                   "excess_risk", 0.5, 1, radii)
        W = A + A0
        offset = np.vdot(W, Z_star)
        cold = []
        for r in radii:
            halfspace = affine_halfspace(A0, r + np.vdot(A0, Z_star))
            _, report = pierra_solve(W, unit_diag_atoms() + [halfspace])
            assert report.converged
            cold.append(report.objective - offset)
        for (_, q), c in zip(est.quantile_curve, np.maximum.accumulate(cold)):
            assert abs(q - c) <= 1e-5 * (1 + abs(c))

    def test_warm_started_solve_ends_in_one_psd_projection(self):
        # continuation over nested balls: the report's state, passed back as
        # warm_start, resumes the sweeps, and the returned matrix is the psd
        # projection of the last iterate in the atoms' set
        inst = gen_ssbm(SsbmParams(n=10, n_clusters=2, p=0.9, q=0.1, delta=0.8), seed=1)
        M = symmetrize(inst.observed - inst.params["alpha"])
        config = PierraConfig()
        _, first = pierra_solve(M, signed_atoms() + [l2_ball_around(np.eye(10), 1.0)], config)
        atoms = signed_atoms() + [l2_ball_around(np.eye(10), 2.0)]
        Z_hat, report = pierra_solve(M, atoms, config, warm_start=first.state)
        assert report.converged
        assert len(report.objective_trace) == report.iterations
        assert report.objective == float(np.vdot(M, Z_hat))
        assert Z_hat.tobytes() == project_psd(report.state[0]).tobytes()
        assert report.counters["rho"] == report.state[2]
        assert "state" not in report.to_dict()

    @pytest.mark.parametrize("name", LIBRARY_SETS)
    def test_projections_are_built_once_per_solve(self, monkeypatch, name):
        # the set projection and one projection per atom serve every stop
        # check and the final residuals
        rng = np.random.default_rng(7)
        atoms = LIBRARY_SETS[name](5, rng)
        M = rng.standard_normal((5, 5))
        builds, checks = [], []
        build, residual = solvers._set_projection, solvers.psd_residual
        monkeypatch.setattr(solvers, "_set_projection", lambda *args: builds.append(1) or build(*args))
        monkeypatch.setattr(solvers, "psd_residual", lambda Z: checks.append(1) or 1.0 + residual(Z))
        # every objective test passes and the cone's residual never does: a
        # stop check at every 10th sweep from the 20th, then the final residuals
        _, report = pierra_solve(M, atoms, PierraConfig(max_iters=60, obj_tol=1e10))
        assert report.termination == "max_iters" and len(checks) == 6
        assert len(builds) == 1 + len(atoms)

    @pytest.mark.parametrize("case", HERMITIAN_CASES)
    def test_sweep_point_is_exactly_hermitian(self, monkeypatch, case):
        # each sweep hands V = 2Z - y + M/rho straight to the unchecked psd
        # kernel, whose eigh reads one triangle: on every set the library
        # builds V is exactly symmetric at every sweep
        M, atoms = hermitian_case(case)
        symmetric = []
        kernel = solvers.project_psd_hermitian

        def spy_kernel(V):
            symmetric.append(V.dtype == np.float64 and np.array_equal(V, V.T))
            return kernel(V)

        monkeypatch.setattr(solvers, "project_psd_hermitian", spy_kernel)
        _, report = pierra_solve(M, atoms)
        assert report.converged
        assert len(symmetric) == report.iterations
        assert all(symmetric)

    def test_max_iters_reported(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, report = pierra_solve(A, unit_diag_atoms(), PierraConfig(max_iters=5))
        assert report.termination == "max_iters"

    @pytest.mark.parametrize("kind", ["sync", "gaussian"])
    def test_unit_diagonal_matches_certified_bm(self, kind):
        # BM's optimum is certified; the complex sync objective is solved by
        # splitting as its real 2n embedding, whose optimum is twice it
        if kind == "sync":
            M = gen_sync(SyncParams(n=30, sigma=0.5), seed=0).observed
            _, rp = pierra_solve(real_embedding(M), unit_diag_atoms())
            split = rp.objective / 2
        else:
            M = _symmetric(30, np.random.default_rng(30))
            _, rp = pierra_solve(M, unit_diag_atoms())
            split = rp.objective
        _, _, rb = bm_solve(M, "max")
        assert rp.converged and rb.converged
        assert abs(split - rb.objective) <= 1e-8 * abs(rb.objective)


def naive_anderson(pairs, memory):
    """Reference for :class:`_Anderson`: stack the last ``memory``
    differences of the accepted (F, g) and solve the regularized normal
    equations from scratch."""
    F, g = pairs[-1]
    dF = [a[0] - b[0] for a, b in zip(pairs[1:], pairs[:-1])][-memory:]
    dG = [a[1] - b[1] for a, b in zip(pairs[1:], pairs[:-1])][-memory:]
    if not dG:
        return F
    G = np.stack([d.ravel() for d in dG], axis=1)
    H = G.T @ G
    H = H + solvers._ANDERSON_REG * np.trace(H) * np.eye(len(dG))
    gamma = np.linalg.solve(H, G.T @ g.ravel())
    return F - sum(c * d for c, d in zip(gamma, dF))


class TestAnderson:
    def test_ring_buffer_matches_stacked_reference(self):
        rng = np.random.default_rng(3)
        draw = lambda: rng.standard_normal((4, 4))
        accel = _Anderson(draw())
        pairs = []
        for _ in range(12):     # wraps the 5-slot buffer twice
            F, g = draw(), draw()
            pairs.append((F, g))
            y, extrapolated = accel.step(F, g)
            ref = naive_anderson(pairs, solvers._ANDERSON_MEMORY)
            assert extrapolated == (len(pairs) > 1)
            assert np.max(np.abs(y - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))
        accel.clear()
        F, g = draw(), draw()
        y, extrapolated = accel.step(F, g)
        assert y is F and not extrapolated

    def test_solves_a_linear_map_in_dimension_plus_one_steps(self):
        # on an affine map of a 2x2 matrix (4 real unknowns) the extrapolation
        # is GMRES: exact after 5 steps, where the plain iteration is not
        rng = np.random.default_rng(4)
        A = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
        b = rng.standard_normal(4)
        T = lambda y: (A @ y.ravel() + b).reshape(2, 2)
        fixed = np.linalg.solve(np.eye(4) - A, b).reshape(2, 2)
        y = np.zeros((2, 2))
        accel = _Anderson(y)
        for _ in range(6):
            F = T(y)
            y, _ = accel.step(F, F - y)
        assert np.max(np.abs(y - fixed)) <= 1e-6
        plain = np.zeros((2, 2))
        for _ in range(6):
            plain = T(plain)
        assert np.max(np.abs(plain - fixed)) > 1e-2


class TestReportSerialization:
    def test_trace_thinned_to_1000_entries(self):
        trace = np.arange(2500, dtype=float)
        report = SolveReport("pierra", 2500, "converged", 2499.0, trace)
        out = report.to_dict()["objective_trace"]
        assert len(out) == 1000
        assert out[0] == 0.0 and out[-1] == 2499.0
        assert np.all(np.diff(out) > 0)
        assert np.array_equal(report.objective_trace, trace)
        short = SolveReport("pierra", 3, "converged", 2.0, np.arange(3.0))
        assert short.to_dict()["objective_trace"] == [0.0, 1.0, 2.0]


class TestBm:
    def test_rank_formula(self):
        assert bm_rank(2) == 2
        assert bm_rank(500) == 32
        assert bm_rank(1000) == 45

    def test_single_edge_antipodal(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        # n = 2: the factor starts at the cap, 2 columns
        Y, Z, report = bm_solve(A, "min")
        assert abs(Z[0, 1] + 1.0) <= 1e-4
        assert abs(report.objective + 2.0) <= 1e-4

    def test_cross_solver_agreement_maxcut(self):
        rng = np.random.default_rng(5)
        n = 10
        A0 = (rng.random((n, n)) < 0.5).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        _, Zb, rb = bm_solve(-A0, "max", BmConfig(seed=1))
        Zp, rp = pierra_solve(-A0, unit_diag_atoms())
        assert abs(rb.objective - rp.objective) <= 1e-3 * (1 + abs(rp.objective))

    def test_full_rank_matches_pierra(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 12
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        fix_rank(monkeypatch, n)
        _, Zb, rb = bm_solve(M, "max", BmConfig(seed=2))
        Zp, rp = pierra_solve(M, unit_diag_atoms())
        assert abs(rb.objective - rp.objective) <= 1e-3 * (1 + abs(rp.objective))

    def test_complex_hermitian(self):
        rng = np.random.default_rng(12)
        n = 8
        phases = rng.uniform(0, 2 * np.pi, n)
        x = np.exp(1j * phases)
        A = np.outer(x, x.conj())
        np.fill_diagonal(A, 1.0)
        _, Z, report = bm_solve(A, "max", BmConfig(seed=0))
        # objective of the noiseless model is ||Z*||_F^2 = n^2
        assert abs(report.objective - n * n) <= 1e-3 * n * n
        assert np.max(np.abs(np.diagonal(Z) - 1.0)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((9, 9))
        M = (M + M.T) / 2
        _, Z1, r1 = bm_solve(M, "max", BmConfig(seed=4))
        _, Z2, r2 = bm_solve(M, "max", BmConfig(seed=4))
        assert np.array_equal(Z1, Z2)
        assert r1.iterations == r2.iterations
        assert r1.counters == r2.counters
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    def test_stop_reasons(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((10, 10))
        M = (M + M.T) / 2
        # a gradient tolerance below roundoff: the line search fails first
        _, _, stalled = bm_solve(M, "max", BmConfig(grad_tol=1e-30, restarts=1))
        assert stalled.termination == "stalled" and not stalled.converged
        # the nonmonotone descent still ends at the roundoff floor
        assert stalled.iterations <= 1000
        _, _, spent = bm_solve(M, "max", BmConfig(max_iters=3, restarts=1))
        assert spent.termination == "max_iters" and not spent.converged

    def test_certified_at_the_roundoff_floor(self, monkeypatch):
        # the descent ends on a failed line search; the certificate still
        # proves the point optimal (lambda_min(S) is about 1e-13), and a
        # Cholesky factor does so without an n x n eigensolver, in the
        # generator's oracle check too
        n = 200
        for name in ("eigvalsh", "eigh"):
            def refuse(A, *args, _solver=getattr(np.linalg, name), **kwargs):
                if np.shape(A) == (n, n):
                    raise AssertionError("n x n eigensolver called")
                return _solver(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, refuse)
        M = gen_sync(SyncParams(n=n, sigma=0.1), seed=4).observed
        _, _, report = bm_solve(M, "max", BmConfig(seed=4, restarts=2))
        assert report.termination == "converged"
        assert 0.0 < report.gap <= 1e-7 * (1.0 + abs(report.objective))
        assert report.to_dict()["gap"] == report.gap
        assert report.counters == {"restarts": 1, "escapes": 0, "rank_increases": 0,
                                   "evaluations": report.counters["evaluations"],
                                   "certificates_cholesky": 1, "certificates_eigh": 0, "rank": 4}
        assert report.to_dict()["counters"] == report.counters

    def test_uncertified_round_pays_one_eigh(self, monkeypatch):
        # rank 1 is never certified: each descent's certificate falls back to
        # one eigh(S), whose bottom eigenvector the escape reuses
        rng = np.random.default_rng(21)
        n = 30
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = (M + M.conj().T) / 2
        calls = {"eigh": 0, "eigvalsh": 0, "rounds": 0, "escapes": 0}
        for name in ("eigvalsh", "eigh"):
            def count(A, *args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += np.shape(A) == (n, n)
                return _solver(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, count)
        for name, key in (("_certificate", "rounds"), ("_escape", "escapes")):
            def tally(*args, _fn=getattr(solvers, name), _key=key):
                calls[_key] += 1
                return _fn(*args)
            monkeypatch.setattr(solvers, name, tally)
        fix_rank(monkeypatch, 1)
        _, _, report = bm_solve(M, "max", BmConfig(max_iters=200, restarts=3, seed=1))
        # every restart stalls: each of its rounds tries an escape, the last in vain
        assert report.termination == "stalled"
        assert calls["eigvalsh"] == 0
        assert calls["eigh"] == calls["rounds"] == calls["escapes"] > 3
        counters = report.counters
        assert (counters["restarts"], counters["rank"], counters["rank_increases"]) == (3, 1, 0)
        assert counters["certificates_eigh"] == calls["eigh"]
        assert counters["certificates_cholesky"] == 0
        assert counters["escapes"] == calls["escapes"] - 3

    def test_certified_restart_ends_the_solve(self):
        M = gen_bipartite_perturbed(40, 0.1, 0.6, seed=3).rescaled
        _, Z1, r1 = bm_solve(M, "max", BmConfig(seed=5, restarts=1))
        _, Z3, r3 = bm_solve(M, "max", BmConfig(seed=5, restarts=3))
        assert r1.converged and r1.gap <= 1e-7 * (1.0 + abs(r1.objective))
        assert np.array_equal(Z1, Z3)
        assert r1.iterations == r3.iterations

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_rank_one_is_not_certified(self, complex_valued, monkeypatch):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((30, 30))
        if complex_valued:
            M = M + 1j * rng.standard_normal((30, 30))
        M = (M + M.conj().T) / 2
        fix_rank(monkeypatch, 1)
        config = BmConfig(max_iters=40, restarts=3, seed=1)
        _, _, report = bm_solve(M, "max", config)
        assert report.iterations <= config.restarts * config.max_iters
        assert not report.converged and report.gap > 0.0

    def test_escape_leaves_a_saddle(self):
        # equal rows are a critical point of every objective, and for the
        # MAX-CUT objective the worst one: the gradient vanishes there
        A = gen_bipartite_perturbed(30, 0.1, 0.6, seed=0).full_adjacency
        saddle = np.zeros((30, bm_rank(30)))
        saddle[:, 0] = 1.0
        C = A.astype(float)
        cap = saddle.shape[1]
        Y, CY, value, its = _bm_descend(C, saddle, 1e-6, 100, 1e-2, [], Counter())
        assert its == 1
        gap, v = _certificate(C, Y, CY, 1e-6)
        assert gap > 1.0
        Y_escape = _escape(C, Y, v, value, cap, Counter())
        assert Y_escape.shape == Y.shape
        assert _bm_objective(Y_escape, C @ Y_escape) < value
        # below the cap a rank-deficient factor still escapes instead of growing
        Y_escape = _escape(C, Y, v, value, 2 * cap, Counter())
        assert Y_escape.shape == Y.shape
        assert _bm_objective(Y_escape, C @ Y_escape) < value
        config = BmConfig()
        _, best, gap, _, termination = _bm_restart(C, saddle, cap, config, 1e-6, 1e-2, [], Counter())
        _, _, reference = bm_solve(-A, "max", config)
        assert termination == "converged"
        assert abs(best + reference.objective) <= gap + reference.gap
        # the descent after the escape draws on the same budget
        _, _, _, its, termination = _bm_restart(C, saddle, cap, BmConfig(max_iters=5), 1e-6,
                                                1e-2, [], Counter())
        assert (its, termination) == (5, "max_iters")

    def test_decisions_match_the_eigenvalue_certificate(self, monkeypatch):
        # the Cholesky bound only replaces eigenvalues where it settles the
        # stop: on the benchmark's BM bundle (sync n=200 at three noise levels
        # and masked MAX-CUT n=100, instance seeds 0-63) every termination,
        # iteration count, objective and Z equals the one the eigenvalue
        # certificate gives, and only the certified gap grows
        def eigenvalue_certificate(C, Y, CY, target):
            n = C.shape[0]
            S = C - np.diag(np.real(np.sum(CY * Y.conj(), axis=1)))
            w, V = np.linalg.eigh(S)
            slack = n * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))
            return n * max(0.0, slack - w[0]), V[:, :max(1, int(np.sum(w < -slack)))]

        def solves(seed):
            sigmas = (0.1, 0.3, 0.5)
            M = (gen_sync(SyncParams(n=200, sigma=sigmas[seed % 4]), seed=seed).observed
                 if seed % 4 < 3 else gen_bipartite_perturbed(100, 0.1, 0.6, seed=seed).rescaled)
            return bm_solve(M, "max", BmConfig(seed=seed, restarts=2, max_iters=20_000))

        fast = [solves(seed) for seed in range(64)]
        monkeypatch.setattr(solvers, "_certificate", eigenvalue_certificate)
        for seed, (_, Z, report) in enumerate(fast):
            _, Z_ref, ref = solves(seed)
            assert report.termination == ref.termination == "converged"
            assert (report.iterations, report.objective) == (ref.iterations, ref.objective)
            assert np.array_equal(Z, Z_ref)
            assert ref.gap <= report.gap <= 1e-7 * (1.0 + abs(report.objective))

    def test_certificate_below_the_cholesky_bound_reads_eigenvalues(self):
        # Z = J minimizes <-J, Z>: S = n I - J is psd with a null vector, so a
        # Cholesky factor certifies; a target below its bound takes the exact
        # gap and the bottom eigenvector from eigh(S)
        n = 20
        C, Y = -np.ones((n, n)), np.ones((n, 3)) / np.sqrt(3)
        bound, v = _certificate(C, Y, C @ Y, np.inf)
        assert v is None and 0.0 < bound <= 1e-10
        gap, v = _certificate(C, Y, C @ Y, 0.0)
        assert 0.0 <= gap <= bound
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(n))

    @pytest.mark.parametrize("n", [1, 5])
    def test_zero_objective_certifies_a_zero_gap(self, n):
        # every feasible Z is optimal for M = 0: S = 0 is psd as it stands,
        # where a factor of S + tau I would leave a gap of n tau
        _, _, report = bm_solve(np.zeros((n, n)), "max")
        assert report.converged and report.gap == 0.0 and report.objective == 0.0
        assert report.counters["certificates_eigh"] == 0

    def test_second_factor_certifies_just_below_the_roundoff_shift(self, monkeypatch):
        # S has a null vector (Y = ones) and lambda_min(S) = -delta.  With
        # delta = 1e-10, far below -slack but inside the target's half
        # budget, the factor at tau = target / (2n) certifies without eigh;
        # with delta = 1e-3 neither factor exists and eigh gives the exact gap
        n, target = 30, 1e-6
        rng = np.random.default_rng(12)
        B, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
        Y = np.ones((n, 1))
        shifts = []
        has_cholesky = solvers.has_cholesky
        monkeypatch.setattr(solvers, "has_cholesky",
                            lambda S, shift: shifts.append(shift) or has_cholesky(S, shift))
        for delta in (1e-10, 1e-3):
            w = np.r_[-delta, rng.uniform(1.0, 2.0, n - 2)]
            C = (B[:, 1:] * w) @ B[:, 1:].T + np.diag(rng.standard_normal(n))
            S = C - np.diag(np.sum(C, axis=1))
            slack = n * np.finfo(float).eps * frobenius_norm(S)
            shifts.clear()
            if delta == 1e-10:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(np.linalg, "eigh", None)
                    gap, v = _certificate(C, Y, C @ Y, target)
                assert v is None and gap == n * (target / (2 * n) + slack) <= target
            else:
                gap, v = _certificate(C, Y, C @ Y, target)
                assert abs(gap - n * delta) <= 1e-9 and gap > target
                assert abs(np.vdot(v, S @ v) + delta) <= 1e-12
            assert shifts == [slack, target / (2 * n)]

    def test_gaussian_decisions_match_the_eigenvalue_certificate(self, monkeypatch):
        # real Gaussian objectives stop with lambda_min(S) a little below the
        # roundoff shift: the second factor settles their certificates, and
        # every termination, iteration count, objective and Z equals the
        # one the eigenvalue certificate gives
        def eigenvalue_certificate(C, Y, CY, target):
            n = C.shape[0]
            S = C - np.diag(np.real(np.sum(CY * Y.conj(), axis=1)))
            w, V = np.linalg.eigh(S)
            slack = n * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))
            return n * max(0.0, slack - w[0]), V[:, :max(1, int(np.sum(w < -slack)))]

        objectives = []
        for seed in range(3):
            G = np.random.default_rng(seed).standard_normal((60, 60))
            objectives.append((G + G.T) / 2)
        factors, fast = [], []
        has_cholesky = solvers.has_cholesky
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "has_cholesky",
                       lambda S, shift: (lambda ok: factors[-1].append(ok) or ok)(has_cholesky(S, shift)))
            for M in objectives:
                factors.append([])
                fast.append(bm_solve(M, "max"))
        # one certificate per solve: no factor at the roundoff shift, one at tau
        assert factors == [[False, True]] * len(objectives)
        for _, _, report in fast:
            assert (report.counters["certificates_cholesky"], report.counters["certificates_eigh"]) == (1, 0)
        monkeypatch.setattr(solvers, "_certificate", eigenvalue_certificate)
        for M, (_, Z, report) in zip(objectives, fast):
            _, Z_ref, ref = bm_solve(M, "max")
            assert report.termination == ref.termination == "converged"
            assert (report.iterations, report.objective) == (ref.iterations, ref.objective)
            assert np.array_equal(Z, Z_ref)
            assert report.gap <= 1e-7 * (1.0 + abs(report.objective))

    @staticmethod
    def _gaussian(n, seed):
        G = np.random.default_rng(seed).standard_normal((n, n))
        return (G + G.T) / 2

    def test_rank_grows_past_a_full_rank_stall(self, monkeypatch):
        # the certified optimum of this objective has rank 5: a fixed rank 4
        # stalls at a full-rank point with a large gap, while the adaptive
        # solve starts at rank 4, grows and matches the solve at the cap
        n = 80
        M = self._gaussian(n, 80)
        with monkeypatch.context() as m:
            fix_rank(m, 4)
            Y4, _, fixed = bm_solve(M, "max")
        assert fixed.termination == "stalled" and fixed.gap > 20.0
        assert Y4.shape[1] == fixed.counters["rank"] == 4
        assert fixed.counters["rank_increases"] == 0 and fixed.counters["escapes"] > 0
        with monkeypatch.context() as m:
            fix_rank(m, bm_rank(n))
            _, _, at_cap = bm_solve(M, "max")
        assert at_cap.counters["rank"] == bm_rank(n) and at_cap.counters["rank_increases"] == 0
        Y, Z, adaptive = bm_solve(M, "max")
        assert adaptive.converged and at_cap.converged
        assert abs(adaptive.objective - at_cap.objective) <= adaptive.gap + at_cap.gap
        assert np.linalg.matrix_rank(Z, 1e-6) >= 5
        assert adaptive.counters["rank_increases"] >= 1
        assert Y.shape[1] == adaptive.counters["rank"] and 4 < Y.shape[1] <= bm_rank(n)
        # the rounds that grew read their eigenvectors off eigh(S)
        assert adaptive.counters["certificates_eigh"] >= adaptive.counters["rank_increases"]
        # re-runs are deterministic, and every evaluation is counted
        evaluations = []
        objective = solvers._bm_objective
        monkeypatch.setattr(solvers, "_bm_objective",
                            lambda Y, CY: evaluations.append(1) or objective(Y, CY))
        Y2, Z2, again = bm_solve(M, "max")
        assert np.array_equal(Y, Y2) and np.array_equal(Z, Z2)
        assert again.counters == adaptive.counters and again.iterations == adaptive.iterations
        assert np.array_equal(again.objective_trace, adaptive.objective_trace)
        assert adaptive.counters["evaluations"] == len(evaluations) > adaptive.iterations

    def test_descent_accepts_steps_against_the_reference_value(self, monkeypatch):
        # the line search compares a trial with the Zhang-Hager reference,
        # a weighted mean of the accepted values, not with the last value:
        # some accepted steps raise the minimized value, none reaches the
        # reference (one descent: no escape, no growth)
        n = 40
        fix_rank(monkeypatch, bm_rank(n))
        _, _, report = bm_solve(self._gaussian(n, 80), "max")
        assert report.converged
        assert report.counters["escapes"] == report.counters["rank_increases"] == 0
        values = -report.objective_trace
        assert np.sum(np.diff(values) > 0) >= 5
        reference, weight = values[0], 1.0
        for value in values[1:]:
            assert value < reference
            kept = 0.85 * weight
            weight = kept + 1.0
            reference = (kept * reference + value) / weight

    def test_rank_never_exceeds_the_cap(self, monkeypatch):
        for n, seed in ((12, 0), (30, 1), (60, 80), (80, 81)):
            Y, _, report = bm_solve(self._gaussian(n, seed), "max")
            assert report.converged
            assert Y.shape[1] == report.counters["rank"] <= bm_rank(n)
        # growth doubles the rank but stops at the cap: with the cap lowered
        # to 5 the solve above grows 4 -> 5 once and is certified there
        monkeypatch.setattr(solvers, "bm_rank", lambda n: 5)
        Y, _, report = bm_solve(self._gaussian(80, 80), "max")
        assert report.converged
        assert Y.shape[1] == report.counters["rank"] == 5
        assert report.counters["rank_increases"] == 1

    def test_certificate_bounds_the_gap(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((20, 20))
        M = (M + M.T) / 2
        _, _, optimum = bm_solve(M, "min", BmConfig(seed=0))
        assert optimum.converged
        for _ in range(5):
            Y = rng.standard_normal((20, 5))
            Y /= np.linalg.norm(Y, axis=1, keepdims=True)
            gap, _ = _certificate(M, Y, M @ Y, np.inf)
            value = float(np.vdot(Y, M @ Y))
            assert optimum.objective - optimum.gap <= value
            assert value - optimum.objective <= gap

    def test_invalid(self):
        for bad in ({"max_iters": "20"}, {"restarts": 1.5},
                    {"seed": "0"}, {"seed": None}, {"grad_tol": "1e-7"},
                    {"max_iters": 0}, {"grad_tol": -1}, {"grad_tol": 0.0}, {"seed": -1}):
            with pytest.raises(InvalidInputError, match=next(iter(bad))):
                BmConfig(**bad)
        assert BmConfig(seed=np.int64(3), grad_tol=1).seed == 3
        with pytest.raises(InvalidInputError):
            bm_solve(np.eye(2), "ascend")
