import numpy as np
import pytest

from graphsdp import linalg
from graphsdp.linalg import (
    InvalidInputError,
    eigh_sorted,
    frobenius_norm,
    has_cholesky,
    project_psd,
    psd_residual,
    symmetrize,
    top_eigenvector,
)
from graphsdp.models import SyncParams, gen_sync
from graphsdp.solvers import BmConfig, bm_solve


def random_symmetric(n, rng, complex_valued=False):
    M = rng.standard_normal((n, n))
    if complex_valued:
        M = M + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2


def psd_oracle(M):
    """Independent full-spectrum oracle: zero out negative eigenvalues."""
    w, V = np.linalg.eigh(M)
    w = np.where(w < 0, 0.0, w)
    return (V * w) @ V.conj().T


class TestEigh:
    def test_sorted_descending_and_reconstructs(self):
        rng = np.random.default_rng(0)
        M = random_symmetric(7, rng)
        w, V = eigh_sorted(M)
        assert np.all(np.diff(w) <= 1e-12)
        err = frobenius_norm((V * w) @ V.conj().T - M)
        assert err <= 1e-8 * (1 + frobenius_norm(M))

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        M = random_symmetric(9, rng, complex_valued=True)
        _, V = eigh_sorted(M)
        gram = V.conj().T @ V
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10


class TestProjectPsd:
    def test_clamps_negative_eigenvalue(self):
        M = np.diag([1.0, -1.0])
        assert np.allclose(project_psd(M), np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_fixed_point(self):
        assert np.allclose(project_psd(np.eye(3)), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_spectrum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(5, rng)
        assert frobenius_norm(project_psd(M) - psd_oracle(M)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(100 + seed)
        M = random_symmetric(6, rng, complex_valued=seed % 2 == 0)
        P = project_psd(M)
        assert frobenius_norm(project_psd(P) - P) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_contraction_toward_cone(self, seed):
        rng = np.random.default_rng(200 + seed)
        M = random_symmetric(6, rng)
        X = rng.standard_normal((6, 3))
        P_test = X @ X.T          # arbitrary psd reference point
        assert frobenius_norm(project_psd(M) - P_test) <= frobenius_norm(M - P_test) + 1e-12

    def test_rejects_non_finite(self):
        M = np.full((3, 3), np.nan)
        with pytest.raises(InvalidInputError):
            project_psd(M)


def rotate(w, rng, complex_valued=False):
    """A matrix with spectrum ``w`` and a random unitary eigenbasis."""
    n = len(w)
    G = rng.standard_normal((n, n))
    if complex_valued:
        G = G + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(G)
    return (Q * np.asarray(w, dtype=float)) @ Q.conj().T


def orthogonal_to_start(n, rng, complex_valued):
    """Rank one u u* with u orthogonal to the inverse-iteration start."""
    s = linalg._start_vector(n)
    u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_valued else 0)
    u = u - s * np.vdot(s, u)
    u /= np.linalg.norm(u)
    assert abs(np.vdot(s, u)) <= 1e-14
    return np.outer(u, u.conj())


class TestPsdResidual:
    @pytest.mark.parametrize("case", ["real", "complex", "non_hermitian_real",
                                      "non_hermitian_complex", "psd", "psd_complex", "zero"])
    def test_equals_projection_distance(self, case):
        rng = np.random.default_rng(len(case))
        n = 12
        if case in ("real", "complex"):
            M = random_symmetric(n, rng, complex_valued=case == "complex")
        elif case.startswith("non_hermitian"):
            M = rng.standard_normal((n, n))
            if case.endswith("complex"):
                M = M + 1j * rng.standard_normal((n, n))
        elif case.startswith("psd"):
            X = rng.standard_normal((n, 4))
            if case.endswith("complex"):
                X = X + 1j * rng.standard_normal((n, 4))
            M = X @ X.conj().T
        else:
            M = np.zeros((n, n))
        expected = frobenius_norm(project_psd(M) - M)
        assert abs(psd_residual(M) - expected) <= 1e-12 * (1.0 + frobenius_norm(M))
        if case.startswith("non_hermitian"):
            # the anti-Hermitian part is what a Hermitian projection cannot remove
            assert psd_residual(M) >= frobenius_norm(M - M.conj().T) / 2
        if case in ("psd", "psd_complex", "zero"):
            assert psd_residual(M) <= 1e-12 * (1.0 + frobenius_norm(M))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            psd_residual(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestHasCholesky:
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_decides_the_shifted_hermitian_part(self, complex_valued):
        rng = np.random.default_rng(5)
        n = 30
        w = np.linspace(-1e-3, 10.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + (1j * rng.standard_normal((n, n)) if complex_valued else 0))
        H = (Q * w) @ Q.conj().T
        assert not has_cholesky(H, 0.0)
        assert not has_cholesky(H, 0.5e-3)
        assert has_cholesky(H, 2e-3)
        # only the Hermitian part counts: a large anti-Hermitian part changes nothing
        K = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_valued else 0)
        K = K - K.conj().T
        assert has_cholesky(H + 100.0 * K, 2e-3)
        assert not has_cholesky(H + 100.0 * K, 0.5e-3)
        assert has_cholesky(np.eye(n), 0.0) and not has_cholesky(np.zeros((n, n)), 0.0)

    def test_rejects_malformed_input(self):
        with pytest.raises(InvalidInputError):
            has_cholesky(np.array([[1.0, np.nan], [0.0, 1.0]]), 0.0)
        with pytest.raises(InvalidInputError):
            has_cholesky(np.ones((2, 3)), 0.0)


def phase_pivot(v):
    """The convention's pivot: the first entry within a relative 1e-8 of the
    largest modulus."""
    mod = np.abs(v)
    return int(np.argmax(mod >= (1 - 1e-8) * mod.max()))


def assert_top_eigenvector(M, v, target_norm=1.0):
    """Unit top eigenvector up to the oracle test's residual bound, with the
    sign convention on the first entry of (up to 1e-8) largest modulus."""
    lam_oracle = np.linalg.eigvalsh(symmetrize(M)).max()
    assert abs(np.linalg.norm(v) - target_norm) <= 1e-12 * target_norm
    u = v / target_norm
    assert np.linalg.norm(M @ u - lam_oracle * u) <= 1e-8 * (1 + frobenius_norm(M))
    pivot = u[phase_pivot(u)]
    assert pivot.real >= 0 and abs(pivot.imag) <= 1e-12


def count_exact_path(monkeypatch):
    """Count the calls that reach the eigvalsh-plus-inverse-iteration path."""
    calls = []
    exact = linalg._inverse_iteration_top
    monkeypatch.setattr(linalg, "_inverse_iteration_top", lambda H: calls.append(1) or exact(H))
    return calls


def exact_path(M, target_norm=1.0):
    """top_eigenvector with the Lanczos attempt switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_lanczos_top", lambda H: None)
        return top_eigenvector(M, target_norm)


def planted_gap(n, gap, rng, complex_valued):
    """Hermitian, spectrum in [-1, 1] plus one eigenvalue ``1 + gap``."""
    return rotate(np.r_[1.0 + gap, rng.uniform(-1.0, 1.0, n - 1)], rng, complex_valued)


class TestTopEigenvector:
    def test_rank_one(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        v = top_eigenvector(np.outer(x, x), target_norm=np.sqrt(2))
        assert np.allclose(v, np.array([1.0, 1.0]), atol=1e-10)

    def test_degenerate_spectrum_still_satisfies_residual(self):
        v = top_eigenvector(np.eye(4), target_norm=1.0)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        resid = np.linalg.norm(np.eye(4) @ v - v)
        assert resid <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_decomposition_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        M = random_symmetric(6, rng, complex_valued=True)
        v = top_eigenvector(M, target_norm=1.0)
        lam_oracle = np.linalg.eigvalsh(M).max()
        rayleigh = float(np.real(np.vdot(v, M @ v)))
        assert abs(rayleigh - lam_oracle) <= 1e-9 * (1 + abs(lam_oracle))
        resid = np.linalg.norm(M @ v - lam_oracle * v)
        assert resid <= 1e-8 * (1 + frobenius_norm(M))

    def test_sign_convention(self):
        x = np.array([0.8, -0.6])
        v = top_eigenvector(np.outer(x, x))
        assert v[np.argmax(np.abs(v))].real >= 0

    @pytest.mark.parametrize("n", [2, 30, 200])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_top_eigenvector_orthogonal_to_start(self, n, complex_valued, monkeypatch):
        # the Krylov space of the start misses u: its Ritz pair (0, s) fails
        # the Cholesky certificate, and the exact path finds u
        calls = count_exact_path(monkeypatch)
        M = orthogonal_to_start(n, np.random.default_rng(n), complex_valued)
        assert_top_eigenvector(M, top_eigenvector(M, target_norm=np.sqrt(n)), np.sqrt(n))
        assert calls == [1]

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_hard_spectra(self, complex_valued):
        rng = np.random.default_rng(11)
        cases = {
            "multiplicity_two": rotate([2.0, 2.0, 1.0, 0.0, -1.0, -2.0], rng, complex_valued),
            "near_tie": rotate([1.0, 1.0 - 1e-12, 0.5, 0.0, -0.5, -1.0], rng, complex_valued),
            "negative_top": rotate([-0.5, -1.0, -2.0, -3.0, -4.0, -5.0], rng, complex_valued),
            "zero": np.zeros((6, 6), dtype=complex if complex_valued else float),
            "one_by_one": np.array([[-3.0 + 0j if complex_valued else -3.0]]),
        }
        for name, M in cases.items():
            v = top_eigenvector(M)
            assert_top_eigenvector(M, v)
            assert np.iscomplexobj(v) == complex_valued, name
        assert np.array_equal(top_eigenvector(cases["one_by_one"]), [1.0])

    def test_unverified_steps_raise(self, monkeypatch):
        # without a Cholesky certificate the Lanczos pair is not returned, and
        # a solve that never moves off the start vector never passes the
        # residual check: an error, never an unverified vector
        def no_factor(A):
            raise np.linalg.LinAlgError("refused")
        monkeypatch.setattr(linalg.np.linalg, "cholesky", no_factor)
        monkeypatch.setattr(linalg.np.linalg, "solve", lambda A, b: b)
        with pytest.raises(np.linalg.LinAlgError, match="inverse iteration"):
            top_eigenvector(np.diag([1.0, 2.0, 3.0]))

    def test_krylov_path_needs_no_eigensolver(self):
        # the solved sync matrix (rank one) and its observation are settled by
        # Lanczos alone: no eigvalsh, no inverse iteration
        n = 120
        inst = gen_sync(SyncParams(n=n, sigma=0.3), seed=2)
        _, Z, _ = bm_solve(inst.observed, "max", BmConfig(seed=2))

        def refuse(*args, **kwargs):
            raise AssertionError("exact path called")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg.np.linalg, "eigvalsh", refuse)
            mp.setattr(linalg, "_inverse_iteration_top", refuse)
            fast = {name: top_eigenvector(M, np.sqrt(n)) for name, M in (("Z", Z), ("A", inst.observed))}
        for name, M in (("Z", Z), ("A", inst.observed)):
            assert_top_eigenvector(M, fast[name], np.sqrt(n))
            # the convention picks the same pivot, so the two paths agree entrywise
            assert np.max(np.abs(fast[name] - exact_path(M, np.sqrt(n)))) <= 1e-9, name

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("n", [40, 150])
    def test_planted_gaps_match_the_oracle(self, n, complex_valued, monkeypatch):
        # at n=150 a gap of half the spectrum's width or more is settled by
        # Lanczos; narrower gaps, and n=40 with its 10-step cap, may fall
        # back.  Either way the vector is the oracle's top eigenvector and
        # agrees entrywise with the exact path
        calls = count_exact_path(monkeypatch)
        rng = np.random.default_rng(n + complex_valued)
        for gap in (3.0, 1.0, 0.1, 1e-3):
            M = planted_gap(n, gap, rng, complex_valued)
            before = len(calls)
            v = top_eigenvector(M)
            if n == 150 and gap >= 1.0:
                assert len(calls) == before, gap
            assert_top_eigenvector(M, v)
            assert np.iscomplexobj(v) == complex_valued
            w, U = np.linalg.eigh(M)
            assert abs(np.vdot(v, M @ v).real - w[-1]) <= 1e-9 * (1 + w[-1])
            assert 1 - abs(np.vdot(U[:, -1], v)) <= 1e-9
            assert np.max(np.abs(v - exact_path(M))) <= 1e-9

    def test_phase_pivot_ignores_roundoff_in_equal_moduli(self):
        # every entry of the top eigenvector of a rank-one phase matrix has
        # modulus 1: the pivot is the first entry, whatever the last bits say
        rng = np.random.default_rng(4)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        Z = np.outer(x, x.conj())
        for M in (Z, Z * (1 + 1e-13 * rng.standard_normal((50, 50)))):
            v = top_eigenvector(M, np.sqrt(50))
            assert abs(v[0] - 1.0) <= 1e-10
        # beyond the margin, modulus still decides
        x = np.array([1.0, -(1 + 1e-6)])
        v = top_eigenvector(np.outer(x, x))
        assert v[1] > 0 > v[0]


def test_symmetrize_enforces_exact_symmetry():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    C = M + 1j * rng.standard_normal((5, 5))
    # bit for bit the textbook (M + M*) / 2, and a new array
    assert np.array_equal(symmetrize(C), (C + C.conj().T) / 2)
    assert not np.shares_memory(symmetrize(S), S)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, bool])
def test_symmetrize_promotes_integers_and_bools_to_float(dtype):
    M = np.array([[1, 1, 0], [0, 1, 3], [2, 0, 0]]).astype(dtype)
    S = symmetrize(M)
    assert S.dtype == np.float64
    F = M.astype(float)
    assert np.array_equal(S, (F + F.T) / 2)
