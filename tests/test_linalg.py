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


def assert_top_eigenvector(M, v, target_norm=1.0):
    """Unit top eigenvector up to the oracle test's residual bound, with the
    sign convention on the entry of largest modulus."""
    lam_oracle = np.linalg.eigvalsh(symmetrize(M)).max()
    assert abs(np.linalg.norm(v) - target_norm) <= 1e-12 * target_norm
    u = v / target_norm
    assert np.linalg.norm(M @ u - lam_oracle * u) <= 1e-8 * (1 + frobenius_norm(M))
    pivot = u[np.argmax(np.abs(u))]
    assert pivot.real >= 0 and abs(pivot.imag) <= 1e-12


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
    def test_top_eigenvector_orthogonal_to_start(self, n, complex_valued):
        M = orthogonal_to_start(n, np.random.default_rng(n), complex_valued)
        assert_top_eigenvector(M, top_eigenvector(M, target_norm=np.sqrt(n)), np.sqrt(n))

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
        # a solve that never moves off the start vector never passes the
        # residual check: an error, never an unverified vector
        monkeypatch.setattr(linalg.np.linalg, "solve", lambda A, b: b)
        with pytest.raises(np.linalg.LinAlgError):
            top_eigenvector(np.diag([1.0, 2.0, 3.0]))


def test_symmetrize_enforces_exact_symmetry():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
