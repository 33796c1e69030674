import numpy as np
import pytest

from graphsdp.linalg import (
    InvalidInputError,
    eigh_sorted,
    frobenius_norm,
    project_psd,
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


def test_symmetrize_enforces_exact_symmetry():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
