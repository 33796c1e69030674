"""Dense symmetric / Hermitian linear algebra kernels.

Everything downstream (solvers, rounding, spectral baselines) goes through
these few primitives: eigendecomposition, PSD projection, the distance to
the psd cone and top eigenvector extraction.  Each computes only the
spectral data its callers read: ``eigh_sorted`` and ``project_psd`` need
every eigenvector, ``psd_residual`` reads eigenvalues only,
``top_eigenvector`` reads the eigenvalues and solves one shifted system per
inverse-iteration step, and ``has_cholesky`` answers "is this matrix psd up
to a shift?" with one Cholesky factorization (n^3/3 flops, no eigensolver).
All matrices are plain numpy
arrays; the helpers here validate and symmetrize instead of wrapping them
in dedicated classes.  As the base every other module imports, it also
holds the library's input error and the field check its config classes share.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "InvalidInputError",
    "check_value",
    "check_fields",
    "check_square",
    "symmetrize",
    "is_hermitian",
    "eigh_sorted",
    "project_psd",
    "psd_residual",
    "has_cholesky",
    "top_eigenvector",
    "frobenius_norm",
]


class InvalidInputError(ValueError):
    """Raised on malformed numerical input (non-finite, wrong shape, ...)."""


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          bool: (bool, "true or false"), str: (str, "a string"), dict: (dict, "an object"),
          list: ((list, tuple), "a non-empty list of numbers"), np.ndarray: (np.ndarray, "an array")}


def _is_kind(value, kind) -> bool:
    if not isinstance(value, _KINDS[kind][0]) or (kind is not bool and isinstance(value, bool)):
        return False
    return kind is not list or (len(value) > 0 and all(_is_kind(v, float) for v in value))


def check_value(name: str, value, kind) -> None:
    """Reject ``value`` unless it is of ``kind``: int, float, bool, str, dict,
    list (a non-empty one of real numbers) or ndarray.  A bool counts as no
    number.  Config files land here, so the message names the value."""
    if not _is_kind(value, kind):
        raise InvalidInputError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")


def check_fields(config, kinds: dict, positive=(), nonnegative=()) -> None:
    """Reject a dataclass field whose value is not of its kind in ``kinds``
    (see :func:`check_value`), one in ``positive`` that is not > 0, or one in
    ``nonnegative`` that is < 0.  None passes where it is the field's default."""
    for name, kind in kinds.items():
        value = getattr(config, name)
        if value is None and config.__dataclass_fields__[name].default is None:
            continue
        check_value(name, value, kind)
        if name in positive and value <= 0:
            raise InvalidInputError(f"{name} must be > 0, got {value!r}")
        if name in nonnegative and value < 0:
            raise InvalidInputError(f"{name} must be >= 0, got {value!r}")


def check_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise InvalidInputError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return M


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, the nearest (conjugate-)symmetric matrix."""
    M = check_square(M)
    return (M + M.conj().T) / 2


def is_hermitian(M: np.ndarray, tol: float = 1e-10) -> bool:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    scale = 1.0 + frobenius_norm(M)
    return float(frobenius_norm(M - M.conj().T)) <= tol * scale


def eigh_sorted(M: np.ndarray):
    """Eigenpairs ``(w, V)`` of a (conjugate-)symmetric matrix, ``w`` real and
    descending, ``V`` orthonormal columns with ``M = V @ diag(w) @ V*``."""
    M = check_square(M)
    w, V = np.linalg.eigh(symmetrize(M))
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def project_psd(M: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative eigenvalues.

    Only the eigenpairs with positive eigenvalues enter the product, so the
    cost beyond ``eigh`` scales with the rank of the result.
    """
    w, V = np.linalg.eigh(symmetrize(M))
    first = int(np.searchsorted(w, 0.0, side="right"))    # w is ascending
    Vp = V[:, first:]
    out = (Vp * w[first:]) @ Vp.conj().T
    return (out + out.conj().T) / 2


def psd_residual(M: np.ndarray) -> float:
    """``||project_psd(M) - M||_F`` from the eigenvalues alone.

    With H = (M + M*)/2 and K = (M - M*)/2 the difference is
    ``-V diag(min(w, 0)) V* - K`` for the eigenpairs ``(w, V)`` of H.  A
    Hermitian and an anti-Hermitian matrix are orthogonal in the real
    Frobenius inner product, so its norm is ``sqrt(||min(w, 0)||^2 + ||K||^2)``,
    exact for non-Hermitian input too.
    """
    M = check_square(M)
    Mh = M.conj().T
    w = np.linalg.eigvalsh((M + Mh) / 2)
    return float(np.hypot(np.linalg.norm(w[w < 0]), frobenius_norm(M - Mh) / 2))


def has_cholesky(M: np.ndarray, shift: float) -> bool:
    """Whether the Hermitian part of M plus ``shift * I`` has a Cholesky factor.

    A factor exists only for a positive definite matrix, up to the
    factorization's backward error (of order ``n * eps * ||M||_2``), so a
    True certifies ``lambda_min((M + M*)/2) >= -shift`` to that roundoff;
    a False settles nothing about matrices near the boundary.
    """
    H = symmetrize(M)
    H.flat[:: H.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


# inverse iteration in top_eigenvector: shift above lambda_max in units of
# n * eps * max|w| (the eigenvalue's roundoff), residual bound relative to
# 1 + max|w|, and steps before giving up.  A start vector orthogonal to the
# top eigenvector gains its component from the first solve's roundoff and
# needs all three steps.
_SHIFT = 4.0
_EIGVEC_TOL = 1e-10
_MAX_STEPS = 3


def _start_vector(n: int) -> np.ndarray:
    """The fixed inverse-iteration start ``(sin 1, ..., sin n)``, unit norm:
    no entry vanishes and it is no eigenvector of a structured matrix (the
    all-ones vector is one of every graph Laplacian)."""
    s = np.sin(np.arange(1.0, n + 1.0))
    return s / np.linalg.norm(s)


def top_eigenvector(M: np.ndarray, target_norm: float = 1.0) -> np.ndarray:
    """Eigenvector of the largest eigenvalue, scaled to ``target_norm``.

    ``lambda_max`` comes from ``eigvalsh`` of the symmetrized input H, the
    vector from inverse iteration with ``(lambda_max + d) I - H`` from a
    fixed start, ``d = 4 n eps max|w|`` (``4 n eps`` when H = 0).  A step is
    accepted once ``||H v - lambda_max v|| <= 1e-10 (1 + max|w|)``; when none
    of 3 steps is, ``np.linalg.LinAlgError`` is raised.

    Sign/phase convention: the entry of largest modulus gets a non-negative
    real part (first such entry on ties).  For a degenerate top eigenspace
    any unit maximizer may be returned, with the same convention applied.
    """
    H = symmetrize(M)
    n = H.shape[0]
    w = np.linalg.eigvalsh(H)
    lam, scale = w[-1], max(abs(w[0]), abs(w[-1]))
    A = -H
    A.flat[:: n + 1] += lam + _SHIFT * n * np.finfo(float).eps * (scale if scale > 0 else 1.0)
    v = _start_vector(n)
    for _ in range(_MAX_STEPS):
        v = np.linalg.solve(A, v)
        v /= np.linalg.norm(v)
        if np.linalg.norm(H @ v - lam * v) <= _EIGVEC_TOL * (1.0 + scale):
            break
    else:
        raise np.linalg.LinAlgError(
            f"inverse iteration found no top eigenvector in {_MAX_STEPS} steps")
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) > 0:
        if np.iscomplexobj(v):
            v = v * (pivot.conjugate() / abs(pivot))
        elif pivot.real < 0:
            v = -v
    return v * target_norm


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(M)))
