"""Dense symmetric / Hermitian linear algebra kernels.

Everything downstream (solvers, rounding, spectral baselines) goes through
these few primitives: eigendecomposition, PSD projection and top
eigenvector extraction.  All matrices are plain numpy
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


def top_eigenvector(M: np.ndarray, target_norm: float = 1.0) -> np.ndarray:
    """Eigenvector of the largest eigenvalue, scaled to ``target_norm``.

    Sign/phase convention: the entry of largest modulus gets a non-negative
    real part (first such entry on ties).  For a degenerate top eigenspace
    any unit maximizer may be returned, with the same convention applied.
    """
    v = eigh_sorted(M)[1][:, 0]
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
