"""Dense symmetric / Hermitian linear algebra kernels.

Everything downstream (solvers, rounding, spectral baselines) goes through
these few primitives: eigendecomposition, PSD projection, the distance to
the psd cone and top eigenvector extraction.  Each computes only the
spectral data its callers read: ``eigh_sorted`` and ``project_psd`` need
every eigenvector, ``psd_residual`` reads eigenvalues only, and
``has_cholesky`` answers "is this matrix psd up to a shift?" with one
Cholesky factorization (n^3/3 flops, no eigensolver).
``top_eigenvector`` first tries a short Lanczos run from a fixed start,
certified by an explicit residual and then by the Frobenius
mass (no other eigenvalue can exceed a Ritz value that holds half of
``||H||_F^2``) or, failing that, by one such factorization; only when both
fail does it pay for ``eigvalsh`` and inverse iteration.  All matrices
are plain numpy arrays; the helpers here validate and symmetrize instead
of wrapping them in dedicated classes.  ``symmetrize`` and
``project_psd`` check their input once; ``symmetrize_unchecked`` and the
kernel ``project_psd_hermitian`` check nothing, for a caller whose
matrices are checked already or finite by construction.  As the base
every other module imports, it also holds the library's input error and
the field check its config classes share.
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
    "symmetrize_unchecked",
    "eigh_sorted",
    "project_psd",
    "project_psd_hermitian",
    "psd_residual",
    "has_cholesky",
    "top_eigenvector",
    "frobenius_norm",
]


class InvalidInputError(ValueError):
    """Raised on malformed numerical input (non-finite, wrong shape, ...)."""


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          bool: (bool, "true or false"), str: (str, "a string"), dict: (dict, "an object"),
          list: ((list, tuple), "a non-empty list of numbers")}


def _is_kind(value, kind) -> bool:
    if not isinstance(value, _KINDS[kind][0]) or (kind is not bool and isinstance(value, bool)):
        return False
    return kind is not list or (len(value) > 0 and all(_is_kind(v, float) for v in value))


def check_value(name: str, value, kind) -> None:
    """Reject ``value`` unless it is of ``kind``: int, float, bool, str, dict
    or list (a non-empty one of real numbers).  A bool counts as no
    number.  Config files land here, so the message names the value."""
    if not _is_kind(value, kind):
        raise InvalidInputError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")


def check_fields(config, kinds: dict, positive=(), nonnegative=()) -> None:
    """Reject a dataclass field whose value is not of its kind in ``kinds``
    (see :func:`check_value`), one in ``positive`` that is not > 0, or one in
    ``nonnegative`` that is < 0."""
    for name, kind in kinds.items():
        value = getattr(config, name)
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


def symmetrize(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return (M + M*)/2, the nearest (conjugate-)symmetric matrix, after
    checking M as ``check_square(M, name)`` does."""
    return symmetrize_unchecked(check_square(M, name))


def symmetrize_unchecked(M: np.ndarray) -> np.ndarray:
    """:func:`symmetrize` without the check, for a caller that has already
    run ``check_square`` on M: integer and bool M is cast to float first.
    The result is a new C-ordered array, equal to M, bit for bit, when M is
    exactly Hermitian."""
    if M.dtype.kind in "biu":
        M = M.astype(float)      # an in-place halving would keep an integer dtype
    out = np.empty(M.shape, M.dtype)
    if M.dtype.kind == "c":
        np.conjugate(M.T, out=out)          # one contiguous pass, then in place
        out += M
    else:
        np.add(M.T, M, out=out)
    out *= 0.5
    return out


def eigh_sorted(M: np.ndarray):
    """Eigenpairs ``(w, V)`` of a (conjugate-)symmetric matrix, ``w`` real and
    descending, ``V`` orthonormal columns with ``M = V @ diag(w) @ V*``."""
    w, V = np.linalg.eigh(symmetrize(M))
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def project_psd(M: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative eigenvalues.

    M is checked (square, finite) and replaced by its Hermitian part; the
    projection itself is :func:`project_psd_hermitian`.
    """
    return project_psd_hermitian(symmetrize(M))


def project_psd_hermitian(H: np.ndarray) -> np.ndarray:
    """The kernel of :func:`project_psd` for an H that is already exactly
    Hermitian and finite; nothing is checked.

    ``eigh`` reads one triangle of H only, so a non-Hermitian H would be
    projected as if its other triangle mirrored that one: callers pass the
    output of :func:`symmetrize` or a matrix they keep exactly Hermitian.
    A non-finite H makes ``eigh`` fail or return NaN.  Only the eigenpairs
    with positive eigenvalues enter the product, so the cost beyond
    ``eigh`` scales with the rank of the result, and the product is
    symmetrized, so the result is exactly Hermitian.
    """
    w, V = np.linalg.eigh(H)
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
    return _factors(H)


def _factors(A: np.ndarray) -> bool:
    """Whether the Hermitian matrix A has a Cholesky factor."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


# top_eigenvector: residual bound relative to 1 + max|w|, the shift above
# lambda in units of n * eps * max|w| (the eigenvalue's roundoff), the
# inverse-iteration steps before giving up (a start vector orthogonal to the
# top eigenvector gains its component from the first solve's roundoff and
# needs all three), and the relative margin within which entries of equal
# modulus tie for the phase pivot.
_SHIFT = 4.0
_EIGVEC_TOL = 1e-10
_MAX_STEPS = 3
_PIVOT_TIE = 1e-8


def _start_vector(n: int) -> np.ndarray:
    """The fixed Lanczos and inverse-iteration start ``(sin 1, ..., sin n)``,
    unit norm: no entry vanishes and it is no eigenvector of a structured
    matrix (the all-ones vector is one of every graph Laplacian)."""
    s = np.sin(np.arange(1.0, n + 1.0))
    return s / np.linalg.norm(s)


def _roundoff_shift(n: int, scale: float) -> float:
    """``4 n eps scale`` (``4 n eps`` when scale = 0): the margin above an
    eigenvalue estimate that absorbs its roundoff."""
    return _SHIFT * n * np.finfo(float).eps * (scale if scale > 0 else 1.0)


def _lanczos_cap(n: int) -> int:
    """Most Lanczos steps before the exact path takes over.  Step k costs
    one product ``H @ q`` and one reorthogonalization pass against k basis
    rows, ``2 n^2 + 4 k n`` flops, so n/4 steps cost at most ``5 n^3 / 8``,
    against about ``2 n^3`` for the exact path's ``eigvalsh`` and first
    solve; the early stop in ``_lanczos_top`` ends a hopeless run long before
    that.  Below n = 32, where call overhead dominates both paths, the cap is
    8 steps, or n, where the Krylov space is the whole space."""
    return min(n, max(8, n // 4))


def _lanczos_top(H: np.ndarray):
    """Top Ritz vector of a short Lanczos run on H from the fixed start,
    returned only when it is certified; None hands over to the exact path.

    The basis is kept as rows, and each new vector is orthogonalized against
    all of them (full reorthogonalization by one classical Gram-Schmidt
    pass; it leaves components of order ``eps ||H q_k|| / beta_k`` along the
    basis, and that ratio stays near 1.4 on noisy spectra, so a second pass
    would buy nothing before the Krylov space is exhausted).  The
    Ritz residual ``beta_k |y_k|`` is read at k = 4, 8, 16, ..., at the cap
    and where the Krylov space is exhausted (``beta_k`` below the residual
    bound; the solved rank-one sync matrix gets there at k = 2).  A top Ritz
    pair (theta, v) whose estimate passes is
    accepted when the explicit ``r = ||H v - theta v||`` passes the same
    bound ``1e-10 (1 + scale)`` (scale: the largest Ritz modulus, never above
    ``max|w|``) and a certificate shows that no eigenvalue lies above
    ``theta + r + d``, ``d = _roundoff_shift(n, scale)``.  The first costs
    one pass over H: ``theta > 0`` and ``F^2 (1 + 4 n eps) <= 2 theta^2``
    with ``F = ||H||_F``.  Then ``H' = H - (s v* + v s*)``, s the residual
    vector, has v as an exact eigenvector, ``||H - H'||_2 = r``, and every
    other eigenvalue of H' is at most ``sqrt(F^2 - theta^2 - 2 r^2) <= theta``
    in modulus, so Weyl's inequality gives ``lambda_max(H) <= theta + r``;
    d absorbs the roundoff of F and of theta as a Rayleigh quotient.  When
    that test declines, ``(theta + r + d) I - H`` must have a Cholesky
    factor.  The run gives up when that factor does not
    exist (the start misses the top eigenspace), when the Krylov space is
    exhausted or the cap reached, or when the estimate's decay since the
    read before, even at twice its rate, would not reach the bound within
    the cap.  The first read is at k = 4 because the first steps still turn
    the Ritz vector toward the top eigenvector, and their decay says little
    about the rest.
    """
    n = H.shape[0]
    cap = _lanczos_cap(n)
    Q = np.empty((cap, n), dtype=np.result_type(H.dtype, float))
    Qh = np.empty_like(Q)         # the conjugated rows, so that Q* w is one product
    Q[0] = Qh[0] = _start_vector(n)
    T = np.zeros((cap, cap))      # Q* H Q: its diagonal and subdiagonal
    check, last = 4, None
    for j in range(cap):
        w = H @ Q[j]
        c = Qh[: j + 1] @ w
        w -= c @ Q[: j + 1]
        T[j, j] = a = c[j].real
        b = np.sqrt(np.vdot(w, w).real)
        k = j + 1
        exhausted = k == cap or b <= _EIGVEC_TOL * (1.0 + abs(a))
        if k == check or exhausted:
            theta, S = np.linalg.eigh(T[:k, :k])
            scale = max(abs(theta[0]), abs(theta[-1]))
            bound = _EIGVEC_TOL * (1.0 + scale)
            ratio = b * abs(S[-1, -1]) / bound
            if ratio <= 1.0:
                v = S[:, -1] @ Q[:k]
                v /= np.linalg.norm(v)
                r = np.linalg.norm(H @ v - theta[-1] * v)
                if r <= bound:
                    top = theta[-1]
                    slack = 1.0 + _SHIFT * n * np.finfo(float).eps
                    if top > 0 and np.vdot(H, H).real * slack <= 2.0 * top**2:
                        return v
                    A = -H
                    A.flat[:: n + 1] += top + r + _roundoff_shift(n, scale)
                    return v if _factors(A) else None
            if exhausted:
                return None
            if last is not None:
                rate = (ratio / last[1]) ** (1.0 / (k - last[0]))
                if rate >= 1.0 or k + 0.5 * np.log(ratio) / -np.log(rate) > cap:
                    return None
            last, check = (k, ratio), min(2 * k, cap)
        T[k, j] = b
        w /= b
        Q[k] = w
        np.conjugate(w, out=Qh[k])
    return None


def _inverse_iteration_top(H: np.ndarray) -> np.ndarray:
    """Top eigenvector from ``lambda_max = eigvalsh(H)[-1]`` and at most
    three inverse-iteration solves with ``(lambda_max + d) I - H`` from the
    fixed start, ``d = _roundoff_shift(n, max|w|)``; a step is
    accepted once ``||H v - lambda_max v|| <= 1e-10 (1 + max|w|)``, and
    ``np.linalg.LinAlgError`` is raised when none is."""
    n = H.shape[0]
    w = np.linalg.eigvalsh(H)
    lam, scale = w[-1], max(abs(w[0]), abs(w[-1]))
    A = -H
    A.flat[:: n + 1] += lam + _roundoff_shift(n, scale)
    v = _start_vector(n)
    for _ in range(_MAX_STEPS):
        v = np.linalg.solve(A, v)
        v /= np.linalg.norm(v)
        if np.linalg.norm(H @ v - lam * v) <= _EIGVEC_TOL * (1.0 + scale):
            return v
    raise np.linalg.LinAlgError(
        f"inverse iteration found no top eigenvector in {_MAX_STEPS} steps")


def top_eigenvector(M: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue.

    A short Lanczos run from a fixed start goes first (see
    ``_lanczos_top``): its top Ritz vector is returned once its explicit
    residual passes ``||H v - theta v|| <= 1e-10 (1 + scale)`` and no
    eigenvalue of the symmetrized input H is shown to lie above ``theta``
    plus that residual and a roundoff shift: without a factorization when
    ``theta > 0`` holds half of ``||H||_F^2`` (then every other eigenvalue
    of H, after a rank-two change of norm r, is at most theta in modulus),
    by a Cholesky factor otherwise.  Otherwise the
    exact path runs: ``lambda_max`` from ``eigvalsh`` and at most 3
    inverse-iteration solves checked against the same residual bound, with
    ``np.linalg.LinAlgError`` when none passes.

    Sign/phase convention: the first entry whose modulus is within a
    relative 1e-8 of the largest gets a non-negative real part, so that
    entries of equal modulus up to roundoff (every entry of the top
    eigenvector of a rank-one phase matrix) cannot move the pivot.  For a
    degenerate top eigenspace any unit maximizer may be returned, with the
    same convention applied.
    """
    H = symmetrize(M)
    v = _lanczos_top(H)
    if v is None:
        v = _inverse_iteration_top(H)
    mod = np.abs(v)
    pivot = v[int(np.argmax(mod >= (1.0 - _PIVOT_TIE) * mod.max()))]
    if abs(pivot) > 0:
        if np.iscomplexobj(v):
            v = v * (pivot.conjugate() / abs(pivot))
        elif pivot.real < 0:
            v = -v
    return v


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(M)))
