"""Dense linear-algebra kernels used throughout the package.

Matrices are 2-D float64 arrays in row-major layout, vectors are 1-D float64
arrays.  All functions are pure and safe to call from multiple threads.
"""

import numpy as np

from .errors import DimensionOverflowError, NumericalError, ShapeError

ENTRY_CAP = 2**31
"""Hard ceiling on the entry count of any produced array."""

NULLSPACE_RTOL = 1e-10
"""Default relative singular-value cutoff for numerical kernels."""

LSTSQ_RTOL = 1e-12
"""Default relative truncation threshold for least-squares solves."""


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D and non-empty, got shape {a.shape}")
    return a


def _as_vector(v, name="vector"):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ShapeError(f"{name} must be 1-D and non-empty, got shape {v.shape}")
    return v


def _check_entries(count, entry_cap):
    if count > entry_cap:
        raise DimensionOverflowError(
            f"result would hold {count} entries, exceeding the cap of {entry_cap}"
        )


def _svd(a, full_matrices):
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {a.shape} matrix") from exc


def kron(a, b):
    """Kronecker product of two matrices, block (i, j) equal to a[i, j] * b."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    _check_entries(a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1], ENTRY_CAP)
    return np.kron(a, b)


def null_space(a, rel_tol=NULLSPACE_RTOL):
    """Orthonormal basis of the numerical kernel of ``a``.

    Returns an (n, k) array whose columns are the right singular vectors with
    singular values sigma_i <= rel_tol * sigma_max (every vector when
    sigma_max == 0).  k may be zero.
    """
    a = _as_matrix(a)
    if not 0 < rel_tol < np.inf:
        raise ShapeError(f"null-space rel_tol must be finite and > 0, got {rel_tol}")
    m, n = a.shape
    if m < n:
        # Zero rows do not change right singular pairs but let the economy
        # SVD return all n right singular vectors.
        a = np.vstack([a, np.zeros((n - m, n))])
    _, s, vt = _svd(a, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return vt.T.copy()
    return vt[s <= rel_tol * smax].T.copy()


def lstsq(a, b, rel_tol=LSTSQ_RTOL, sparsify=None):
    """Minimum-norm least-squares solution of a x = b via truncated SVD.

    Singular values below rel_tol * sigma_max are discarded.  When
    ``sparsify`` is given, a greedy orthogonal-matching-pursuit pass retains
    at most that many nonzero coefficients instead.
    """
    a = _as_matrix(a, "a")
    b = _as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"a has {a.shape[0]} rows but b has dim {b.shape[0]}")
    if sparsify is not None:
        if sparsify < 1:
            raise ShapeError(f"sparsify must be >= 1, got {sparsify}")
        return _omp(a, b, sparsify, rel_tol)
    return _truncated_solve(a, b, rel_tol)[0]


def _truncated_solve(a, b, rel_tol):
    """Truncated-SVD solution and the number of singular values it kept.

    ``b`` is one right-hand side or a matrix of them, one per column.
    """
    u, s, vt = _svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1],) + b.shape[1:]), 0
    keep = s > rel_tol * s[0]
    x = ((u[:, keep].T @ b).T / s[keep]).T
    return vt[keep].T @ x, int(np.count_nonzero(keep))


def _omp(a, b, max_nonzero, rel_tol):
    norms = np.linalg.norm(a, axis=0)
    viable = norms > 0
    bnorm = np.linalg.norm(b)
    residual = b.copy()
    selected: list[int] = []
    coeffs = np.zeros(0)
    for _ in range(min(max_nonzero, int(viable.sum()))):
        corr = np.zeros(a.shape[1])
        corr[viable] = np.abs(a[:, viable].T @ residual) / norms[viable]
        corr[selected] = 0.0
        j = int(np.argmax(corr))
        if corr[j] <= 1e-14 * max(bnorm, 1.0):
            break
        selected.append(j)
        coeffs = _truncated_solve(a[:, selected], b, rel_tol)[0]
        residual = b - a[:, selected] @ coeffs
        if np.linalg.norm(residual) <= 1e-13 * max(bnorm, 1.0):
            break
    x = np.zeros(a.shape[1])
    if selected:
        x[selected] = coeffs
    return x
