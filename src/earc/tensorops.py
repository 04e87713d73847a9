"""Dense linear-algebra kernels used throughout the package.

Matrices are 2-D float64 arrays in row-major layout, vectors are 1-D float64
arrays.  All functions are pure and safe to call from multiple threads.
"""

import numpy as np

from .errors import DimensionOverflowError, NumericalError, ShapeError

ENTRY_CAP = 2**28
"""Hard ceiling on the entry count of any produced array.  Every array earc
builds holds float64 or int64, so the cap is a budget of 8 * 2^28 bytes =
2 GiB per array."""

LSTSQ_RTOL = 1e-12
"""Relative truncation threshold of least-squares solves: the cutoff of
``solver.fit_coefficients``, which no option changes."""


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


def _check_entries(count):
    if count > ENTRY_CAP:
        raise DimensionOverflowError(
            f"result would hold {count} entries, exceeding the cap of {ENTRY_CAP}"
        )


def _svd(a, full_matrices):
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {a.shape} matrix") from exc


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


def _omp(a, rhs, max_nonzero, rel_tol):
    """Orthogonal matching pursuit on (a (x) I_L) x ~ rhs.ravel(), rhs (rows of a, L), keeping
    at most ``max_nonzero`` nonzeros.  Atom j*L + t is column j of ``a`` fitted to column t of
    ``rhs``, with correlation |a^T R|[j, t] / ||a_j|| to the residual R.  Each refit builds only
    its support's columns of a (x) I_L, as the broadcast products a[r, j] * I_L[t, s]."""
    rows, lag = rhs.shape
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0, norms, np.inf)[:, None]  # a zero column correlates as 0 / inf
    b = rhs.ravel()
    bnorm = np.linalg.norm(b)
    residual = b
    selected: list[int] = []
    x = np.zeros(a.shape[1] * lag)
    for _ in range(min(max_nonzero, lag * np.count_nonzero(norms > 0))):
        corr = (np.abs(a.T @ residual.reshape(rows, lag)) / scale).ravel()
        corr[selected] = 0.0
        j = int(np.argmax(corr))
        if corr[j] <= 1e-14 * max(bnorm, 1.0):
            break
        selected.append(j)
        cols, slots = np.divmod(selected, lag)
        design = (a[:, None, cols] * np.eye(lag)[:, slots]).reshape(rows * lag, -1)
        x[selected] = _truncated_solve(design, b, rel_tol)[0]
        residual = b - design @ x[selected]
        if np.linalg.norm(residual) <= 1e-13 * max(bnorm, 1.0):
            break
    return x
