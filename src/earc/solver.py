"""Equivariant coupling-matrix basis, coefficient fitting, and the equivariance metric.

The coupling matrix W (shape n*lag x reduced_dim) must intertwine the window
action with the reduced embedding action:

    (g (x) I_lag) W = W Ghat_g   for every group element g.

Enforcing the equation for the generators suffices; the solution space is the
kernel of the stacked constraint matrices K_g = I_q (x) h - Ghat_g^T (x) I_m
under column-stacking vectorisation (h = g (x) I_lag, m = n*lag).
"""

from dataclasses import dataclass

import numpy as np

from . import tensorops
from .errors import DimensionOverflowError, NoFeasibleModelError, ShapeError
from .groups import reduced_action, window_action

NORMAL_EQ_THRESHOLD = 2000
"""Basis sizes above this use the normal-equations fit to bound memory.

``fit_coefficients`` reads it at call time, not as a default argument."""


@dataclass(frozen=True, eq=False)
class EquivariantBasis:
    """Orthonormal basis (under vec inner product) of admissible couplings."""

    state_dim: int
    reduced_dim: int
    matrices: np.ndarray  # (size, state_dim, reduced_dim)

    @property
    def size(self):
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a coefficient fit.

    train_residual is ||W @ H0r - H1||_F / ||H1||_F; equivariance_residual is
    filled in by the training pipeline (nan until then).  rank, rel_tol and
    sparsify are None on models restored from disk.
    """

    coefficients: np.ndarray
    train_residual: float
    equivariance_residual: float
    basis_dim: int
    rank: int | None
    rel_tol: float | None
    sparsify: int | None


def constraint_matrix(g, lag, plan):
    """Stacked-vec form of the intertwiner equation for one generator."""
    ghat = reduced_action(g, lag, plan)
    h = window_action(g, lag)
    m = h.shape[0]
    q = plan.reduced_dim
    return tensorops.kron(np.eye(q), h) - tensorops.kron(ghat.T, np.eye(m))


def equivariant_basis(group, lag, plan, rel_tol=tensorops.NULLSPACE_RTOL,
                      entry_cap=tensorops.ENTRY_CAP):
    """Basis of coupling matrices commuting with every group generator.

    The kernel of the vertically stacked per-generator constraints is computed
    with one SVD; stacking avoids squaring the condition number that forming
    sum(K^T K) would cost.  An empty basis is a valid result and signals an
    over-constrained symmetry.
    """
    if group.n * lag != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match n*lag={group.n * lag}"
        )
    m = plan.dim_in
    q = plan.reduced_dim
    unknowns = m * q
    tensorops._check_entries(len(group.generators) * unknowns * unknowns, entry_cap)
    stacked = np.vstack([constraint_matrix(g, lag, plan) for g in group.generators])
    kernel = tensorops.null_space(stacked, rel_tol)
    mats = np.array([tensorops.unvec(kernel[:, j], m) for j in range(kernel.shape[1])])
    if mats.size == 0:
        mats = np.zeros((0, m, q))
    return EquivariantBasis(state_dim=m, reduced_dim=q, matrices=mats)


def fit_coefficients(basis, h0r, h1, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None,
                     entry_cap=tensorops.ENTRY_CAP):
    """Least-squares coefficients c with sum_j c_j X_j @ h0r ~ h1.

    The design matrix has columns vec(X_j @ h0r).  For basis sizes above
    ``NORMAL_EQ_THRESHOLD`` (or when the design matrix would exceed the entry
    cap) the normal equations are solved instead, trading conditioning for
    bounded memory.
    """
    h0r = tensorops._as_matrix(h0r, "h0r")
    h1 = tensorops._as_matrix(h1, "h1")
    m_basis = basis.size
    if m_basis == 0:
        raise NoFeasibleModelError(
            "equivariant basis is empty: the symmetry admits no coupling matrix"
        )
    if h0r.shape[0] != basis.reduced_dim or h1.shape[0] != basis.state_dim:
        raise ShapeError(
            f"data matrices {h0r.shape}, {h1.shape} do not conform to basis "
            f"({basis.state_dim} x {basis.reduced_dim})"
        )
    if h0r.shape[1] != h1.shape[1]:
        raise ShapeError(
            f"feature and target column counts differ: {h0r.shape[1]} vs {h1.shape[1]}"
        )
    cols = h0r.shape[1]
    design_entries = basis.state_dim * cols * m_basis
    use_normal = m_basis > NORMAL_EQ_THRESHOLD or design_entries > entry_cap
    if use_normal and m_basis * m_basis > entry_cap:
        raise DimensionOverflowError(
            "coefficient system exceeds the memory cap; reduce the embedding "
            "order or the training length"
        )
    target = h1.ravel(order="F")
    if not use_normal:
        mapped = np.einsum("jab,bc->jac", basis.matrices, h0r)
        design = mapped.transpose(0, 2, 1).reshape(m_basis, -1).T
        coeffs = tensorops.lstsq(design, target, rel_tol, sparsify)
        rank = int(np.count_nonzero(coeffs)) if sparsify is not None else _svd_rank(design, rel_tol)
    else:
        # Stream column blocks of the data: gram and right-hand side are exact
        # Frobenius inner products, accumulated without holding the design.
        gram = np.zeros((m_basis, m_basis))
        rhs = np.zeros(m_basis)
        budget = 1 << 23  # entries held per mapped block
        col_block = max(1, budget // (m_basis * basis.state_dim))
        for c0 in range(0, cols, col_block):
            c1 = min(c0 + col_block, cols)
            yb = np.einsum("jab,bc->jac", basis.matrices, h0r[:, c0:c1])
            yb = yb.reshape(m_basis, -1)
            gram += yb @ yb.T
            rhs += yb @ h1[:, c0:c1].ravel()
        coeffs = tensorops.lstsq(gram, rhs, rel_tol, sparsify)
        rank = _svd_rank(gram, rel_tol)
    w = np.tensordot(coeffs, basis.matrices, axes=1)
    h1norm = np.linalg.norm(h1)
    residual = np.linalg.norm(w @ h0r - h1) / (h1norm if h1norm > 0 else 1.0)
    return FitReport(coefficients=coeffs, train_residual=float(residual),
                     equivariance_residual=float("nan"), basis_dim=m_basis,
                     rank=rank, rel_tol=rel_tol,
                     sparsify=sparsify)


def _svd_rank(a, rel_tol):
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def assemble(basis, report):
    """Coupling matrix W = sum_j c_j X_j."""
    if report.coefficients.shape[0] != basis.size:
        raise ShapeError(
            f"{report.coefficients.shape[0]} coefficients for a basis of size {basis.size}"
        )
    return np.tensordot(report.coefficients, basis.matrices, axes=1)


def equivariance_residual(w, group, lag, plan):
    """Sum over all group elements of ||h W - W Ghat||_F in reduced coordinates.

    Zero exactly when W intertwines the window action with the reduced
    embedding action for the whole group.
    """
    w = tensorops._as_matrix(w, "w")
    if w.shape != (group.n * lag, plan.reduced_dim):
        raise ShapeError(
            f"coupling shape {w.shape} does not match ({group.n * lag}, {plan.reduced_dim})"
        )
    total = 0.0
    for g in group.elements:
        ghat = reduced_action(g, lag, plan)
        h = window_action(g, lag)
        total += np.linalg.norm(h @ w - w @ ghat)
    return float(total)


def generator_residuals(w, group, lag, plan):
    """Per-generator commutator norms ||h W - W Ghat||_F."""
    out = []
    for g in group.generators:
        ghat = reduced_action(g, lag, plan)
        h = window_action(g, lag)
        out.append(float(np.linalg.norm(h @ w - w @ ghat)))
    return out


def unconstrained_fit(h0r, h1, rel_tol=tensorops.LSTSQ_RTOL):
    """Minimum-norm least-squares solution of W @ h0r = h1, one row at a time."""
    h0r = tensorops._as_matrix(h0r, "h0r")
    h1 = tensorops._as_matrix(h1, "h1")
    if h0r.shape[1] != h1.shape[1]:
        raise ShapeError(
            f"feature and target column counts differ: {h0r.shape[1]} vs {h1.shape[1]}"
        )
    rows = [tensorops.lstsq(h0r.T, h1[i], rel_tol) for i in range(h1.shape[0])]
    return np.vstack(rows)
