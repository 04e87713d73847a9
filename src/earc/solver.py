"""Equivariant coupling-matrix basis, coefficient fitting, and the equivariance metric.

The coupling matrix W (shape n*lag x reduced_dim) must intertwine the window
action with the reduced embedding action:

    (g (x) I_lag) W = W Ghat_g   for every group element g.

Enforcing the equation for the generators suffices.  Under column-stacking
vectorisation its matrix is K_g = I_q (x) g (x) I_lag - Ghat_g^T (x) I_n (x) I_lag
= K'_g (x) I_lag with the one-lag-slot constraint K'_g = I_q (x) g - Ghat_g^T (x) I_n,
so the kernel is solved for the n*q unknowns of one slot and repeated on every slot.
"""

from dataclasses import dataclass

import numpy as np

from . import tensorops
from .errors import NoFeasibleModelError, ShapeError
from .groups import reduced_action, window_action

NORMAL_EQ_THRESHOLD = 2000
"""One-slot basis size above which an earlier ``fit_coefficients`` solved the
normal equations.  No code in ``src/`` reads it: the fit has one path, and
the constant stays only for the benchmark's ``normal_eq_margin``."""


@dataclass(frozen=True, eq=False)
class EquivariantBasis:
    """Orthonormal basis (under vec inner product) of admissible couplings.

    The group never mixes lag slots, so the basis is the one-slot kernel
    placed on every slot: element j*lag + t is ``slot_matrices[j]`` on the rows
    c*lag + t (channel c) of an otherwise zero (state_dim, reduced_dim) matrix.
    """

    state_dim: int
    reduced_dim: int
    lag: int
    slot_matrices: np.ndarray  # (size // lag, state_dim // lag, reduced_dim)

    @property
    def size(self):
        return self.slot_matrices.shape[0] * self.lag


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
    """Vec form of the intertwiner equation for one generator on one lag slot."""
    ghat = reduced_action(g, lag, plan)
    n = g.shape[0]
    q = plan.reduced_dim
    return tensorops.kron(np.eye(q), g) - tensorops.kron(ghat.T, np.eye(n))


def equivariant_basis(group, lag, plan, rel_tol=tensorops.NULLSPACE_RTOL):
    """Basis of coupling matrices commuting with every group generator.

    The kernel of the vertically stacked one-slot constraints is computed
    with one SVD; stacking avoids squaring the condition number that forming
    sum(K^T K) would cost.  The kernel of K'_g (x) I_lag is the one-slot
    kernel (x) I_lag, orthonormal again, so only the one-slot matrices are
    kept.  An empty basis is a valid result and signals an over-constrained
    symmetry.
    """
    if group.n * lag != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match n*lag={group.n * lag}"
        )
    q = plan.reduced_dim
    unknowns = group.n * q
    tensorops._check_entries(len(group.generators) * unknowns * unknowns, tensorops.ENTRY_CAP)
    stacked = np.vstack([constraint_matrix(g, lag, plan) for g in group.generators])
    kernel = tensorops.null_space(stacked, rel_tol)
    # unvec of every column, in C order: the fit's summation order depends on it
    slots = np.ascontiguousarray(kernel.T.reshape(-1, q, group.n).transpose(0, 2, 1))
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=q, lag=lag,
                            slot_matrices=slots)


def fit_coefficients(basis, h0r, h1, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None):
    """Least-squares coefficients c with sum_j c_j X_j @ h0r ~ h1.

    Basis element j*lag + t acts on lag slot t only, so up to a fixed row and
    column permutation the design matrix [vec(X_j @ h0r)] is I_lag (x) A with
    A = [vec(K_j @ h0r)] over the k one-slot matrices K_j.  One truncated SVD
    of the (n*T, k) matrix A, solved against the lag slots' targets, has the
    design's singular values (each repeated lag times), cutoff and solution,
    and rank lag * rank(A).  ``sparsify`` runs orthogonal matching pursuit on
    the whole design A (x) I_lag instead, and the rank is the nonzero count.

    When the data has T >= 2 (q + n*lag) columns, A is built from the R factor
    of the (T, q + n*lag) matrix [h0r; h1]^T instead of the data: with
    [h0r; h1] = R^T Q^T and Q orthonormal, every residual sum_j c_j X_j h0r - h1
    has the Frobenius norm of sum_j c_j X_j R0^T - R1^T, so the fit (truncated
    or sparse) is the same least-squares problem on n (q + n*lag) rows of A
    instead of n*T.  Shorter data, such as both paper experiments, is fitted
    directly: there the saving is small, and the direct fit keeps their
    models bit for bit.  ``train_residual`` is always measured on the caller's
    data.

    Either way A has fewer than 2 n (q + n*lag) rows and at most n*q columns,
    under four times the entries of the one-slot constraint block that
    ``equivariant_basis`` factorises, so there is no fallback solver: a
    design above ``tensorops.ENTRY_CAP`` raises before it is built.
    """
    h0r = tensorops._as_matrix(h0r, "h0r")
    h1 = tensorops._as_matrix(h1, "h1")
    if not 0 <= rel_tol < np.inf:
        raise ShapeError(f"least-squares rel_tol must be finite and >= 0, got {rel_tol}")
    if basis.size == 0:
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
    h0_fit, h1_fit = h0r, h1
    q = h0r.shape[0]
    if h0r.shape[1] >= 2 * (q + h1.shape[0]):
        r = np.linalg.qr(np.vstack([h0r, h1]).T, mode="r")
        h0_fit, h1_fit = r[:, :q].T, r[:, q:].T
    slots = basis.slot_matrices
    k, n, _ = slots.shape
    lag = basis.lag
    # matching pursuit needs the whole design, lag*lag times the entries of A
    held = 1 if sparsify is None else lag * lag
    tensorops._check_entries(n * h0_fit.shape[1] * k * held, tensorops.ENTRY_CAP)
    a, rhs = _slot_system(slots, h0_fit, h1_fit)
    if sparsify is None:
        coeffs, rank = tensorops._truncated_solve(a, rhs, rel_tol)
        coeffs = coeffs.ravel()
        rank *= lag
    else:
        # A (x) I_lag is the whole design in vec(h1) row order
        coeffs = tensorops.lstsq(tensorops.kron(a, np.eye(lag)), rhs.ravel(), rel_tol,
                                 sparsify)
        rank = int(np.count_nonzero(coeffs))
    w = _combine(basis, coeffs)
    h1norm = np.linalg.norm(h1)
    residual = np.linalg.norm(w @ h0r - h1) / (h1norm if h1norm > 0 else 1.0)
    return FitReport(coefficients=coeffs, train_residual=float(residual),
                     equivariance_residual=float("nan"), basis_dim=basis.size,
                     rank=rank, rel_tol=rel_tol, sparsify=sparsify)


def _slot_system(slots, h0r, h1):
    """A = [vec(K_j @ h0r)] and its right-hand sides: column t is vec of slot
    t's target rows c*lag + t."""
    k, n, _ = slots.shape
    a = np.einsum("jab,bc->jac", slots, h0r).transpose(0, 2, 1).reshape(k, -1).T
    return a, h1.reshape(n, -1, h1.shape[1]).transpose(2, 0, 1).reshape(a.shape[0], -1)


def _combine(basis, coefficients):
    """sum_j c_j X_j: slot t's rows are sum_j c[j*lag + t] K_j."""
    c = coefficients.reshape(-1, basis.lag)
    slots = [np.tensordot(c[:, t], basis.slot_matrices, axes=1) for t in range(basis.lag)]
    return np.stack(slots, axis=1).reshape(basis.state_dim, basis.reduced_dim)


def assemble(basis, report):
    """Coupling matrix W = sum_j c_j X_j."""
    if report.coefficients.shape[0] != basis.size:
        raise ShapeError(
            f"{report.coefficients.shape[0]} coefficients for a basis of size {basis.size}"
        )
    return _combine(basis, report.coefficients)


def equivariance_residual(w, group, lag, plan):
    """Sum over all group elements of ||h W - W Ghat||_F in reduced coordinates.

    Zero exactly when W intertwines the window action with the reduced
    embedding action for the whole group.
    """
    total = 0.0
    for r in equivariance_residuals(w, group, lag, plan):
        total += r
    return float(total)


def equivariance_residuals(w, group, lag, plan):
    """Per-element commutator norms ||h W - W Ghat||_F, in ``group.elements`` order."""
    w = _coupling(w, group, lag, plan)
    return [_commutator_norm(w, g, lag, plan) for g in group.elements]


def generator_residuals(w, group, lag, plan):
    """Per-generator commutator norms ||h W - W Ghat||_F."""
    w = _coupling(w, group, lag, plan)
    return [_commutator_norm(w, g, lag, plan) for g in group.generators]


def _commutator_norm(w, g, lag, plan):
    """||h W - W Ghat||_F of one element for a checked coupling ``w``."""
    ghat = reduced_action(g, lag, plan)
    h = window_action(g, lag)
    return float(np.linalg.norm(h @ w - w @ ghat))


def _coupling(w, group, lag, plan):
    """``w`` as a float matrix, checked to be (n*lag, reduced_dim)."""
    w = tensorops._as_matrix(w, "w")
    if w.shape != (group.n * lag, plan.reduced_dim):
        raise ShapeError(
            f"coupling shape {w.shape} does not match ({group.n * lag}, {plan.reduced_dim})"
        )
    return w
