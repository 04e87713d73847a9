"""Equivariant coupling-matrix basis, coefficient fitting, and the equivariance metric.

The coupling matrix W (shape n*lag x reduced_dim) must intertwine the window
action with the reduced embedding action:

    (g (x) I_lag) W = W Ghat_g   for every group element g.

Enforcing the equation for the generators suffices.  Under column-stacking
vectorisation its matrix is K_g = I_q (x) g (x) I_lag - Ghat_g^T (x) I_n (x) I_lag
= K'_g (x) I_lag with the one-lag-slot constraint K'_g = I_q (x) g - Ghat_g^T (x) I_n,
so the kernel is solved for the n*q unknowns of one slot and repeated on every slot.
One ``groups.action_rows`` call gives the sparse rows of every generator's
Ghat_g; nothing here forms a dense Ghat_g, nor the whole stack of the K'_g.

Ghat_g never mixes monomial degrees, so the kernel is a direct sum over degree
blocks, and the dimension of block k's share is the character count
(1/|G|) sum_g tr(g) tr(Ghat_g^(k)) (Serre, *Linear Representations of Finite
Groups*, 1977).  The unknowns of blocks whose count is 0 are left out: every
even degree of k4, for instance, because -I is in the group.  The rest split
further, into the connected components of the generators' Ghat pattern.  Each
component's block of the stacked K'_g is filled straight from the rows, and
the kernel is found by one stacked SVD of the blocks per component size.
"""

from dataclasses import dataclass

import numpy as np

from . import tensorops
from .errors import NumericalError, ShapeError
from .groups import action_rows

NORMAL_EQ_THRESHOLD = 2000
"""One-slot basis size above which an earlier ``fit_coefficients`` solved the
normal equations.  No code in ``src/`` reads it: the fit has one path, and
the constant stays only for the benchmark's ``normal_eq_margin``."""

KERNEL_RTOL = 1e-10
"""Relative singular-value bound of the basis's count check, not a cutoff that
selects the kernel; each component's values are taken relative to that
component's largest.  Measured gap on k4, z5 and C_3 and their conjugates by
a random orthogonal matrix, at lags 1-5 and orders 2-4 where the constraint
has at most 3e7 entries: dropped values at most 1.9e-15, kept ones at least
0.205 (z5 conjugated, order 4)."""

CHARACTER_TOL = 1e-6
"""Largest distance from an integer that ``degree_kernel_dims`` accepts in a
character count.  Each term tr(g) tr(Ghat_g^(k)) is at most n times the block
size in magnitude, so rounding moves a count by about 1e-16 of that.  Measured
at lags 1-5 and orders 2-4: exactly 0 for k4 and z5, at most 7.1e-15 for C_3
and at most 2.8e-14 for k4, z5 and C_3 conjugated by random orthogonal
matrices."""


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
    filled in by the training pipeline (nan until then).  coefficients and
    rank are None on models restored from disk: model files store only the
    coupling and the basis size.
    """

    coefficients: np.ndarray
    train_residual: float
    equivariance_residual: float
    basis_dim: int
    rank: int | None


def degree_kernel_dims(group, lag, order):
    """Kernel dimension of the one-slot constraint on each degree block.

    Entry k (k = 1..order, and 0 for the constant) is the character count
    (1/|G|) sum_g tr(g) tr(Ghat_g^(k)).  The degree-k block of Ghat_g is the
    action of h = g (x) I_lag on degree-k polynomials, Sym^k(h), whose trace is
    the complete homogeneous polynomial h_k of h's eigenvalues.  With the
    signed elementary polynomials s_i = (-1)^(i+1) e_i, which vanish past
    r = min(order, n lag), h_k = sum_{i=1..min(k, r)} s_i h_{k-i}, and Newton's
    identities i s_i = p_i - sum_{j<i} p_j s_{i-j} give them from the power
    sums p_j = tr(h^j) = lag tr(g^j), without eigenvalues or Ghat_g: r matrix
    powers and O(order r) work per element.  A count further than
    CHARACTER_TOL from an integer raises NumericalError rather than decide
    whether a block is empty.
    """
    r = min(order, group.n * lag)
    powers = np.empty((r, group.order, group.n, group.n))
    powers[0] = group.elements
    for j in range(1, r):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    traces = powers.trace(axis1=2, axis2=3)  # [j - 1, g] = tr(g^j)
    sums = lag * traces
    signed = np.empty((r, group.order))  # [i - 1] = s_i
    for i in range(r):
        signed[i] = (sums[i] - (sums[:i] * signed[:i][::-1]).sum(axis=0)) / (i + 1)
    complete = np.ones((order + 1, group.order))
    for k in range(1, order + 1):
        # sum over i = 1..min(k, r) of s_i h_{k-i}: the rows of h below k, in reverse
        last = min(k, r)
        complete[k] = (signed[:last] * complete[k - last:k][::-1]).sum(axis=0)
    counts = complete @ traces[0] / group.order
    dims = np.rint(counts)
    off = float(abs(counts - dims).max())
    if off > CHARACTER_TOL:
        raise NumericalError(
            f"character counts {counts.tolist()} are {off:.1e} from integers"
        )
    return dims.astype(np.int64)


def basis_features(dims, plan):
    """Ascending feature indices of the degree blocks whose character count in
    ``dims`` is not 0; the degree-1 block always has count lag * <chi, chi> >= 1."""
    blocks = [np.arange(lo, hi) for k, (lo, hi, *_) in enumerate(plan.blocks, 1) if dims[k]]
    if dims[0]:
        blocks.append(np.array([plan.reduced_dim - 1]))
    return np.concatenate(blocks)


def equivariant_basis(group, lag, plan):
    """Basis of coupling matrices commuting with every group generator.

    Its size is the sum d of the character counts.  Feature c's unknowns
    meet feature r's only where some generator has Ghat_g[r, c] != 0, so the
    generators' stacked one-slot constraints on the unknowns of
    ``basis_features`` are block-diagonal over the connected components of
    that pattern: monomial orbits for a signed permutation group; for a dense
    group, at most the monomials of one degree on one multiset of lag slots,
    which no element mixes.  One ``action_rows`` call gives the pattern's
    nonzero (row, column) pairs, which label the components, and the entries
    of each component's (E*n*s, n*s) block.  Each component size gets one
    zeroed stack of its blocks: g on the diagonal blocks, then each nonzero
    Ghat_g[r, c] subtracted at row (c, i) and column (r, i) for every channel
    i, bit for bit the entries of the whole stacked constraint, which is
    never formed.  (Stacking avoids squaring the condition number, as
    sum(K^T K) would.)

    Each component's kernel is the last right singular vectors of its block,
    from one stacked SVD per component size.  NumericalError is raised
    unless, in every degree block, the components hold exactly the block's
    character count of singular values at most KERNEL_RTOL times their own
    largest.  Only then are the slot matrices allocated, once, and each
    kernel vector is written to its row: the components by their smallest
    feature, each component's vectors in LAPACK's order.  The kernel of
    K'_g (x) I_lag is the one-slot kernel (x) I_lag, so only the one-slot
    matrices are kept, zero on the left-out features.
    """
    if group.n * lag != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match n*lag={group.n * lag}"
        )
    dims = degree_kernel_dims(group, lag, plan.order)
    features = basis_features(dims, plan)
    elements = np.array(group.generators)
    e, n = elements.shape[:2]
    _, cols, vals = action_rows(elements, lag, plan)
    # each nonzero Ghat_e[features[row], features[col]]; the +0.0 padding is
    # skipped, and Ghat maps the kept degree blocks to themselves
    elem, row, entry = np.nonzero(vals[:, features])
    ghat = vals[elem, features[row], entry]
    col = np.searchsorted(features, cols[elem, features[row], entry])
    component = _components(features.size, row, col)
    sizes = np.bincount(component)
    members = np.argsort(component, kind="stable")  # ascending within each component
    starts = np.cumsum(sizes) - sizes
    position = np.empty_like(members)  # of each feature within its component
    position[members] = np.arange(features.size) - starts[component[members]]
    found = np.zeros(sizes.size, dtype=np.int64)
    kernels = []
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        tensorops._check_entries(comps.size * e * (n * size) ** 2)
        stack = np.zeros((comps.size, e, size, n, size, n))
        stack[:, :, np.arange(size), :, np.arange(size), :] = elements
        on = np.flatnonzero(sizes[component[row]] == size)
        i = np.arange(n)
        stack[np.searchsorted(comps, component[row[on]])[:, None], elem[on, None],
              position[col[on], None], i, position[row[on], None], i] -= ghat[on, None]
        # as many rows as unknowns at least, so vt holds every right singular vector
        _, s, vt = tensorops._svd(stack.reshape(comps.size, e * n * size, n * size),
                                  full_matrices=False)
        found[comps] = np.count_nonzero(s <= KERNEL_RTOL * s[:, :1], axis=1)
        kernels.append(vt[np.arange(n * size) >= n * size - found[comps, None]])
    # the degree of each component's smallest feature; the constant, past the
    # last block, wraps to 0
    degree = np.searchsorted([hi for _, hi, *_ in plan.blocks], features[members[starts]],
                             side="right") + 1
    kernel = np.bincount(degree % (plan.order + 1), found, minlength=dims.size)
    wrong = np.flatnonzero(kernel != dims)
    if wrong.size:
        k = wrong[0]
        raise NumericalError(
            f"{int(kernel[k])} singular values of the degree-{k} block's components are at "
            f"most {KERNEL_RTOL:.0e} of their component's largest, not the character count "
            f"{dims[k]}")
    # unvec of every kernel vector into its row, in component order: the
    # fit's summation order depends on it
    owner = np.repeat(np.arange(sizes.size), found)
    tensorops._check_entries(owner.size * n * plan.reduced_dim)
    slots = np.zeros((owner.size, n, plan.reduced_dim))
    for vectors in kernels:
        size = vectors.shape[1] // n
        at = np.flatnonzero(sizes[owner] == size)
        on = features[members[starts[owner[at], None] + np.arange(size)]]
        slots[at[:, None], :, on] = vectors.reshape(-1, size, n)
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=plan.reduced_dim, lag=lag,
                            slot_matrices=slots)


def _components(count, a, b):
    """Connected component of each of ``count`` features under the edges
    (a, b) and their reverses, numbered by the components' smallest features:
    label propagation to the smallest feature reachable, with pointer jumping."""
    a, b = np.concatenate([a, b]), np.concatenate([b, a])
    label = np.arange(count)
    while True:
        lower = label.copy()
        np.minimum.at(lower, a, label[b])
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    return np.searchsorted(np.flatnonzero(label == np.arange(count)), label)


def fit_coefficients(basis, h0r, h1, sparsify=None):
    """Least-squares coefficients c with sum_j c_j X_j @ h0r ~ h1.

    Basis element j*lag + t acts on lag slot t only, so up to a fixed row and
    column permutation the design matrix [vec(X_j @ h0r)] is I_lag (x) A with
    A = [vec(K_j @ h0r)] over the k one-slot matrices K_j.  One truncated SVD
    of the (n*T, k) matrix A, solved against the lag slots' targets, has the
    design's singular values (each repeated lag times), cutoff and solution,
    and rank lag * rank(A).  The cutoff is ``tensorops.LSTSQ_RTOL`` of the
    largest singular value.  ``sparsify`` runs orthogonal matching pursuit on
    the whole design A (x) I_lag instead, and the rank is the nonzero count.

    When the data has T >= 2 (q + n*lag) columns, A is built from the R factor
    of [h0r_u; h1]^T instead of the data, where h0r_u holds the u rows of h0r
    on which some basis element is nonzero: a feature that every X_j ignores
    adds nothing to any sum_j c_j X_j h0r.  With [h0r_u; h1] = R^T Q^T and Q
    orthonormal, every residual sum_j c_j X_j h0r - h1 has the Frobenius norm
    of sum_j c_j X_j^u R0^T - R1^T, so the fit (truncated or sparse) is the
    same least-squares problem on n (u + n*lag) rows of A instead of n*T.
    For k4 (-I is in the group, so every even degree is left out) the QR is
    u + n*lag = 68 columns wide at lag 3, order 3, not q + n*lag = 90.
    Shorter data, such as both paper experiments, is fitted directly: there
    the saving is small, and the direct fit keeps their models bit for bit.
    ``train_residual`` is always measured on the caller's data.

    Either way A has fewer than 2 n (q + n*lag) rows and at most n*q columns,
    so there is no fallback solver: a design above ``tensorops.ENTRY_CAP``
    raises before it is built.
    """
    h0r = tensorops._as_matrix(h0r, "h0r")
    h1 = tensorops._as_matrix(h1, "h1")
    # equivariant_basis never returns an empty basis: its degree-1 count is >= 1
    if basis.size == 0 or h0r.shape[0] != basis.reduced_dim or h1.shape[0] != basis.state_dim:
        raise ShapeError(
            f"data matrices {h0r.shape}, {h1.shape} do not conform to basis "
            f"({basis.state_dim} x {basis.reduced_dim}, {basis.size} elements)"
        )
    if h0r.shape[1] != h1.shape[1]:
        raise ShapeError(
            f"feature and target column counts differ: {h0r.shape[1]} vs {h1.shape[1]}"
        )
    if sparsify is not None and sparsify < 1:
        raise ShapeError(f"sparsify must be >= 1, got {sparsify}")
    h0_fit, h1_fit = h0r, h1
    slots = basis.slot_matrices
    if h0r.shape[1] >= 2 * (h0r.shape[0] + h1.shape[0]):
        used = np.flatnonzero(slots.any(axis=(0, 1)))
        # LAPACK factorises column-major input without a strided copy
        stack = np.empty((h0r.shape[1], used.size + h1.shape[0]), order="F")
        for col, feature in enumerate(used):
            stack[:, col] = h0r[feature]
        stack[:, used.size:] = h1.T
        r = np.linalg.qr(stack, mode="r")
        slots = slots[:, :, used]
        h0_fit, h1_fit = r[:, :used.size].T, r[:, used.size:].T
    k, n, _ = slots.shape
    lag = basis.lag
    # matching pursuit needs the whole design, lag*lag times the entries of A
    held = 1 if sparsify is None else lag * lag
    tensorops._check_entries(n * h0_fit.shape[1] * k * held)
    a, rhs = _slot_system(slots, h0_fit, h1_fit)
    if sparsify is None:
        coeffs, rank = tensorops._truncated_solve(a, rhs, tensorops.LSTSQ_RTOL)
        coeffs = coeffs.ravel()
        rank *= lag
    else:
        # A (x) I_lag is the whole design in vec(h1) row order
        coeffs = tensorops._omp(np.kron(a, np.eye(lag)), rhs.ravel(), sparsify,
                                tensorops.LSTSQ_RTOL)
        rank = int(np.count_nonzero(coeffs))
    w = _combine(basis, coeffs)
    h1norm = np.linalg.norm(h1)
    residual = np.linalg.norm(w @ h0r - h1) / (h1norm if h1norm > 0 else 1.0)
    return FitReport(coefficients=coeffs, train_residual=float(residual),
                     equivariance_residual=float("nan"), basis_dim=basis.size,
                     rank=rank)


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
    return _commutator_norms(_coupling(w, group, lag, plan), group.elements, lag, plan)


def generator_residuals(w, group, lag, plan):
    """Per-generator commutator norms ||h W - W Ghat||_F."""
    return _commutator_norms(_coupling(w, group, lag, plan), group.generators, lag, plan)


def _commutator_norms(w, elements, lag, plan):
    """||h W - W Ghat||_F of each element for a checked coupling ``w``.

    Ghat comes as the sparse rows of ``action_rows``, built once for all
    elements, and W Ghat is one ``np.bincount``: entry (e, i, c) sums
    w[i, j] * Ghat_e[j, c] over the row entries of Ghat_e at column c, by
    ascending j, from +0.0.  No dense Ghat is formed.
    """
    h, cols, vals = action_rows(np.array(elements), lag, plan)
    e, q, _ = cols.shape
    rows = w.shape[0]
    tensorops._check_entries(rows * cols.size)
    index = cols[:, None] + np.arange(0, e * rows * q, q).reshape(e, rows, 1, 1)
    w_ghat = np.bincount(index.ravel(), (w[:, :, None] * vals[:, None]).ravel(),
                         minlength=e * rows * q)
    diff = np.matmul(h, w)
    diff -= w_ghat.reshape(e, rows, q)
    return [float(np.linalg.norm(d)) for d in diff]


def _coupling(w, group, lag, plan):
    """``w`` as a float matrix, checked to be (n*lag, reduced_dim)."""
    w = tensorops._as_matrix(w, "w")
    if w.shape != (group.n * lag, plan.reduced_dim):
        raise ShapeError(
            f"coupling shape {w.shape} does not match ({group.n * lag}, {plan.reduced_dim})"
        )
    return w
