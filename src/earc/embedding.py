"""Time-delay windows, the polynomial Kronecker embedding, and monomial compression.

A time series is a (T, n) float array with one sample per row.  A delay
window of lag L is the channel-major stack of the last L samples of each
channel, oldest to newest: block j of the window holds channel j over
coordinates [j*L, (j+1)*L).  The group action on windows is g (x) I_L, which
assumes exactly this block order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels, tensorops
from .errors import InsufficientDataError, ShapeError, ValidationError


def embed_dim(n, p):
    """Dimension of the order-p embedding of an n-vector: n + n^2 + ... + n^p + 1."""
    if n < 1 or p < 1:
        raise ShapeError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    d = p + 1 if n == 1 else (n ** (p + 1) - n) // (n - 1) + 1
    tensorops._check_entries(d, tensorops.ENTRY_CAP)
    return d


@dataclass(frozen=True, eq=False)
class CompressionPlan:
    """Monomial bookkeeping for the order-p embedding of a dim_in-vector.

    Coordinates of the full embedding that carry the same monomial (the
    symmetric duplicates inside each Kronecker power) are grouped into
    classes; classes are ordered by first occurrence, the constant last.

    rep_index : (reduced_dim,) full coordinate of each class representative,
        always the non-decreasing variable tuple.
    class_of  : (full_dim,) class of every full coordinate.
    lead      : (reduced_dim,) first variable of each representative monomial,
        -1 for the constant.
    parent    : (reduced_dim,) class of the monomial with the lead variable
        removed; the constant class for degree-1 monomials, -1 for the
        constant itself.
    degree    : (reduced_dim,) monomial degree per class, 0 for the constant.
    """

    dim_in: int
    order: int
    full_dim: int
    reduced_dim: int
    rep_index: np.ndarray
    class_of: np.ndarray
    lead: np.ndarray
    parent: np.ndarray
    degree: np.ndarray

    def degree_class_range(self, k):
        """Half-open class-index range [lo, hi) of the degree-k monomials."""
        if k < 1 or k > self.order:
            raise ShapeError(f"degree {k} outside 1..{self.order}")
        body = self.degree[:self.reduced_dim - 1]
        return int(np.searchsorted(body, k, "left")), int(np.searchsorted(body, k, "right"))

    def class_tuple(self, c):
        """Sorted variable tuple of class c, decoded from the lead/parent chain."""
        out = []
        while self.lead[c] >= 0:
            out.append(int(self.lead[c]))
            c = int(self.parent[c])
        return tuple(out)

    def selection_matrix(self):
        """Dense (reduced_dim, full_dim) representative-selection matrix R."""
        r = np.zeros((self.reduced_dim, self.full_dim))
        r[np.arange(self.reduced_dim), self.rep_index] = 1.0
        return r

    def expansion_matrix(self):
        """Dense (full_dim, reduced_dim) expansion matrix E with R @ E = I."""
        e = np.zeros((self.full_dim, self.reduced_dim))
        e[np.arange(self.full_dim), self.class_of] = 1.0
        return e


@lru_cache(maxsize=64)
def compression_plan(dim_in, order):
    """Enumerate the monomial classes of the order-p embedding of a dim_in-vector."""
    if dim_in < 1 or order < 1:
        raise ShapeError(f"need dim_in >= 1 and order >= 1, got {dim_in}, {order}")
    full_dim = embed_dim(dim_in, order)
    m, p = dim_in, order
    class_of = np.empty(full_dim, dtype=np.int64)
    rep_chunks = []
    lead_chunks = []
    parent_chunks = []
    degree_chunks = []
    prev_enc = None
    prev_class_off = 0
    off = 0
    class_off = 0
    for k in range(1, p + 1):
        size = m ** k
        digits = np.empty((size, k), dtype=np.int64)
        tmp = np.arange(size)
        for t in range(k - 1, -1, -1):
            digits[:, t] = tmp % m
            tmp //= m
        powers = m ** np.arange(k - 1, -1, -1)
        enc = np.sort(digits, axis=1) @ powers
        uniq, inv = np.unique(enc, return_inverse=True)
        class_of[off:off + size] = class_off + inv
        rep_chunks.append(off + uniq)
        rep_digits = np.empty((uniq.shape[0], k), dtype=np.int64)
        tmp = uniq.copy()
        for t in range(k - 1, -1, -1):
            rep_digits[:, t] = tmp % m
            tmp //= m
        lead_chunks.append(rep_digits[:, 0])
        if k == 1:
            parent_chunks.append(None)  # patched to the constant class below
        else:
            tail_enc = rep_digits[:, 1:] @ (m ** np.arange(k - 2, -1, -1))
            parent_chunks.append(prev_class_off + np.searchsorted(prev_enc, tail_enc))
        degree_chunks.append(np.full(uniq.shape[0], k, dtype=np.int64))
        prev_enc = uniq
        prev_class_off = class_off
        off += size
        class_off += uniq.shape[0]
    class_of[off] = class_off
    q = class_off + 1
    parent_chunks[0] = np.full(m, q - 1, dtype=np.int64)
    rep_index = np.concatenate(rep_chunks + [np.array([off], dtype=np.int64)])
    lead = np.concatenate(lead_chunks + [np.array([-1], dtype=np.int64)])
    parent = np.concatenate(parent_chunks + [np.array([-1], dtype=np.int64)])
    degree = np.concatenate(degree_chunks + [np.array([0], dtype=np.int64)])
    for arr in (rep_index, class_of, lead, parent, degree):
        arr.setflags(write=False)
    return CompressionPlan(dim_in=m, order=p, full_dim=full_dim, reduced_dim=q,
                           rep_index=rep_index, class_of=class_of,
                           lead=lead, parent=parent, degree=degree)


def embed(x, p):
    """Order-p polynomial embedding [x; x(x)x; ...; x^(x)p; 1].

    Every coordinate is evaluated through the canonical product order of its
    monomial class, so symmetric duplicates are bit-identical and compression
    round trips are exact.
    """
    x = tensorops._as_vector(x, "x")
    plan = compression_plan(x.shape[0], p)
    return expand(plan, compressed_features(plan, x[None, :])[0])


def compress(plan, full):
    """Keep one representative coordinate per monomial class."""
    full = tensorops._as_vector(full, "full")
    if full.shape[0] != plan.full_dim:
        raise ShapeError(f"expected dim {plan.full_dim}, got {full.shape[0]}")
    return full[plan.rep_index]


def expand(plan, reduced):
    """Write every full coordinate from its class representative; right inverse of compress."""
    reduced = tensorops._as_vector(reduced, "reduced")
    if reduced.shape[0] != plan.reduced_dim:
        raise ShapeError(f"expected dim {plan.reduced_dim}, got {reduced.shape[0]}")
    return reduced[plan.class_of]


def compressed_features(plan, windows):
    """Compressed embedding of a batch of windows, shape (rows, reduced_dim)."""
    windows = np.ascontiguousarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != plan.dim_in:
        raise ShapeError(
            f"windows must be (rows, {plan.dim_in}), got {windows.shape}"
        )
    out = np.empty((windows.shape[0], plan.reduced_dim))
    return _kernels.monomial_features(windows, plan, out)


def as_series(values):
    """Validate and return a (T, n) float64 time-series array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise ShapeError(f"series must be (T, n), got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError("series contains non-finite values")
    return values


def delay_windows(values, lag):
    """All delay windows of the series, one per row, for t = lag .. T.

    Row i is the channel-major window ending at sample lag-1+i (0-based).
    """
    values = as_series(values)
    if lag < 1:
        raise ShapeError(f"lag must be >= 1, got {lag}")
    if values.shape[0] < lag:
        raise InsufficientDataError(
            f"series of length {values.shape[0]} is shorter than lag {lag}"
        )
    # (T-L+1, n, L) view with [i, j, t] = values[i+t, j], then channel-major rows
    view = sliding_window_view(values, lag, axis=0)
    return view.reshape(view.shape[0], -1)


def build_data_matrices(values, lag, order, plan):
    """Training data matrices (features, targets) from a series.

    Column t of the first matrix is the compressed embedding of the window
    ending at sample lag-1+t; column t of the second is the next window.
    Shapes: (reduced_dim, T-lag) and (n*lag, T-lag).
    """
    values = as_series(values)
    if values.shape[0] < lag + 1:
        raise InsufficientDataError(
            f"need at least lag+1 = {lag + 1} samples, got {values.shape[0]}"
        )
    if plan.dim_in != values.shape[1] * lag or plan.order != order:
        raise ShapeError(
            f"plan is for dim_in={plan.dim_in}, order={plan.order}; "
            f"series needs dim_in={values.shape[1] * lag}, order={order}"
        )
    windows = delay_windows(values, lag)
    h0r = compressed_features(plan, windows[:-1]).T
    h1 = windows[1:].T.copy()
    return h0r, h1
