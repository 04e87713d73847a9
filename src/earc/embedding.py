"""Time-delay windows and the compressed polynomial embedding of a window.

A time series is a (T, n) float array with one sample per row.  A delay
window of lag L is the channel-major stack of the last L samples of each
channel, oldest to newest: block j of the window holds channel j over
coordinates [j*L, (j+1)*L).  The group action on windows is g (x) I_L, which
assumes exactly this block order.

The order-p embedding [w; w(x)w; ...; w^(x)p; 1] of a window repeats every
monomial of degree k >= 2 once per ordering of its variables.  Only its
compressed form is computed: one feature per monomial, listed by the plan's
table of sorted variable tuples.  The full embedding and the selection and
expansion maps between the two are test oracles (``tests/oracles.py``).
"""

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels, tensorops
from .errors import DimensionOverflowError, InsufficientDataError, ShapeError, ValidationError

CHUNK_ENTRIES = 1 << 15
"""Feature entries per block of rows in :func:`compressed_features`, so that
the gathered operands of one block stay in cache.  Of 2^14..2^17 it was
fastest on 20,000-row batches at (m, p) = (6, 3) and (10, 3) on a 2-core x86
host; evaluating a whole batch at once was 1.3-2.6x slower."""


def embed_dim(n, p):
    """Dimension of the order-p embedding of an n-vector: n + n^2 + ... + n^p + 1.

    The sum is accumulated term by term and refused as soon as it passes the
    entry cap, within 31 terms for n >= 2, so a huge p costs nothing.
    """
    if n < 1 or p < 1:
        raise ShapeError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if n == 1:
        tensorops._check_entries(p + 1)
        return p + 1
    d = power = 1
    for _ in range(p):
        power *= n
        d += power
        if d > tensorops.ENTRY_CAP:
            raise DimensionOverflowError(f"the order-{p} embedding of a {n}-vector would hold "
                                         f"more than the cap of {tensorops.ENTRY_CAP} entries")
    return d


def _codes(tuples, m):
    """Base-m code of each row of a (count, k) array of variable tuples."""
    return tuples @ m ** np.arange(tuples.shape[1] - 1, -1, -1)


@dataclass(frozen=True, eq=False)
class CompressionPlan:
    """Monomial table of the compressed order-p embedding of a dim_in-vector.

    Features are the monomials of degree 1..p, by degree and within a degree
    in lexicographic order of their sorted variable tuples, then the constant.
    Every array is read-only.

    tuples    : per degree k = 1..p, the (count, k) sorted variable tuples.
    rep_index : (reduced_dim,) coordinate of each monomial in the full
        embedding [x; x(x)x; ...; 1]: its degree's offset plus the base-m code
        of its sorted tuple.  Model files store it.
    lead      : (reduced_dim,) first variable of each monomial, -1 for the
        constant.
    parent    : (reduced_dim,) feature of the monomial with the lead variable
        removed; the constant for degree-1 monomials, -1 for the constant.
    blocks    : per degree k = 1..p, (lo, hi, lead[lo:hi], parent[lo:hi],
        insert): the half-open feature range of the degree-k monomials, their
        lead and parent, and for k >= 2 the (d_{k-1}, dim_in) table whose entry
        [r, v] is the within-degree-k index of degree-(k-1) monomial r times
        variable v (None for k = 1).
    """

    dim_in: int
    order: int
    reduced_dim: int
    tuples: tuple
    rep_index: np.ndarray
    lead: np.ndarray
    parent: np.ndarray
    blocks: tuple


def compression_plan(dim_in, order):
    """Table the monomials of the order-p embedding of a dim_in-vector.

    Refuses (DimensionOverflowError) any plan whose full embedding would
    exceed the entry cap, although the full embedding is never built, and any
    whose tuple table would: its sum of k * C(m + k - 1, k) (p(p + 1)/2 at
    m = 1) is added up term by term before a tuple is built.  No insert table
    holds more entries than the tuples of its degree.

    An insert table is found by looking up the base-m code of every grown
    tuple.  As r is sorted, r with v inserted in order has entry j equal to
    max(r[j-1], min(r[j], v)), with r[-1] = -inf and r[k-1] = +inf, so the
    code is built entry by entry, without a sort.
    """
    if dim_in < 1 or order < 1:
        raise ShapeError(f"need dim_in >= 1 and order >= 1, got {dim_in}, {order}")
    const = embed_dim(dim_in, order) - 1  # full coordinate of the constant
    m = dim_in
    entries = count = 0
    for k in range(1, order + 1):
        count = count * (m + k - 1) // k if k > 1 else m  # C(m + k - 1, k)
        entries += k * count
        if entries > tensorops.ENTRY_CAP:
            raise DimensionOverflowError(f"the order-{order} plan of a {m}-vector would table "
                                         f"more than the cap of {tensorops.ENTRY_CAP} entries")
    tuples = tuple(np.fromiter(chain.from_iterable(combinations_with_replacement(range(m), k)),
                               dtype=np.int64).reshape(-1, k)
                   for k in range(1, order + 1))
    q = sum(t.shape[0] for t in tuples) + 1
    lead = np.concatenate([t[:, 0] for t in tuples] + [np.array([-1], dtype=np.int64)])
    parent = np.full(q, -1, dtype=np.int64)
    parent[:m] = q - 1
    v = np.arange(m)
    rep_chunks, ranges = [], []
    off = lo = 0
    for k, tups in enumerate(tuples, 1):
        hi = lo + tups.shape[0]
        codes = _codes(tups, m)
        rep_chunks.append(off + codes)
        insert = None
        if k > 1:
            parent[lo:hi] = prev_lo + np.searchsorted(prev_codes, _codes(tups[:, 1:], m))
            prev = tuples[k - 2].T[:, :, None]  # prev[j] = r[j], one row per r
            code = np.minimum(prev[0], v)
            for j in range(1, k):
                code *= m
                code += np.maximum(prev[j - 1], np.minimum(prev[j], v) if j < k - 1 else v)
            # the codes of the degree-k tuples ascend, as the tuples are sorted
            insert = np.searchsorted(codes, code)
        ranges.append((lo, hi, insert))
        prev_lo, prev_codes = lo, codes
        off += m ** k
        lo = hi
    rep_index = np.concatenate(rep_chunks + [np.array([const], dtype=np.int64)])
    for arr in tuples + (rep_index, lead, parent) + tuple(r[2] for r in ranges[1:]):
        arr.setflags(write=False)
    # slices of a read-only array are read-only
    blocks = tuple((lo, hi, lead[lo:hi], parent[lo:hi], insert) for lo, hi, insert in ranges)
    return CompressionPlan(dim_in=m, order=order, reduced_dim=q, tuples=tuples,
                           rep_index=rep_index, lead=lead, parent=parent, blocks=blocks)


def compressed_features(plan, windows):
    """Compressed embedding of a batch of windows, shape (rows, reduced_dim)."""
    windows = np.ascontiguousarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != plan.dim_in:
        raise ShapeError(
            f"windows must be (rows, {plan.dim_in}), got {windows.shape}"
        )
    out = np.empty((windows.shape[0], plan.reduced_dim))
    step = max(1, CHUNK_ENTRIES // plan.reduced_dim)
    for r in range(0, windows.shape[0], step):
        _kernels.fill_features(windows[r:r + step], plan.blocks, out[r:r + step])
    return out


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
