"""Time-delay windows and the compressed polynomial embedding of a window.

A time series is a (T, n) float array with one sample per row.  A delay
window of lag L is the channel-major stack of the last L samples of each
channel, oldest to newest: block j of the window holds channel j over
coordinates [j*L, (j+1)*L).  The group action on windows is g (x) I_L, which
assumes exactly this block order.

The order-p embedding [w; w(x)w; ...; w^(x)p; 1] of a window repeats every
monomial of degree k >= 2 once per ordering of its variables.  Only its
compressed form is computed: one feature per monomial, listed by the plan,
which builds each degree from the one below.  The full embedding and the
selection and expansion maps between the two are test oracles
(``tests/oracles.py``).
"""

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class CompressionPlan:
    """Monomial table of the compressed order-p embedding of a dim_in-vector.

    Features are the monomials of degree 1..p, by degree and within a degree
    in lexicographic order of their sorted variable tuples, then the constant.
    Every array is read-only.

    rep_index : (reduced_dim,) coordinate of each monomial in the full
        embedding [x; x(x)x; ...; 1]: its degree's offset plus the base-m code
        of its sorted tuple.  Model files store it.
    blocks    : per degree k = 1..p, (lo, hi, lead, parent, insert): the
        half-open feature range of the degree-k monomials; the first variable
        of each; the feature of each with that variable removed (the constant
        for k = 1); and for k >= 2 the (d_{k-1}, dim_in) table whose entry
        [r, v] is the within-degree-k index of degree-(k-1) monomial r times
        variable v (None for k = 1).  The constant, last, is in no block.
    """

    dim_in: int
    order: int
    reduced_dim: int
    rep_index: np.ndarray
    blocks: tuple


def compression_plan(dim_in, order):
    """Table the monomials of the order-p embedding of a dim_in-vector.

    Refuses (DimensionOverflowError) any plan whose full embedding would
    exceed the entry cap, although the full embedding is never built, and any
    whose monomials hold more variable factors in all than the cap: their sum
    of k * C(m + k - 1, k) (p(p + 1)/2 at m = 1) is added up term by term
    before a table is built.

    Each degree's arrays are built once, from the degree below, in a fixed
    number of numpy calls.  The degree-k monomials with lead a are a times
    the suffix of degree-(k-1) monomials whose lead is at least a: index s
    there is index s + shift[a] here.  A monomial's code is lead * m^(k-1)
    plus its parent's.  Monomial r times v is v times r when v <= lead(r),
    and otherwise lead(r) times the monomial parent(r) times v, found in the
    previous insert table.
    """
    if dim_in < 1 or order < 1:
        raise ShapeError(f"need dim_in >= 1 and order >= 1, got {dim_in}, {order}")
    const = embed_dim(dim_in, order) - 1  # full coordinate of the constant
    m = dim_in
    entries, count, q = 0, 0, 1  # q counts the constant
    for k in range(1, order + 1):
        count = count * (m + k - 1) // k if k > 1 else m  # C(m + k - 1, k)
        entries += k * count
        q += count
        if entries > tensorops.ENTRY_CAP:
            raise DimensionOverflowError(f"the order-{order} plan of a {m}-vector would table "
                                         f"more than the cap of {tensorops.ENTRY_CAP} entries")
    v = np.arange(m)
    blocks = [(0, m, v, np.full(m, q - 1), None)]  # the constant is each variable's parent
    codes = [v]  # the code of a degree-1 monomial is its variable
    # degree 1's leads, lead starts, codes and parents in degree 0, whose insert table is v
    lead, start, code, rest, insert = v, v, v, np.zeros_like(v), v[None]
    prev_lo, off, lo = 0, m, m
    for k in range(2, order + 1):
        counts = lead.shape[0] - start
        hi = lo + int(counts.sum())
        shift = np.cumsum(counts) - counts - start
        prev_lead, lead = lead, np.repeat(v, counts)
        prev_rest, rest = rest, np.arange(hi - lo) - np.repeat(shift, counts)  # within degree k-1
        code = lead * m ** (k - 1) + code[rest]
        codes.append(off + code)
        insert = np.where(v <= prev_lead[:, None], np.arange(prev_lead.shape[0])[:, None] + shift,
                          insert[prev_rest] + shift[prev_lead][:, None])
        blocks.append((lo, hi, lead, prev_lo + rest, insert))
        prev_lo, off, lo, start = lo, off + m ** k, hi, start + shift
    rep_index = np.concatenate(codes + [np.array([const], dtype=np.int64)])
    for arr in [rep_index] + [a for block in blocks for a in block[2:] if a is not None]:
        arr.setflags(write=False)
    return CompressionPlan(dim_in=m, order=order, reduced_dim=q, rep_index=rep_index,
                           blocks=tuple(blocks))


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
