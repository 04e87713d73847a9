"""Reference implementations that the library's optimised code replaced,
and constructions that only tests need: the full embedding and its
selection and expansion maps, the compression plan built from tables of
sorted variable tuples, the whole-plan lead/parent chains, dense group
actions, the whole stacked basis constraint, the equivariant basis from one
SVD of it and from the component blocks sliced out of it, the components of
the generators' Ghat pattern, single prediction steps, the
rollout kernels that tested divergence at every step, the Hamiltonian field
and energy, one competition step, group files, CSV rows formatted by
Python's ``%`` and a series read that parses every row from row 0.

They are kept only as test oracles: the library must reproduce them bit for
bit, or, where the arithmetic changed, within the tolerance a test states.
"""

import json
import math
import warnings
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from types import SimpleNamespace

import numpy as np

from earc import solver, tensorops
from earc.embedding import compressed_features, compression_plan, embed_dim
from earc.errors import DivergenceError, NumericalError, ShapeError, ValidationError
from earc.groups import action_rows, window_action
from earc.solver import EquivariantBasis, basis_features, degree_kernel_dims
from earc.systems import COMPETITION_RANGE


def hamiltonian_vector_field(state):
    """(dq/dt, dp/dt) = (p^3 - p, q^3 - q)."""
    q, p = state
    return np.array([p ** 3 - p, q ** 3 - q])


def hamiltonian_energy(q, p):
    """Conserved energy p^4/4 - p^2/2 + q^2/2 - q^4/4 of the flow."""
    return p ** 4 / 4 - p ** 2 / 2 + q ** 2 / 2 - q ** 4 / 4


def competition_step(p, r, interactions):
    """One update of the competition recurrence p + r * p * (1 - N p)."""
    p, r, n_matrix = (np.asarray(a, dtype=np.float64) for a in (p, r, interactions))
    return p + r * p * (1.0 - n_matrix @ p)


def predict_step(model, window):
    """Predicted dilated state: coupling @ compressed embedding of the window."""
    window = tensorops._as_vector(window, "window")
    if window.shape[0] != model.n * model.lag:
        raise ShapeError(
            f"window dim {window.shape[0]} does not match n*lag={model.n * model.lag}"
        )
    phi = compressed_features(model.plan, window[None, :])[0]
    return model.coupling @ phi


def to_json_dict(rep):
    """JSON-serialisable encoding: dimension plus row-major generator entries."""
    return {
        "n": rep.n,
        "generators": [[float(v) for v in g.ravel()] for g in rep.generators],
    }


def save_group(rep, path):
    """Write a group file that ``groups.load_group`` and ``--group-file`` read."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(rep), fh)
        fh.write("\n")


@lru_cache(maxsize=64)
def compression_plan_by_enumeration(dim_in, order):
    """Monomial classes found by listing every full-embedding coordinate.

    Each degree-k coordinate's k digits (base dim_in) are sorted and the sorted
    codes made unique; classes are ordered by degree and code, the constant
    last.  Returns a namespace with the fields of ``CompressionPlan`` that the
    library reads, ``full_dim``, ``class_of`` (the class of every full
    coordinate) and ``degree``.  Its ``blocks`` are rebuilt from the
    lead/parent chains and hold the passes of ``blocks_by_chain`` where the
    plan's hold insert tables.
    """
    dim = embed_dim(dim_in, order)
    m, p = dim_in, order
    classes = np.empty(dim, dtype=np.int64)
    rep_chunks, lead_chunks, parent_chunks, degree_chunks = [], [], [], []
    prev_enc = None
    prev_class_off = off = class_off = 0
    for k in range(1, p + 1):
        size = m ** k
        digits = np.empty((size, k), dtype=np.int64)
        tmp = np.arange(size)
        for t in range(k - 1, -1, -1):
            digits[:, t] = tmp % m
            tmp //= m
        powers = m ** np.arange(k - 1, -1, -1)
        uniq, inv = np.unique(np.sort(digits, axis=1) @ powers, return_inverse=True)
        classes[off:off + size] = class_off + inv
        rep_chunks.append(off + uniq)
        rep_digits = digits[uniq]  # a sorted code is its own representative
        lead_chunks.append(rep_digits[:, 0])
        if k > 1:
            tail_enc = rep_digits[:, 1:] @ (m ** np.arange(k - 2, -1, -1))
            parent_chunks.append(prev_class_off + np.searchsorted(prev_enc, tail_enc))
        degree_chunks.append(np.full(uniq.shape[0], k, dtype=np.int64))
        prev_enc = uniq
        prev_class_off = class_off
        off += size
        class_off += uniq.shape[0]
    classes[off] = class_off
    q = class_off + 1
    plan = SimpleNamespace(
        dim_in=m, order=p, full_dim=dim, reduced_dim=q, class_of=classes,
        rep_index=np.concatenate(rep_chunks + [np.array([off])]),
        lead=np.concatenate(lead_chunks + [np.array([-1])]),
        parent=np.concatenate([np.full(m, q - 1)] + parent_chunks + [np.array([-1])]),
        degree=np.concatenate(degree_chunks + [np.array([0])]),
    )
    plan.blocks = blocks_by_chain(plan)
    return plan


def compression_plan_by_tuples(dim_in, order):
    """``compression_plan`` built from a (count, k) table of sorted variable
    tuples per degree k, listed by ``combinations_with_replacement``, and the
    base-m code of every tuple.  A parent is found by searching its tail's
    code among the degree below, and an insert table by searching the code of
    every grown tuple: as r is sorted, r with v inserted in order has entry j
    equal to max(r[j-1], min(r[j], v)), with r[-1] = -inf and r[k-1] = +inf,
    so the code is built entry by entry.  Returns a namespace with the plan's
    fields and ``tuples``, the table of each degree."""
    def codes(tuples):
        return tuples @ m ** np.arange(tuples.shape[1] - 1, -1, -1)

    m = dim_in
    const = embed_dim(dim_in, order) - 1
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
        code_k = codes(tups)
        rep_chunks.append(off + code_k)
        insert = None
        if k > 1:
            parent[lo:hi] = prev_lo + np.searchsorted(prev_codes, codes(tups[:, 1:]))
            prev = tuples[k - 2].T[:, :, None]  # prev[j] = r[j], one row per r
            code = np.minimum(prev[0], v)
            for j in range(1, k):
                code *= m
                code += np.maximum(prev[j - 1], np.minimum(prev[j], v) if j < k - 1 else v)
            insert = np.searchsorted(code_k, code)
        ranges.append((lo, hi, insert))
        prev_lo, prev_codes = lo, code_k
        off += m ** k
        lo = hi
    rep_index = np.concatenate(rep_chunks + [np.array([const], dtype=np.int64)])
    blocks = tuple((lo, hi, lead[lo:hi], parent[lo:hi], insert) for lo, hi, insert in ranges)
    return SimpleNamespace(dim_in=m, order=order, reduced_dim=q, tuples=tuples,
                           rep_index=rep_index, lead=lead, parent=parent, blocks=blocks)


def class_of(plan):
    """(full_dim,) monomial class of every full-embedding coordinate."""
    return compression_plan_by_enumeration(plan.dim_in, plan.order).class_of


def full_dim(plan):
    """Dimension of the full embedding that ``plan`` compresses."""
    return embed_dim(plan.dim_in, plan.order)


def blocks_by_chain(plan):
    """``CompressionPlan.blocks`` with every class's sorted tuple decoded from
    its lead/parent chain and the classes of a degree found by its ``degree``
    entries.  In place of each insert table, degree k >= 2 holds k passes
    (cols, variables, rests): the monomials whose t-th variable differs from
    the one before it, that variable, and the degree-(k-1) monomial left when
    it is removed."""
    m = plan.dim_in

    def class_range(k):
        idx = np.flatnonzero(plan.degree == k)
        return int(idx[0]), int(idx[-1]) + 1

    lo, hi = class_range(1)
    tables = [(lo, hi, plan.lead[lo:hi], plan.parent[lo:hi], None)]
    prev_code = plan.lead[lo:hi]  # a degree-1 class's code is its variable
    for k in range(2, plan.order + 1):
        lo, hi = class_range(k)
        cur = np.arange(lo, hi)
        digits = np.empty((hi - lo, k), dtype=np.int64)
        for t in range(k):
            digits[:, t] = plan.lead[cur]
            cur = plan.parent[cur]
        powers = m ** np.arange(k - 2, -1, -1)
        passes = []
        for t in range(k):
            cols = np.arange(hi - lo) if t == 0 else np.flatnonzero(
                digits[:, t] != digits[:, t - 1])
            rests = np.searchsorted(prev_code, np.delete(digits[cols], t, axis=1) @ powers)
            passes.append((cols, digits[cols, t], rests))
        tables.append((lo, hi, plan.lead[lo:hi], plan.parent[lo:hi], passes))
        prev_code = digits @ (m ** np.arange(k - 1, -1, -1))
    return tables


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
    if full.shape[0] != full_dim(plan):
        raise ShapeError(f"expected dim {full_dim(plan)}, got {full.shape[0]}")
    return full[plan.rep_index]


def expand(plan, reduced):
    """Write every full coordinate from its class representative; right inverse of compress."""
    reduced = tensorops._as_vector(reduced, "reduced")
    if reduced.shape[0] != plan.reduced_dim:
        raise ShapeError(f"expected dim {plan.reduced_dim}, got {reduced.shape[0]}")
    return reduced[class_of(plan)]


def hamiltonian_generate_by_array(cfg):
    """Fixed-step RK4 stepping a length-2 array through an array-valued field."""
    def field(state):
        q, p = state
        return np.array([p ** 3 - p, q ** 3 - q])

    y = np.array([cfg.q0, cfg.p0], dtype=np.float64)
    rows = np.empty((cfg.steps + 1, 2))
    rows[0] = y
    dt = cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            k1 = field(y)
            k2 = field(y + 0.5 * dt * k1)
            k3 = field(y + 0.5 * dt * k2)
            k4 = field(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(f"integration diverged at step {k + 1}")
            rows[k + 1] = y
    return rows


def competition_generate_by_step(cfg):
    """Competition map iterated with the full finiteness and range test at every step."""
    p = np.asarray(cfg.p0, dtype=np.float64)
    r = np.asarray(cfg.r, dtype=np.float64)
    n_matrix = np.asarray(cfg.interactions, dtype=np.float64)
    rows = np.empty((cfg.steps + 1, p.shape[0]))
    rows[0] = p
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            p = p + r * p * (1.0 - n_matrix @ p)
            if not np.all(np.isfinite(p)) or np.any(np.abs(p) > COMPETITION_RANGE):
                raise DivergenceError(
                    f"competition state left the admissible range at step {k + 1}")
            rows[k + 1] = p
    return rows


def plan_chains(plan):
    """(lead, parent) of every feature of ``plan``: its blocks' per-degree
    arrays joined, then -1 for the constant, which has neither."""
    return tuple(np.concatenate([block[i] for block in plan.blocks] + [np.array([-1])])
                 for i in (2, 3))


def monomial_features_by_column(windows, plan):
    """Compressed monomial features of each window row, one column at a time,
    along the chains of ``plan_chains``."""
    lead, parent = plan_chains(plan)
    q = lead.shape[0]
    out = np.empty((windows.shape[0], q))
    out[:, q - 1] = 1.0
    for c in range(q - 1):
        np.multiply(windows[:, lead[c]], out[:, parent[c]], out=out[:, c])
    return out


def autoregress_by_step(coupling, plan, seed, horizon, n_channels, lag, consistent,
                        norm_cap):
    """Column-by-column features and a per-channel window shift at every step.

    Returns (values, windows, steps, diverged) with all ``horizon`` rows
    allocated and the first ``steps`` valid.
    """
    m = seed.shape[0]
    values = np.zeros((horizon, n_channels))
    windows = np.zeros((horizon, m))
    w = seed.copy()
    for k in range(horizon):
        phi = monomial_features_by_column(w[None, :], plan)
        y = coupling @ phi[0]
        if not np.all(np.isfinite(y)) or np.sqrt(np.sum(y * y)) > norm_cap:
            return values, windows, k, True
        if consistent:
            for j in range(n_channels):
                lo = j * lag
                w[lo:lo + lag - 1] = w[lo + 1:lo + lag]
                w[lo + lag - 1] = y[lo + lag - 1]
        else:
            w = y.copy()
        for j in range(n_channels):
            values[k, j] = y[j * lag + lag - 1]
        windows[k] = w
    return values, windows, horizon, False


def autoregress_by_matmul(coupling, plan, seed, horizon, lag, consistent, norm_cap):
    """The rollout kernel that predicted with ``np.matmul``, tested divergence
    at every step and kept each step's window; same arguments as
    ``_kernels.autoregress``, which returns the newest columns
    ``windows[:, lag - 1::lag]`` of its (windows, diverged).
    """
    m = seed.shape[0]
    windows = np.empty((horizon, m))
    phi = np.empty(plan.reduced_dim)
    phi[-1] = 1.0
    w = phi[:m]
    w[:] = seed
    y = np.empty(m)
    blocks = [(lead, parent, phi[lo:hi]) for lo, hi, lead, parent, _ in plan.blocks[1:]]
    if consistent and lag > 1:
        # per channel: drop the oldest sample, append the predicted newest
        moves = ((w[:-1], w[1:]), (w[lag - 1::lag], y[lag - 1::lag]))
    else:  # free, or lag 1, where the newest samples are the whole window
        moves = ((w, y),)
    for k in range(horizon):
        for lead, parent, out in blocks:
            np.multiply(w[lead], phi[parent], out=out)
        np.matmul(coupling, phi, out=y)
        if not math.sqrt(y.dot(y)) <= norm_cap:  # NaN and inf fail too
            return windows[:k].copy(), True
        for dst, src in moves:
            dst[...] = src
        windows[k] = w
    return windows, False


def write_rows_by_value(fh, index, values):
    """CSV rows formatted one value at a time: the index, then ``format(v, ".17g")``."""
    for i, row in zip(index, values):
        fh.write(str(int(i)) + "," + ",".join(format(float(v), ".17g") for v in row) + "\n")


PERCENT_BLOCK_ROWS = 64
"""Rows per ``%`` operation of :func:`rows_bytes_by_percent`."""


def rows_bytes_by_percent(table):
    """The CSV rows of a float table, its first column as ``%d`` and the others
    as ``%.17g``, formatted by Python's ``%`` in blocks of rows: the CSV text
    of ``cli._write_rows`` before ``earc._csvtext``."""
    row = ",".join(["%d"] + ["%.17g"] * (table.shape[1] - 1)) + "\n"
    text = []
    for r in range(0, table.shape[0], PERCENT_BLOCK_ROWS):
        block = table[r:r + PERCENT_BLOCK_ROWS]
        text.append(row * block.shape[0] % tuple(block.ravel().tolist()))
    return "".join(text).encode("ascii")


def read_series_from_row_0(path, max_rows=None, first_row=0):
    """``cli.read_series`` as a parse from row 0 up to its last row, then a
    slice: the rows before ``first_row`` are parsed and checked too."""
    stop = None if max_rows is None else first_row + max_rows
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"(Input line \d+|loadtxt: input) contained no data",
                                    UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments="#",
                              max_rows=stop)
    except OSError:
        raise FileNotFoundError(f"cannot read series file {path}")
    except ValueError as exc:
        raise ValidationError(f"malformed series CSV {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ValidationError(f"series CSV {path} has no channel columns")
    return data[first_row:, 1:]


def class_tuple(plan, c):
    """Sorted variable tuple of class c, decoded from its ``plan_chains`` chain."""
    lead, parent = plan_chains(plan)
    out = []
    while lead[c] >= 0:
        out.append(int(lead[c]))
        c = int(parent[c])
    return tuple(out)


def reduced_action_by_class(g, lag, plan):
    """Reduced action built one monomial class and one distinct variable at a time:
    A_k[:, c] += h[lead rows, v] * A_{k-1}[tail rows, class of c without v]."""
    h = window_action(g, lag)
    parent = plan_chains(plan)[1]
    q = plan.reduced_dim
    out = np.zeros((q, q))
    out[q - 1, q - 1] = 1.0
    lo, hi = plan.blocks[0][:2]
    out[lo:hi, lo:hi] = h
    prev = h
    prev_lo = lo
    for k in range(2, plan.order + 1):
        lo, hi = plan.blocks[k - 1][:2]
        nk = hi - lo
        tuples = [class_tuple(plan, lo + c) for c in range(nk)]
        lead_rows = np.array([t[0] for t in tuples])
        tail_rows = np.array([parent[lo + c] - prev_lo for c in range(nk)])
        block = np.zeros((nk, nk))
        # class index of a sorted tuple within the previous degree
        prev_pos = {class_tuple(plan, prev_lo + c): c for c in range(prev.shape[0])}
        for c, tup in enumerate(tuples):
            seen = set()
            for t in range(k):
                v = tup[t]
                if v in seen:
                    continue
                seen.add(v)
                rest = prev_pos[tup[:t] + tup[t + 1:]]
                block[:, c] += h[lead_rows, v] * prev[tail_rows, rest]
        out[lo:hi, lo:hi] = block
        prev = block
        prev_lo = lo
    return out


def reduced_action_by_passes(g, lag, plan):
    """Reduced action summed by position: per degree k, one vectorised pass per
    position t of the sorted variable tuples over the passes of
    ``blocks_by_chain``, each adding h[lead rows, v] * A_{k-1}[tail rows,
    rest] to the monomials whose t-th variable v differs from the one before
    it.  The passes build each block's transpose."""
    tables = compression_plan_by_enumeration(plan.dim_in, plan.order).blocks
    h = window_action(g, lag)
    if h.shape[0] != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match element dimension {h.shape[0]}"
        )
    q = plan.reduced_dim
    out = np.zeros((q, q))
    out[q - 1, q - 1] = 1.0
    lo, hi = tables[0][:2]
    out[lo:hi, lo:hi] = h
    prev_t = h.T
    for (prev_lo, *_), (lo, hi, lead_rows, parent, passes) in zip(tables, tables[1:]):
        lead_t = np.take(h.T, lead_rows, axis=1)
        tail_t = np.take(prev_t, parent - prev_lo, axis=1)
        block_t = np.zeros((hi - lo, hi - lo))
        for cols, variables, rests in passes:
            block_t[cols] += lead_t[variables] * tail_t[rests]
        out[lo:hi, lo:hi] = block_t.T
        prev_t = block_t
    return out


ROW_BLOCK_TERMS = 1 << 16
"""Most terms plus sums of one ``np.bincount`` in ``reduced_action_by_blocks``."""


def _nonzero_columns(mat):
    """Column indices of the nonzeros of each row of ``mat``, ascending, padded
    to the longest row with the columns of zero entries; shape (rows, width)."""
    zero = mat == 0
    width = mat.shape[1] - int(np.add.reduce(zero, axis=1).min())
    return np.argsort(zero, axis=1, kind="stable")[:, :width]


def reduced_action_by_blocks(g, lag, plan):
    """Reduced action of one element as a dense q x q matrix, each degree block
    a row-wise sparse product (Gustavson 1978) written straight into it: row a
    is row lead(a) of h times row tail(a) of A_{k-1}, each nonzero pair (v, r)
    adding its product at column insert[r, v], with one ``np.bincount`` per
    block of rows summing the terms from +0.0.  The nonzeros of a block are
    read back from the dense matrix for the next degree."""
    h = window_action(g, lag)
    m = h.shape[0]
    if m != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match element dimension {m}"
        )
    q = plan.reduced_dim
    out = np.zeros((q, q))
    out[q - 1, q - 1] = 1.0
    lo, hi = plan.blocks[0][:2]
    out[lo:hi, lo:hi] = h
    h_cols = prev_cols = _nonzero_columns(h)
    prev = h
    for (prev_lo, *_), (lo, hi, lead_rows, parent, insert) in zip(plan.blocks, plan.blocks[1:]):
        tail_rows = parent - prev_lo
        d = hi - lo
        step = max(1, ROW_BLOCK_TERMS // (h_cols.shape[1] * prev_cols.shape[1] + d))
        for s in range(0, d, step):
            lead, tail = lead_rows[s:s + step], tail_rows[s:s + step]
            rows = lead.shape[0]
            lc, tc = h_cols[lead][:, :, None], prev_cols[tail][:, None, :]
            cols = insert[tc, lc]  # (rows, h width, prev width)
            cols += np.arange(0, rows * d, d)[:, None, None]
            terms = h[lead[:, None, None], lc] * prev[tail[:, None, None], tc]
            out[lo + s:lo + s + rows, lo:hi] = np.bincount(
                cols.ravel(), terms.ravel(), minlength=rows * d).reshape(rows, d)
        prev = out[lo:hi, lo:hi]
        if hi < q - 1:  # another degree follows
            prev_cols = _nonzero_columns(prev)
    return out


def assemble_rows(h, cols, vals, plan):
    """Dense q x q matrices of ``action_rows``, one per element, assembled with
    ``np.add.at`` from +0.0; the degree-1 block is h, -0.0 entries included."""
    e, q, _ = cols.shape
    out = np.zeros((e, q, q))
    np.add.at(out, (np.arange(e)[:, None, None], np.arange(q)[:, None], cols), vals)
    m = plan.dim_in
    out[:, :m, :m] = h
    return out


def assembled_action(g, lag, plan):
    """Dense q x q Ghat_g of one element: the assembly of its ``action_rows``."""
    h, cols, vals = action_rows(np.asarray(g, dtype=np.float64)[None], lag, plan)
    return assemble_rows(h, cols, vals, plan)[0]


def kron_constraint_matrix(g, lag, plan, features=slice(None)):
    """One generator's one-slot constraint I_u (x) g - Ghat_g^T (x) I_n on the
    unknowns of ``features``, as two Kronecker products of the dense Ghat_g of
    ``reduced_action_by_blocks``: the constraint before it was filled from the
    rows of all generators at once."""
    ghat = reduced_action_by_blocks(g, lag, plan)[features][:, features]
    return np.kron(np.eye(ghat.shape[0]), g) - np.kron(ghat.T, np.eye(g.shape[0]))


def insert_tables_by_passes(plan):
    """The (d_{k-1}, dim_in) insert table of each degree k = 2..p of
    ``CompressionPlan.blocks``, read off the passes of the enumeration plan's
    ``blocks_by_chain``: every (rest, v) pair occurs in exactly one pass, the
    one at the first position of v in the grown tuple."""
    oracle = compression_plan_by_enumeration(plan.dim_in, plan.order)
    out = []
    for k, (_, _, _, _, passes) in enumerate(oracle.blocks[1:], 2):
        insert = np.full((np.count_nonzero(oracle.degree == k - 1), plan.dim_in), -1)
        for cols, variables, rests in passes:
            assert np.all(insert[rests, variables] == -1)
            insert[rests, variables] = cols
        assert np.all(insert >= 0)
        out.append(insert)
    return out


def degree_kernel_dims_by_lists(group, lag, order):
    """``solver.degree_kernel_dims`` with one power and one trace per degree,
    kept in Python lists, and the Newton recurrence summed by Python's
    ``sum`` over the list entries."""
    elements = np.array(group.elements)
    power = elements
    sums = [lag * np.trace(power, axis1=1, axis2=2)]
    for _ in range(order - 1):
        power = power @ elements
        sums.append(lag * np.trace(power, axis1=1, axis2=2))
    complete = [np.ones(len(elements))]
    for k in range(1, order + 1):
        complete.append(sum(sums[j - 1] * complete[k - j] for j in range(1, k + 1)) / k)
    counts = np.array(complete) @ np.trace(elements, axis1=1, axis2=2) / group.order
    dims = np.rint(counts)
    off = float(np.max(np.abs(counts - dims)))
    if off > solver.CHARACTER_TOL:
        raise NumericalError(
            f"character counts {counts.tolist()} are {off:.1e} from integers"
        )
    return dims.astype(np.int64)


def vec(a):
    """Stack the columns of a matrix into one vector."""
    return tensorops._as_matrix(a).ravel(order="F")


def unvec(v, rows):
    """Inverse of :func:`vec`; unvec(vec(A), A.shape[0]) == A."""
    v = tensorops._as_vector(v)
    if rows < 1 or v.shape[0] % rows != 0:
        raise ShapeError(f"vector of dim {v.shape[0]} cannot be unstacked into {rows} rows")
    return v.reshape(rows, -1, order="F")


def kron_power(x, k):
    """k-fold Kronecker power of a vector: x for k=1, kron(x, kron_power(x, k-1)) above."""
    x = tensorops._as_vector(x, "x")
    if k < 1:
        raise ShapeError(f"power must be >= 1, got {k}")
    tensorops._check_entries(x.shape[0] ** k)
    out = x
    for _ in range(k - 1):
        out = np.kron(x, out)
    return out


def direct_sum(blocks):
    """Block-diagonal assembly of square matrices."""
    blocks = [tensorops._as_matrix(b, f"block {i}") for i, b in enumerate(blocks)]
    if not blocks:
        raise ShapeError("direct_sum needs at least one block")
    for i, b in enumerate(blocks):
        if b.shape[0] != b.shape[1]:
            raise ShapeError(f"block {i} is not square: {b.shape}")
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    o = 0
    for b in blocks:
        s = b.shape[0]
        out[o:o + s, o:o + s] = b
        o += s
    return out


def lifted_action(g, lag, order):
    """Block-diagonal action on the full embedding.

    The degree-k block is the k-fold Kronecker power of g (x) I_lag and the
    trailing scalar block is 1, so that
    embed((g (x) I_lag) x, p) = lifted_action(g, lag, p) @ embed(x, p).
    """
    h = window_action(g, lag)
    d = embed_dim(h.shape[0], order)
    tensorops._check_entries(d * d)
    blocks = [h]
    cur = h
    for _ in range(order - 1):
        cur = np.kron(h, cur)
        blocks.append(cur)
    blocks.append(np.ones((1, 1)))
    return direct_sum(blocks)


def selection_matrix(plan):
    """Dense (reduced_dim, full_dim) representative-selection matrix R."""
    r = np.zeros((plan.reduced_dim, full_dim(plan)))
    r[np.arange(plan.reduced_dim), plan.rep_index] = 1.0
    return r


def expansion_matrix(plan):
    """Dense (full_dim, reduced_dim) expansion matrix E with R @ E = I."""
    e = np.zeros((full_dim(plan), plan.reduced_dim))
    e[np.arange(full_dim(plan)), class_of(plan)] = 1.0
    return e


def lstsq(a, b, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None):
    """Minimum-norm least-squares solution of a x = b via truncated SVD.

    Singular values below rel_tol * sigma_max are discarded.  When
    ``sparsify`` is given, a greedy orthogonal-matching-pursuit pass retains
    at most that many nonzero coefficients instead.
    """
    a = tensorops._as_matrix(a, "a")
    b = tensorops._as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"a has {a.shape[0]} rows but b has dim {b.shape[0]}")
    if sparsify is not None:
        if sparsify < 1:
            raise ShapeError(f"sparsify must be >= 1, got {sparsify}")
        return tensorops._omp(a, b, sparsify, rel_tol)
    return tensorops._truncated_solve(a, b, rel_tol)[0]


def unconstrained_fit(h0r, h1, rel_tol=tensorops.LSTSQ_RTOL):
    """Minimum-norm least-squares solution of W @ h0r = h1, one row at a time."""
    h0r = tensorops._as_matrix(h0r, "h0r")
    h1 = tensorops._as_matrix(h1, "h1")
    if h0r.shape[1] != h1.shape[1]:
        raise ShapeError(
            f"feature and target column counts differ: {h0r.shape[1]} vs {h1.shape[1]}"
        )
    rows = [lstsq(h0r.T, h1[i], rel_tol) for i in range(h1.shape[0])]
    return np.vstack(rows)


NULLSPACE_RTOL = 1e-10
"""Relative singular-value cutoff of ``null_space``."""


def null_space(a, rel_tol=NULLSPACE_RTOL):
    """Orthonormal basis of the numerical kernel of ``a``.

    Returns an (n, k) array whose columns are the right singular vectors with
    singular values sigma_i <= rel_tol * sigma_max (every vector when
    sigma_max == 0).  k may be zero.
    """
    a = tensorops._as_matrix(a)
    if not 0 < rel_tol < np.inf:
        raise ShapeError(f"null-space rel_tol must be finite and > 0, got {rel_tol}")
    m, n = a.shape
    if m < n:
        # Zero rows do not change right singular pairs but let the economy
        # SVD return all n right singular vectors.
        a = np.vstack([a, np.zeros((n - m, n))])
    _, s, vt = tensorops._svd(a, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return vt.T.copy()
    return vt[s <= rel_tol * smax].T.copy()


def cutoff_equivariant_basis(group, lag, plan, rel_tol=NULLSPACE_RTOL):
    """One-slot basis from one SVD of the stacked one-slot constraints on the
    ``basis_features`` unknowns, Ghat_g built on the whole plan, keeping the
    right singular vectors whose singular value is at most rel_tol * sigma_max
    (the basis size is what the cutoff selects, not the character count)."""
    features = basis_features(degree_kernel_dims(group, lag, plan.order), plan)
    stacked = np.vstack([kron_constraint_matrix(g, lag, plan, features)
                         for g in group.generators])
    kernel = null_space(stacked, rel_tol)
    slots = np.zeros((kernel.shape[1], group.n, plan.reduced_dim))
    slots[:, :, features] = kernel.T.reshape(-1, features.size, group.n).transpose(0, 2, 1)
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=plan.reduced_dim, lag=lag,
                            slot_matrices=slots)


def constraint_matrix(elements, lag, plan, features):
    """Vec form of the intertwiner equation on one lag slot for a stack of E
    elements, on the unknowns of the u ascending ``features`` (a union of
    degree blocks, which Ghat maps to itself): the (E*n*u, n*u) vertical
    stack of K'_e = I_u (x) g_e - Ghat_e^T (x) I_n.  It is filled from one
    ``action_rows`` call: g_e on the u diagonal blocks, then each nonzero
    Ghat_e[r, c] subtracted at row (c, i) and column (r, i) for every channel
    i, so each entry is the Kronecker form's value up to the sign of a zero.
    The library builds only its component blocks, bit for bit these entries.
    """
    e, n = elements.shape[:2]
    u = features.size
    tensorops._check_entries(e * (n * u) ** 2)
    _, cols, vals = action_rows(elements, lag, plan)
    elem, row, entry = np.nonzero(vals[:, features])  # skips the +0.0 padding
    col = np.searchsorted(features, cols[elem, features[row], entry])
    out = np.zeros((e, u, n, u, n))
    out[:, np.arange(u), :, np.arange(u), :] = elements
    i = np.arange(n)
    out[elem[:, None], col[:, None], i, row[:, None], i] -= vals[elem, features[row], entry, None]
    return out.reshape(e * n * u, n * u)


def pattern_components(coupled):
    """Connected component of each feature under the (u, u) pattern ``coupled``
    and its transpose, numbered by the components' smallest features: label
    propagation to the smallest feature reachable, with pointer jumping."""
    a, b = np.nonzero(coupled | coupled.T)
    label = np.arange(coupled.shape[0])
    while True:
        lower = label.copy()
        np.minimum.at(lower, a, label[b])
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    return np.searchsorted(np.flatnonzero(label == np.arange(label.size)), label)


def whole_constraint_equivariant_basis(group, lag, plan):
    """``solver.equivariant_basis`` before it built the component blocks
    straight from the action rows: the whole stacked constraint from one
    ``constraint_matrix`` call, its channel-0 pattern's components, each
    size group's blocks sliced out of it for one stacked SVD, and per-size
    pieces concatenated and reordered into component order."""
    if group.n * lag != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match n*lag={group.n * lag}"
        )
    dims = degree_kernel_dims(group, lag, plan.order)
    features = basis_features(dims, plan)
    n, u, e = group.n, features.size, len(group.generators)
    full = constraint_matrix(np.array(group.generators), lag, plan, features)
    full = full.reshape(e, u, n, u, n)
    # Ghat_e[r, c] is subtracted at (c, i, r, i) for every channel i, and off
    # the diagonal blocks from zero, so channel 0 shows the whole pattern
    component = pattern_components(full[:, :, 0, :, 0].any(axis=0))
    sizes = np.bincount(component)
    members = np.argsort(component, kind="stable")  # ascending within each component
    starts = np.cumsum(sizes) - sizes
    found = np.zeros(sizes.size, dtype=np.int64)
    rows, slots = [], []
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        idx = members[starts[comps, None] + np.arange(size)]  # (C, size) features
        stack = full[:, idx[:, :, None], :, idx[:, None, :]].transpose(0, 3, 1, 4, 2, 5)
        _, s, vt = tensorops._svd(stack.reshape(comps.size, e * n * size, n * size),
                                  full_matrices=False)
        found[comps] = np.count_nonzero(s <= solver.KERNEL_RTOL * s[:, :1], axis=1)
        kept = np.arange(n * size) >= n * size - found[comps, None]
        piece = np.zeros((int(found[comps].sum()), n, plan.reduced_dim))
        on = features[np.repeat(idx, found[comps], axis=0)]
        piece[np.arange(piece.shape[0])[:, None], :, on] = vt[kept].reshape(-1, size, n)
        rows.append(np.repeat(comps, found[comps]))
        slots.append(piece)
    degree = np.searchsorted([hi for _, hi, *_ in plan.blocks], features[members[starts]],
                             side="right") + 1
    kernel = np.bincount(degree % (plan.order + 1), found, minlength=dims.size)
    wrong = np.flatnonzero(kernel != dims)
    if wrong.size:
        k = wrong[0]
        raise NumericalError(
            f"{int(kernel[k])} singular values of the degree-{k} block's components are at "
            f"most {solver.KERNEL_RTOL:.0e} of their component's largest, not the character "
            f"count {dims[k]}")
    order = np.argsort(np.concatenate(rows), kind="stable")
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=plan.reduced_dim, lag=lag,
                            slot_matrices=np.concatenate(slots)[order])


def one_svd_equivariant_basis(group, lag, plan):
    """``solver.equivariant_basis`` before it split the constraint into the
    connected components of the generators' Ghat pattern: the last d right
    singular vectors of one SVD of the whole stacked one-slot constraint on the
    ``basis_features`` unknowns, d the sum of the character counts, checked
    against KERNEL_RTOL times the largest singular value.  It looks up
    ``constraint_matrix`` and ``tensorops._svd`` when called, so a test can
    swap either."""
    dims = degree_kernel_dims(group, lag, plan.order)
    size = int(dims.sum())
    features = basis_features(dims, plan)
    stacked = constraint_matrix(np.array(group.generators), lag, plan, features)
    # at least as many rows as unknowns, so vt holds every right singular vector
    _, s, vt = tensorops._svd(stacked, full_matrices=False)
    found = int(np.count_nonzero(s <= solver.KERNEL_RTOL * s[0]))
    if found != size:
        raise NumericalError(f"{found} singular values of the stacked constraint are at most "
                             f"{solver.KERNEL_RTOL:.0e} of the largest, not the character "
                             f"count {size}")
    kernel = vt[vt.shape[0] - size:]
    slots = np.zeros((size, group.n, plan.reduced_dim))
    slots[:, :, features] = kernel.reshape(-1, features.size, group.n).transpose(0, 2, 1)
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=plan.reduced_dim, lag=lag,
                            slot_matrices=slots)


def lower_plan_equivariant_basis(group, lag, plan):
    """``one_svd_equivariant_basis`` with the rows of Ghat_g built on the plan
    that stops at the highest degree whose character count is not 0.  That
    plan's constant sits lower, but is kept only when the group fixes a
    channel vector v, and then every degree holds a kernel vector, so the
    lower plan is ``plan`` itself."""
    dims = degree_kernel_dims(group, lag, plan.order)
    top = int(np.flatnonzero(dims[1:])[-1]) + 1
    lower = one_svd_equivariant_basis(group, lag, compression_plan(plan.dim_in, top))
    slots = np.zeros(lower.slot_matrices.shape[:2] + (plan.reduced_dim,))
    slots[:, :, :lower.reduced_dim] = lower.slot_matrices
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=plan.reduced_dim, lag=lag,
                            slot_matrices=slots)


def feature_components(group, lag, plan, features):
    """The connected components of the generators' Ghat pattern over
    ``features``: two features are joined when some generator's dense Ghat
    has a nonzero entry at either of their (row, column) pairs.  Each
    component is an ascending array of positions in ``features``, and the
    list is ordered by their first entries (a breadth-first search)."""
    pattern = np.any([assembled_action(g, lag, plan) != 0 for g in group.generators], axis=0)
    joined = (pattern | pattern.T)[np.ix_(features, features)]
    seen = np.zeros(features.size, dtype=bool)
    components = []
    for first in range(features.size):
        if seen[first]:
            continue
        seen[first] = True
        queue = [first]
        for a in queue:  # the queue grows while it is read
            for b in np.flatnonzero(joined[a] & ~seen):
                seen[b] = True
                queue.append(int(b))
        components.append(np.sort(queue))
    return components


def window_constraint_matrix(g, lag, plan):
    """Vec form of the intertwiner equation over the whole delay window:
    I_q (x) (g (x) I_lag) - Ghat_g^T (x) I_{n*lag}, with n*lag*q unknowns."""
    ghat = reduced_action_by_blocks(g, lag, plan)
    h = window_action(g, lag)
    m = h.shape[0]
    q = plan.reduced_dim
    return np.kron(np.eye(q), h) - np.kron(ghat.T, np.eye(m))


def window_equivariant_basis(group, lag, plan, rel_tol=NULLSPACE_RTOL):
    """Dense (size, n*lag, q) equivariant basis from one SVD of the stacked
    whole-window constraints."""
    m = plan.dim_in
    q = plan.reduced_dim
    stacked = np.vstack([window_constraint_matrix(g, lag, plan) for g in group.generators])
    kernel = null_space(stacked, rel_tol)
    mats = np.array([unvec(kernel[:, j], m) for j in range(kernel.shape[1])])
    if mats.size == 0:
        mats = np.zeros((0, m, q))
    return mats


def whole_equivariant_basis(group, lag, plan, rel_tol=NULLSPACE_RTOL):
    """One-slot basis from one SVD of the stacked one-slot constraints on all
    n*q unknowns, empty degree blocks included."""
    q = plan.reduced_dim
    stacked = np.vstack([kron_constraint_matrix(g, lag, plan) for g in group.generators])
    kernel = null_space(stacked, rel_tol)
    slots = np.ascontiguousarray(kernel.T.reshape(-1, q, group.n).transpose(0, 2, 1))
    return EquivariantBasis(state_dim=plan.dim_in, reduced_dim=q, lag=lag,
                            slot_matrices=slots)


def dense_matrices(basis):
    """The (size, state_dim, reduced_dim) stack of a one-slot basis: element
    j*lag + t is slot matrix j on the rows c*lag + t, zero elsewhere."""
    k, n, q = basis.slot_matrices.shape
    lag = basis.lag
    out = np.zeros((k, lag, n, lag, q))
    for t in range(lag):
        out[:, t, :, t, :] = basis.slot_matrices
    return out.reshape(k * lag, n * lag, q)


def dense_fit(matrices, h0r, h1, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None):
    """Coefficients and rank of the least-squares fit over a dense basis stack.

    The design matrix has columns vec(X_j @ h0r).  Returns (coefficients,
    rank), the rank being the kept singular values, or the nonzero count
    under ``sparsify``.
    """
    size = matrices.shape[0]
    mapped = np.einsum("jab,bc->jac", matrices, h0r)
    lhs = mapped.transpose(0, 2, 1).reshape(size, -1).T
    rhs = h1.ravel(order="F")
    if sparsify is None:
        return tensorops._truncated_solve(lhs, rhs, rel_tol)
    coeffs = lstsq(lhs, rhs, rel_tol, sparsify)
    return coeffs, int(np.count_nonzero(coeffs))


def unreduced_fit(basis, h0r, h1, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None):
    """Coefficients and rank of the slot-factored fit on the data itself: one
    truncated SVD (or matching pursuit on A (x) I_lag) of the (n*T, k) matrix
    A = [vec(K_j @ h0r)], never the R factor of the data."""
    k, n, _ = basis.slot_matrices.shape
    lag = basis.lag
    mapped = np.einsum("jab,bc->jac", basis.slot_matrices, h0r)
    a = mapped.transpose(0, 2, 1).reshape(k, -1).T
    rhs = h1.reshape(n, -1, h1.shape[1]).transpose(2, 0, 1).reshape(a.shape[0], -1)
    if sparsify is None:
        coeffs, rank = tensorops._truncated_solve(a, rhs, rel_tol)
        return coeffs.ravel(), rank * lag
    coeffs = lstsq(np.kron(a, np.eye(lag)), rhs.ravel(), rel_tol, sparsify)
    return coeffs, int(np.count_nonzero(coeffs))


def full_width_qr_fit(basis, h0r, h1, rel_tol=tensorops.LSTSQ_RTOL, sparsify=None):
    """Coefficients and rank of the slot-factored fit on the R factor of the
    whole (T, q + n*lag) stack [h0r; h1]^T, every feature included: the long
    data fit before it left out the features that no basis element uses."""
    q = h0r.shape[0]
    r = np.linalg.qr(np.vstack([h0r, h1]).T, mode="r")
    return unreduced_fit(basis, r[:, :q].T, r[:, q:].T, rel_tol, sparsify)


def svd_rank(a, rel_tol):
    """Number of singular values above rel_tol * sigma_max, from a separate SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
